"""Both sides of the higher Capelli identities, their proof steps, and the
quantum immanants, verified term by term in exact arithmetic.

For a standard tableau T with contents c_T(1..k), the tensor identity says

    (E - c_T(1)) (x) ... (x) (E - c_T(k)) . Psi(T,T')
        = X^(x k) . (D')^(x k) . Psi(T,T')

over the Weyl algebra, and tracing both sides over all matrix factors gives
the scalar (higher Capelli) identity with the character in place of Psi.
The traced left side, computed over U(gl(m)) instead, is the quantum
immanant of the shape.

The Weyl left side is the image of the U(gl(m)) one: E[a,b] =
sum_i x[a,i] D[b,i] is the image of the generator E[a,b] under the
homomorphism ``ugl_to_weyl``, so (E - c_1) (x) ... (x) (E - c_k) is built
over U(gl(m)), where products are straightening-memo lookups, and mapped
entry by entry. Scaling by a Fraction (the division by the common
denominator of Psi, 1/dim mu, the proof steps' constants) stays in int
arithmetic for int coefficients; see ``SparseElement.__rmul__``.

A trace multiplies only the entries that reach it: trace(u . g) needs u
only at the keys of ``trace_support(g, k, m)``, read off the int place
operator of g. The quantum immanant builds just those entries of the
shifted product, and the corollary restricts X^(x k) . (D')^(x k) to them.
The corollary's left side is the Weyl image of the quantum immanant: the
map, the product by Psi and the trace are all linear, and the Weyl tensor
is the entrywise image of the U(gl(m)) one.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable

from .enveloping import EnvelopingAlgebra, UglElement, ugl_to_weyl
from .permutations import GroupAlgebraElement, embed, ga_multiply, jm_element
from .tableaux import (
    Partition,
    StandardTableau,
    all_partitions,
    character_element,
    dimension,
    enumerate_standard_tableaux,
    psi,
)
from .tensors import (
    MultiIndex,
    TensorElement,
    full_trace,
    right_mul_group_algebra,
    tensor_matmul,
    tensor_product,
    trace_support,
)
from .weyl import WeylAlgebra

__all__ = [
    "VerificationReport",
    "build_E",
    "build_X",
    "build_D",
    "lhs_theorem",
    "rhs_theorem",
    "verify_theorem",
    "verify_corollary",
    "verify_proof_steps",
    "sweep",
    "quantum_immanant",
]


@dataclass(frozen=True)
class VerificationReport:
    """One verified case: canonical-form comparison of two tensor elements."""

    case: str
    outcome: bool
    lhs_terms: int
    rhs_terms: int
    first_diff: str | None
    millis: float

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "outcome": "pass" if self.outcome else "fail",
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
            "first_diff": self.first_diff,
            "millis": round(self.millis, 3),
        }


def build_X(m: int, n: int) -> TensorElement:
    """The m x n matrix of coordinate operators x[a,i]."""
    algebra = WeylAlgebra(m, n)
    return TensorElement.matrix(
        algebra,
        [[algebra.x(a, i) for i in range(1, n + 1)] for a in range(1, m + 1)],
    )


def build_D(m: int, n: int) -> TensorElement:
    """The m x n matrix of derivations D[a,i]."""
    algebra = WeylAlgebra(m, n)
    return TensorElement.matrix(
        algebra,
        [[algebra.d(a, i) for i in range(1, n + 1)] for a in range(1, m + 1)],
    )


def _ugl_matrix(m: int) -> TensorElement:
    """The m x m matrix of generators E[a,b] of U(gl(m))."""
    algebra = EnvelopingAlgebra(m)
    return TensorElement.matrix(
        algebra,
        [[algebra.gen(a, b) for b in range(1, m + 1)] for a in range(1, m + 1)],
    )


def _weyl_image(u: TensorElement, n: int) -> TensorElement:
    """A tensor over U(gl(m)) mapped entrywise into the m x n Weyl algebra by
    ``ugl_to_weyl``; the constructor drops entries whose image is 0."""
    terms = {key: ugl_to_weyl(c, n) for key, c in u.items()}
    return TensorElement(WeylAlgebra(u.algebra.m, n), u.k, u.p, u.q, terms)


def build_E(m: int, n: int) -> TensorElement:
    """The m x m matrix with entry (a,b) = sum_i x[a,i] D[b,i], the image of E[a,b]."""
    return _weyl_image(_ugl_matrix(m), n)


def _shifted_tensor(
    m: int, contents: tuple[int, ...], keys: Iterable[tuple[MultiIndex, MultiIndex]]
) -> TensorElement:
    """The entries at the given keys (rows, cols) of (E - c_1) (x) ... (x)
    (E - c_k) over U(gl(m)).

    An entry is the left-to-right product of the factor entries
    E[a_t,b_t] - c_t delta(a_t,b_t). The memo maps each prefix
    (rows[:t], cols[:t]) to its product, so a prefix shared by many keys is
    multiplied once; it starts from the first factor's entries, so no entry
    is multiplied by 1.
    """
    E = _ugl_matrix(m)
    eye = TensorElement.identity(E.algebra, 1, m)
    shifted = [E - c * eye for c in contents]
    factors = [{(a, b): entry for ((a,), (b,)), entry in F.items()} for F in shifted]
    memo = dict(shifted[0].items())

    def product(rows: MultiIndex, cols: MultiIndex) -> UglElement:
        value = memo.get((rows, cols))
        if value is None:
            t = len(rows) - 1
            value = product(rows[:t], cols[:t]) * factors[t][rows[t], cols[t]]
            memo[rows, cols] = value
        return value

    terms = {key: value for key in keys if (value := product(*key))}
    return TensorElement._raw((E.algebra, len(contents), m, m), terms)


@lru_cache(maxsize=None)
def _shifted_product(contents: tuple[int, ...], m: int, n: int) -> TensorElement:
    """(E - c_1) (x) ... (x) (E - c_k) over the Weyl algebra, cached per
    content vector: every entry is built over U(gl(m)), where products are
    lookups in the straightening memo, and mapped into the Weyl algebra by
    the homomorphism E[a,b] -> sum_i x[a,i] D[b,i]."""
    indices = list(itertools.product(range(1, m + 1), repeat=len(contents)))
    keys = itertools.product(indices, repeat=2)
    return _weyl_image(_shifted_tensor(m, contents, keys), n)


@lru_cache(maxsize=None)
def _xd_product(k: int, m: int, n: int) -> TensorElement:
    """X^(x k) . (D')^(x k), cached per (k, m, n)."""
    X = build_X(m, n)
    Dt = build_D(m, n).transpose()
    return tensor_matmul(tensor_product([X] * k), tensor_product([Dt] * k))


def _check_case(shape: Partition, m: int, n: int | None = None) -> None:
    """Refuse degenerate input before any tensor is built."""
    if shape.size == 0:
        raise ValueError("shape must have at least one cell")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if n is not None and n < 1:
        raise ValueError(f"n must be at least 1, got {n}")


def _contents(T: StandardTableau) -> tuple[int, ...]:
    return tuple(T.content(r) for r in range(1, T.size + 1))


def lhs_theorem(
    T: StandardTableau, T2: StandardTableau, m: int, n: int
) -> TensorElement:
    """(E - c_T(1)) (x) ... (x) (E - c_T(k)) . Psi(T,T2) over the Weyl algebra."""
    if T.shape != T2.shape:
        raise ValueError(f"shape mismatch: {T.shape} vs {T2.shape}")
    return right_mul_group_algebra(_shifted_product(_contents(T), m, n), psi(T, T2))


def rhs_theorem(
    T: StandardTableau, T2: StandardTableau, m: int, n: int
) -> TensorElement:
    """X^(x k) . (D')^(x k) . Psi(T,T2) over the Weyl algebra."""
    if T.shape != T2.shape:
        raise ValueError(f"shape mismatch: {T.shape} vs {T2.shape}")
    return right_mul_group_algebra(_xd_product(T.size, m, n), psi(T, T2))


def _first_diff(lhs: TensorElement, rhs: TensorElement) -> str | None:
    if lhs == rhs:
        return None
    for key in sorted(set(lhs.support()) | set(rhs.support())):
        a = lhs.coefficient(*key)
        b = rhs.coefficient(*key)
        if a != b:
            delta = a - b
            detail = ""
            support = getattr(delta, "support", None)
            if support:
                mono = support()[0]
                detail = f" first monomial {mono}"
            return f"at {key}: lhs != rhs{detail}"
    return None


def _report(case: str, lhs: TensorElement, rhs: TensorElement, start: float) -> VerificationReport:
    diff = _first_diff(lhs, rhs)
    return VerificationReport(
        case=case,
        outcome=diff is None,
        lhs_terms=len(lhs),
        rhs_terms=len(rhs),
        first_diff=diff,
        millis=(time.perf_counter() - start) * 1000.0,
    )


def verify_theorem(
    shape: Partition,
    m: int,
    n: int,
    tableau: StandardTableau | None = None,
    tableau2: StandardTableau | None = None,
) -> list[VerificationReport]:
    """Compare both sides of the tensor identity for tableau pairs of the shape.

    With no tableaux given, every ordered pair is checked.
    """
    _check_case(shape, m, n)
    if tableau is None and tableau2 is not None:
        raise ValueError("tableau2 needs tableau")
    if tableau is not None:
        pair = (tableau, tableau2 if tableau2 is not None else tableau)
        for T in pair:
            if T.shape != shape:
                raise ValueError(f"tableau {T} is not of shape {shape}")
        pairs = [pair]
    else:
        tableaux = enumerate_standard_tableaux(shape)
        pairs = [(T, T2) for T in tableaux for T2 in tableaux]
    reports = []
    for T, T2 in pairs:
        start = time.perf_counter()
        case = f"theorem shape={shape} T={T} T'={T2} m={m} n={n}"
        reports.append(
            _report(case, lhs_theorem(T, T2, m, n), rhs_theorem(T, T2, m, n), start)
        )
    return reports


def verify_corollary(shape: Partition, m: int, n: int) -> list[VerificationReport]:
    """Check the traced identity for every tableau of the shape, plus the
    tableau-independence of the traced left side."""
    _check_case(shape, m, n)
    k = shape.size
    tableaux = enumerate_standard_tableaux(shape)
    start = time.perf_counter()
    chi = character_element(shape)
    support = trace_support(chi, k, m)
    xd = _xd_product(k, m, n)
    reaching = TensorElement(
        xd.algebra, k, m, m, {key: c for key, c in xd.items() if key in support}
    )
    rhs = Fraction(1, dimension(shape)) * full_trace(right_mul_group_algebra(reaching, chi))
    rhs_elapsed = time.perf_counter() - start
    reports = []
    traces = []
    for T in tableaux:
        start = time.perf_counter()
        lhs = ugl_to_weyl(quantum_immanant(shape, T, m), n)
        traces.append(lhs)
        ok = lhs == rhs
        detail = None
        if not ok:
            delta = lhs - rhs
            detail = f"trace differs, first monomial {delta.support()[0]}"
        reports.append(
            VerificationReport(
                case=f"corollary shape={shape} T={T} m={m} n={n}",
                outcome=ok,
                lhs_terms=len(lhs),
                rhs_terms=len(rhs),
                first_diff=detail,
                millis=(time.perf_counter() - start + rhs_elapsed) * 1000.0,
            )
        )
        rhs_elapsed = 0.0
    start = time.perf_counter()
    same = all(t == traces[0] for t in traces)
    reports.append(
        VerificationReport(
            case=f"corollary-T-independence shape={shape} m={m} n={n}",
            outcome=same,
            lhs_terms=len(traces[0]) if traces else 0,
            rhs_terms=len(traces[-1]) if traces else 0,
            first_diff=None if same else "traced left side depends on the tableau",
            millis=(time.perf_counter() - start) * 1000.0,
        )
    )
    return reports


def verify_proof_steps(shape: Partition) -> list[VerificationReport]:
    """Check, for every ordered tableau pair of the shape, the branching
    identity Psi(T,T') = (dim mu / (k-1)!) Psi(U,U) Psi(T,T') and the
    annihilation ((1k)+...+(k-1,k) - c_T(k)) . Psi(T,T') = 0."""
    k = shape.size
    if k < 2:
        raise ValueError("proof steps need at least two cells")
    tableaux = enumerate_standard_tableaux(shape)
    reports = []
    for T in tableaux:
        U = T.remove_largest()
        const = Fraction(dimension(U.shape), factorial(k - 1))
        psi_uu = embed(psi(U, U), k)
        jm = jm_element(k, k) - Fraction(T.content(k)) * GroupAlgebraElement.one(k)
        for T2 in tableaux:
            target = psi(T, T2)
            start = time.perf_counter()
            branched = const * ga_multiply(psi_uu, target)
            ok = branched == target
            reports.append(
                VerificationReport(
                    case=f"branching shape={shape} T={T} T'={T2}",
                    outcome=ok,
                    lhs_terms=len(target),
                    rhs_terms=len(branched),
                    first_diff=None
                    if ok
                    else f"first term {str((target - branched).support()[0])}",
                    millis=(time.perf_counter() - start) * 1000.0,
                )
            )
            start = time.perf_counter()
            killed = ga_multiply(jm, target)
            ok = not killed
            reports.append(
                VerificationReport(
                    case=f"jm-annihilation shape={shape} T={T} T'={T2}",
                    outcome=ok,
                    lhs_terms=len(killed),
                    rhs_terms=0,
                    first_diff=None if ok else f"first term {str(killed.support()[0])}",
                    millis=(time.perf_counter() - start) * 1000.0,
                )
            )
    return reports


def sweep(max_k: int, max_m: int, max_n: int) -> list[VerificationReport]:
    """Run theorem, corollary, and proof-step checks over the whole grid."""
    for name, bound in (("max_k", max_k), ("max_m", max_m), ("max_n", max_n)):
        if bound < 1:
            raise ValueError(f"{name} must be at least 1, got {bound}")
    reports = []
    for k in range(1, max_k + 1):
        for shape in all_partitions(k):
            if k >= 2:
                reports.extend(verify_proof_steps(shape))
            for m in range(1, max_m + 1):
                for n in range(1, max_n + 1):
                    reports.extend(verify_theorem(shape, m, n))
                    reports.extend(verify_corollary(shape, m, n))
    return reports


def quantum_immanant(shape: Partition, T: StandardTableau, m: int) -> UglElement:
    """The traced left side computed over U(gl(m)): a central element that
    depends only on the shape."""
    _check_case(shape, m)
    if T.shape != shape:
        raise ValueError(f"tableau shape {T.shape} != {shape}")
    g = psi(T, T)
    shifted = _shifted_tensor(m, _contents(T), trace_support(g, shape.size, m))
    return full_trace(right_mul_group_algebra(shifted, g))
