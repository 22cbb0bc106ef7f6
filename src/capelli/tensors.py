"""Tensor products of matrices over a pluggable coefficient algebra.

A coefficient algebra is a ``capelli.exact.CoefficientAlgebra`` handle
(``WeylAlgebra``, ``EnvelopingAlgebra`` or the commutative
``SymbolAlgebra``), whose ``zero``, ``one`` and ``scaled_sum`` come from
its element class. Elements support +, -, * and == on canonical forms.

A k-fold tensor product of p x q matrices is stored sparsely as a map from
multi-index pairs ((a1..ak), (b1..bk)) to coefficients, standing for
coeff (x) e[a1,b1] (x) ... (x) e[ak,bk]. A matrix is the case k = 1
(``TensorElement.matrix``), so matrices add, scale, multiply
(``tensor_matmul``) and transpose as tensors do. Coefficient products are
always taken left factor first; nothing here assumes commutativity. A
group algebra element acts on the right through its int place operator
(``_place_operator``), the one place-permutation operator of the library.
``tensor_product`` builds every nonzero entry; a symbol tensor needed only
at the keys read off a place operator is built on those keys alone by
``identities._built``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import itemgetter

from .exact import SparseElement
from .permutations import GroupAlgebraElement, Permutation

__all__ = [
    "TensorElement",
    "tensor_product",
    "tensor_matmul",
    "right_mul_group_algebra",
    "full_trace",
]

MultiIndex = tuple[int, ...]


class TensorElement(SparseElement):
    """A sparse element of A (x) (Mat_pq)^(x k)."""

    __slots__ = ()

    _MISMATCH = "tensor mismatch: (algebra, k, p, q) = {0} vs {1}"

    def __init__(
        self,
        algebra,
        k: int,
        p: int,
        q: int,
        terms: dict[tuple[MultiIndex, MultiIndex], object] | None = None,
    ):
        super().__init__((algebra, k, p, q), terms)

    algebra = property(lambda self: self._space[0])
    k = property(lambda self: self._space[1])
    p = property(lambda self: self._space[2])
    q = property(lambda self: self._space[3])

    @staticmethod
    def _key(space: tuple, key) -> tuple[MultiIndex, MultiIndex]:
        _, k, p, q = space
        rows, cols = key
        if len(rows) != k or len(cols) != k:
            raise ValueError(f"multi-index length != {k}: {key}")
        if not all(1 <= a <= p for a in rows) or not all(1 <= b <= q for b in cols):
            raise ValueError(f"multi-index out of range: {key}")
        return (tuple(rows), tuple(cols))

    @staticmethod
    def _coerce(coeff):
        # coefficients are elements of the coefficient algebra, kept as given
        return coeff

    @classmethod
    def matrix(cls, algebra, rows: Iterable[Iterable]) -> TensorElement:
        """The p x q matrix with the given rows, as a 1-fold tensor."""
        rows = [list(row) for row in rows]
        if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("entries must form a nonempty rectangle")
        terms = {
            ((a,), (b,)): entry
            for a, row in enumerate(rows, 1)
            for b, entry in enumerate(row, 1)
        }
        return cls(algebra, 1, len(rows), len(rows[0]), terms)

    @classmethod
    def identity(cls, algebra, k: int, m: int) -> TensorElement:
        one = algebra.one()
        terms = {(rows, rows): one for rows in itertools.product(range(1, m + 1), repeat=k)}
        return cls(algebra, k, m, m, terms)

    def coefficient(self, rows: MultiIndex, cols: MultiIndex):
        return self._terms.get((tuple(rows), tuple(cols)), self.algebra.zero())

    def transpose(self) -> TensorElement:
        """Every factor transposed: rows swap with cols, p with q."""
        algebra, k, p, q = self._space
        terms = {(cols, rows): c for (rows, cols), c in self._terms.items()}
        return self._raw((algebra, k, q, p), terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return "\n".join(
            f"({rows},{cols}): {self._terms[(rows, cols)]}" for rows, cols in self.support()
        )

    def __repr__(self) -> str:
        return f"<TensorElement k={self.k} {self.p}x{self.q} terms={len(self._terms)}>"


def tensor_product(factors: Sequence[TensorElement]) -> TensorElement:
    """The ordered tensor product; entry ((a),(i)) is the left-to-right
    product of the factor entries A[a1,i1] B[a2,i2] ... C[ak,ik]. The k of
    the result is the sum of the factors' k.

    Built one factor at a time: level t maps each prefix (rows, cols) of the
    first t factors to its nonzero product, and the next level extends every
    prefix by one term of the next factor, on the right. A prefix shared by
    many multi-indices is multiplied once.
    """
    if not factors:
        raise ValueError("need at least one factor")
    algebra, _, p, q = factors[0]._space
    for factor in factors:
        if factor.algebra != algebra or (factor.p, factor.q) != (p, q):
            raise ValueError("all factors must share dimensions and algebra")
    level = dict(factors[0]._terms)
    for factor in factors[1:]:
        entries = factor._terms.items()
        level = {
            (rows + a, cols + i): prod
            for (rows, cols), coeff in level.items()
            for (a, i), entry in entries
            if (prod := coeff * entry)
        }
    return TensorElement._raw((algebra, sum(f.k for f in factors), p, q), level)


def tensor_matmul(u: TensorElement, v: TensorElement) -> TensorElement:
    """Factorwise contraction over the shared multi-index; u's coefficients
    multiply v's from the left."""
    if u.algebra != v.algebra:
        raise ValueError("coefficient algebra mismatch")
    if u.k != v.k or u.q != v.p:
        raise ValueError(
            f"inner dimensions differ: k={u.k},q={u.q} vs k={v.k},p={v.p}"
        )
    by_row: dict[MultiIndex, list[tuple[MultiIndex, object]]] = {}
    for (rows, cols), coeff in v.items():
        by_row.setdefault(rows, []).append((cols, coeff))
    buckets: dict[tuple[MultiIndex, MultiIndex], list] = {}
    for (rows, mids), cu in u.items():
        for cols, cv in by_row.get(mids, ()):
            prod = cu * cv
            if prod:
                buckets.setdefault((rows, cols), []).append((1, prod))
    terms = {}
    for key, pairs in buckets.items():
        total = u.algebra.scaled_sum(pairs)
        if total:
            terms[key] = total
    return TensorElement._raw((u.algebra, u.k, u.p, v.q), terms)


def _place_operator(
    g: GroupAlgebraElement, k: int, m: int
) -> tuple[int, dict[MultiIndex, list[tuple[MultiIndex, int]]]]:
    """(D, P): D is the least common multiple of g's denominators and P the
    int place operator of D g on every column multi-index in 1..m, where
    P[cols][cols o s] is the sum of the int scales D c_s. Each row of P keeps
    only its nonzero entries, so cancellation happens here, in int
    arithmetic. The last operator built is kept."""
    if g.degree != k:
        raise ValueError(f"degree mismatch: {g.degree} vs k={k}")
    return _place_operator_of(k, m, tuple(g.items()))


@lru_cache(maxsize=1)
def _place_operator_of(k: int, m: int, terms: tuple[tuple[Permutation, Fraction], ...]):
    denom = lcm(*(c.denominator for _, c in terms))
    place: dict[MultiIndex, dict[MultiIndex, int]] = {
        cols: {} for cols in itertools.product(range(1, m + 1), repeat=k)
    }
    for s, c in terms:
        scale = c.numerator * (denom // c.denominator)
        # itemgetter of one index returns a scalar; at k = 1 s is the identity
        permute = itemgetter(*[i - 1 for i in s.images]) if k > 1 else tuple
        for cols, row in place.items():
            new = permute(cols)
            row[new] = row.get(new, 0) + scale
    nonzero = {
        cols: [(new, scale) for new, scale in row.items() if scale]
        for cols, row in place.items()
    }
    return denom, nonzero


def right_mul_group_algebra(
    u: TensorElement,
    g: GroupAlgebraElement,
    keys: set[tuple[MultiIndex, MultiIndex]] | None = None,
    column: MultiIndex | None = None,
) -> TensorElement:
    """u times the place-permutation image of a group algebra element, or,
    given a set ``keys`` of output keys (rows, cols) or one output col
    ``column``, only its entries at those.

    Computed as (1/D) (u . P) with D and P from ``_place_operator``.
    Cancellation happens in P before any coefficient of u is touched; only
    the nonzero entries of P multiply u. The product is linear in g, so the
    result is exact, and the division by D touches only the kept outputs.
    Given ``keys``, no output outside them is formed, summed or divided; a
    trace passes the diagonal keys (rows, rows), and each entry of u with
    P[cols][rows] != 0 then forms one scaled pair. Given ``column``, the
    rows of P keep only that output column, once, before the loop.
    """
    if u.p != u.q:
        raise ValueError("factors must be square to act by place permutations")
    denom, nonzero = _place_operator(g, u.k, u.p)
    if column is not None:
        nonzero = {
            cols: [(new, scale) for new, scale in row if new == column]
            for cols, row in nonzero.items()
        }
    buckets: dict[tuple[MultiIndex, MultiIndex], list] = {}
    for (rows, cols), coeff in u.items():
        for new, scale in nonzero[cols]:
            if keys is None or (rows, new) in keys:
                buckets.setdefault((rows, new), []).append((scale, coeff))
    inverse = Fraction(1, denom)
    terms = {}
    for key, pairs in buckets.items():
        total = u.algebra.scaled_sum(pairs)
        if total:
            terms[key] = total if denom == 1 else inverse * total
    return TensorElement._raw(u._space, terms)


def full_trace(u: TensorElement):
    """Trace over every tensor factor; the result lives in the coefficient
    algebra."""
    if u.p != u.q:
        raise ValueError("trace needs square factors")
    return u.algebra.scaled_sum([(1, c) for (rows, cols), c in u.items() if rows == cols])
