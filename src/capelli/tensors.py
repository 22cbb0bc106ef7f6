"""Matrices and tensor products of matrices over a pluggable coefficient algebra.

A coefficient algebra is any handle providing ``zero()``, ``one()``,
``scalar(q)``, ``sum(values)`` and ``scaled_sum((q, value) pairs)`` whose
elements support +, -, * and == on canonical forms; ``RationalAlgebra``,
``WeylAlgebra`` and ``EnvelopingAlgebra`` all qualify.

A k-fold tensor product of p x q matrices is stored sparsely as a map from
multi-index pairs ((a1..ak), (b1..bk)) to coefficients, standing for
coeff (x) e[a1,b1] (x) ... (x) e[ak,bk]. Coefficient products are always
taken left factor first; nothing here assumes commutativity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable, Sequence

from .exact import SparseElement, as_exact
from .permutations import GroupAlgebraElement, Permutation

__all__ = [
    "RationalAlgebra",
    "AlgMatrix",
    "TensorElement",
    "tensor_product",
    "tensor_matmul",
    "perm_tensor",
    "right_mul_group_algebra",
    "full_trace",
]

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class RationalAlgebra:
    """The exact rationals as a coefficient algebra."""

    def zero(self):
        return 0

    def one(self):
        return 1

    def scalar(self, value):
        return as_exact(value)

    def sum(self, values):
        return as_exact(sum(values))

    def scaled_sum(self, pairs):
        return as_exact(sum(c * v for c, v in pairs))


class AlgMatrix:
    """A p x q matrix with entries in a coefficient algebra."""

    __slots__ = ("algebra", "entries")

    def __init__(self, algebra, entries: Iterable[Iterable]):
        entries = tuple(tuple(row) for row in entries)
        if not entries or any(len(row) != len(entries[0]) for row in entries):
            raise ValueError("entries must form a nonempty rectangle")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("AlgMatrix is immutable")

    @classmethod
    def identity(cls, algebra, size: int) -> AlgMatrix:
        return cls(
            algebra,
            [
                [algebra.one() if i == j else algebra.zero() for j in range(size)]
                for i in range(size)
            ],
        )

    @property
    def p(self) -> int:
        return len(self.entries)

    @property
    def q(self) -> int:
        return len(self.entries[0])

    def entry(self, a: int, b: int):
        """Entry in row a, column b, both 1-based."""
        return self.entries[a - 1][b - 1]

    def transpose(self) -> AlgMatrix:
        return AlgMatrix(
            self.algebra,
            [[self.entries[i][j] for i in range(self.p)] for j in range(self.q)],
        )

    def __add__(self, other: AlgMatrix) -> AlgMatrix:
        self._check_same_shape(other)
        return AlgMatrix(
            self.algebra,
            [
                [a + b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: AlgMatrix) -> AlgMatrix:
        self._check_same_shape(other)
        return AlgMatrix(
            self.algebra,
            [
                [a - b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(self.entries, other.entries)
            ],
        )

    def __rmul__(self, scalar) -> AlgMatrix:
        scalar = as_exact(scalar)
        return AlgMatrix(
            self.algebra, [[scalar * v for v in row] for row in self.entries]
        )

    def __matmul__(self, other: AlgMatrix) -> AlgMatrix:
        if self.algebra != other.algebra:
            raise ValueError("coefficient algebra mismatch")
        if self.q != other.p:
            raise ValueError(f"inner dimensions differ: {self.q} vs {other.p}")
        rows = []
        for i in range(self.p):
            row = []
            for j in range(other.q):
                acc = self.algebra.zero()
                for t in range(self.q):
                    acc = acc + self.entries[i][t] * other.entries[t][j]
                row.append(acc)
            rows.append(row)
        return AlgMatrix(self.algebra, rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgMatrix)
            and self.algebra == other.algebra
            and self.entries == other.entries
        )

    def _check_same_shape(self, other: AlgMatrix) -> None:
        if self.algebra != other.algebra:
            raise ValueError("coefficient algebra mismatch")
        if (self.p, self.q) != (other.p, other.q):
            raise ValueError("shape mismatch")

    def __repr__(self) -> str:
        return f"<AlgMatrix {self.p}x{self.q}>"


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
    def identity(cls, algebra, k: int, m: int) -> TensorElement:
        terms = {}
        for rows in itertools.product(range(1, m + 1), repeat=k):
            terms[(rows, rows)] = algebra.one()
        return cls(algebra, k, m, m, terms)

    def coefficient(self, rows: MultiIndex, cols: MultiIndex):
        return self._terms.get((tuple(rows), tuple(cols)), self.algebra.zero())

    def __matmul__(self, other: TensorElement) -> TensorElement:
        return tensor_matmul(self, other)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return "\n".join(
            f"({rows},{cols}): {self._terms[(rows, cols)]}" for rows, cols in self.support()
        )

    def __repr__(self) -> str:
        return f"<TensorElement k={self.k} {self.p}x{self.q} terms={len(self._terms)}>"


def tensor_product(matrices: Sequence[AlgMatrix]) -> TensorElement:
    """The ordered tensor product; entry ((a),(i)) is the left-to-right
    product of the factor entries A[a1,i1] B[a2,i2] ... C[ak,ik].

    Built one factor at a time: level t maps each prefix (rows[:t], cols[:t])
    to its nonzero product, and the next level extends every prefix by one
    nonzero entry of the next factor, on the right. A prefix shared by many
    multi-indices is multiplied once.
    """
    if not matrices:
        raise ValueError("need at least one factor")
    algebra = matrices[0].algebra
    p, q = matrices[0].p, matrices[0].q
    for mat in matrices:
        if mat.algebra != algebra or (mat.p, mat.q) != (p, q):
            raise ValueError("all factors must share dimensions and algebra")

    def nonzero(mat):
        return [
            ((a,), (i,), entry)
            for a, row in enumerate(mat.entries, 1)
            for i, entry in enumerate(row, 1)
            if entry
        ]

    level = {(a, i): entry for a, i, entry in nonzero(matrices[0])}
    for mat in matrices[1:]:
        entries = nonzero(mat)
        level = {
            (rows + a, cols + i): prod
            for (rows, cols), coeff in level.items()
            for a, i, entry in entries
            if (prod := coeff * entry)
        }
    return TensorElement._raw((algebra, len(matrices), p, q), level)


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
                buckets.setdefault((rows, cols), []).append(prod)
    terms = {}
    for key, values in buckets.items():
        total = u.algebra.sum(values)
        if total:
            terms[key] = total
    return TensorElement._raw((u.algebra, u.k, u.p, v.q), terms)


def perm_tensor(s: Permutation, m: int, algebra=RationalAlgebra()) -> TensorElement:
    """The place-permutation operator: position t receives factor s^-1(t),
    so the entry at ((a),(b)) is 1 exactly when b_j = a_s(j) for all j."""
    k = s.degree
    one = algebra.one()
    terms = {}
    for rows in itertools.product(range(1, m + 1), repeat=k):
        cols = tuple(rows[s(j) - 1] for j in range(1, k + 1))
        terms[(rows, cols)] = one
    return TensorElement(algebra, k, m, m, terms)


def right_mul_group_algebra(
    u: TensorElement, g: GroupAlgebraElement
) -> TensorElement:
    """u times the place-permutation image of a group algebra element.

    Computed as (1/D) (u . P) with D the least common multiple of g's
    denominators and P the place operator of D g on the column multi-indices
    that occur in u: P[cols][cols o s] is the sum of the int scales D c_s.
    Cancellation happens in P, in int arithmetic, before any coefficient of
    u is touched; only the nonzero entries of P multiply u. (By Schur-Weyl
    duality the operator of Psi(T,T') has rank dim V_mu(gl(m)), and is 0
    when mu has more than m rows.) The product is linear in g, so the
    result is exact, and the division by D touches only the surviving
    output coefficients.
    """
    if u.p != u.q:
        raise ValueError("factors must be square to act by place permutations")
    if g.degree != u.k:
        raise ValueError(f"degree mismatch: {g.degree} vs k={u.k}")
    denom = lcm(*(c.denominator for _, c in g.items()))
    place: dict[MultiIndex, dict[MultiIndex, int]] = {cols: {} for _, cols in u._terms}
    for s, c in g.items():
        scale = c.numerator * (denom // c.denominator)
        # itemgetter of one index returns a scalar; at k = 1 s is the identity
        permute = itemgetter(*[i - 1 for i in s.images]) if u.k > 1 else tuple
        for cols, row in place.items():
            new = permute(cols)
            row[new] = row.get(new, 0) + scale
    nonzero = {
        cols: [(new, scale) for new, scale in row.items() if scale]
        for cols, row in place.items()
    }
    buckets: dict[tuple[MultiIndex, MultiIndex], list] = {}
    for (rows, cols), coeff in u.items():
        for new, scale in nonzero[cols]:
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
    diagonal = [coeff for (rows, cols), coeff in u.items() if rows == cols]
    if not diagonal:
        return u.algebra.zero()
    return u.algebra.sum(diagonal)
