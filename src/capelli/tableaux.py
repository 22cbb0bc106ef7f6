"""Partitions, standard Young tableaux, and the seminormal representation.

The representation matrices are kept in Young's seminormal (rational)
normalization. For the generator s_r = (r, r+1) acting on the basis vector
of a tableau T with axial distance d = content(T, r+1) - content(T, r):

    s_r . v_T = (1/d) v_T + cross(T) v_T'      (T' = T with r, r+1 swapped)

where cross(T) = 1 on the side with d > 0 and 1 - 1/d**2 on the other, so
that the generator squares to the identity. When T' is not standard the
cross term is absent and 1/d is +-1.

The one form of the representation is its sparse columns: column T of s_r
is s_r . v_T, with at most two nonzeros. The certificate, rho(s) and Psi
read them, and only ``seminormal_matrix`` builds a dense ``RepMatrix``.

Each builder goes forward: tableaux fill addable cells level by level, top
row first, which is already the order of their positions; column T of
rho(w^-1) is s_r applied to column T of rho(w'^-1), where w = w' . s_r at the
first descent r of w, so Psi(T, .) builds column T alone; chi is the sum of
the diagonal Psi(T, T).
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import lru_cache

from .exact import Value, as_exact, as_int
from .permutations import GroupAlgebraElement, Permutation

__all__ = [
    "Partition",
    "StandardTableau",
    "RepMatrix",
    "all_partitions",
    "enumerate_standard_tableaux",
    "dimension",
    "seminormal_matrix",
    "psi",
    "character_element",
]


class Partition(Value):
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        parts = tuple(as_int(v) for v in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def parse(cls, text: str) -> Partition:
        # a blank text is the empty partition; an empty field is refused
        fields = text.split(",") if text.strip() else []
        if not all(v.strip() for v in fields):
            raise ValueError(f"empty part in shape {text!r}")
        return cls(int(v) for v in fields)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __lt__(self, other: Partition) -> bool:
        return self.parts < other.parts

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


def all_partitions(k: int) -> list[Partition]:
    """All partitions of k in descending lexicographic order."""
    out: list[Partition] = []
    _build_partitions(k, k, [], out)
    return out


def _build_partitions(remaining: int, bound: int, prefix: list[int], out: list) -> None:
    # the state is passed down, not closed over, so no reference cycle is left
    if remaining == 0:
        out.append(Partition(prefix))
        return
    for part in range(min(remaining, bound), 0, -1):
        _build_partitions(remaining - part, part, prefix + [part], out)


class StandardTableau(Value):
    """A filling of a Young diagram with 1..k increasing along rows and columns."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(as_int(v) for v in row) for row in rows)
        shape = Partition(len(row) for row in rows)
        k = shape.size
        entries = [v for row in rows for v in row]
        if sorted(entries) != list(range(1, k + 1)):
            raise ValueError(f"entries must be 1..{k} once each: {rows}")
        for row in rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f"rows must strictly increase: {rows}")
        for i in range(len(rows) - 1):
            for j in range(len(rows[i + 1])):
                if rows[i][j] >= rows[i + 1][j]:
                    raise ValueError(f"columns must strictly increase: {rows}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def parse(cls, text: str) -> StandardTableau:
        try:
            rows = json.loads(text)
        except RecursionError:
            raise ValueError("tableau nested too deeply for a JSON list of lists") from None
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError(f"tableau must be a JSON list of lists: {text}")
        return cls(rows)

    @property
    def shape(self) -> Partition:
        return Partition(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def position(self, r: int) -> tuple[int, int]:
        """The cell (i, j), 1-based, holding the entry r."""
        for i, row in enumerate(self.rows, start=1):
            for j, v in enumerate(row, start=1):
                if v == r:
                    return (i, j)
        raise ValueError(f"entry {r} not in tableau of size {self.size}")

    def content(self, r: int) -> int:
        """Column minus row of the cell holding r."""
        i, j = self.position(r)
        return j - i

    def remove_largest(self) -> StandardTableau:
        k = self.size
        rows = [tuple(v for v in row if v != k) for row in self.rows]
        return StandardTableau(row for row in rows if row)

    def swap_entries(self, r: int, s: int) -> StandardTableau:
        swap = {r: s, s: r}
        return StandardTableau(
            tuple(swap.get(v, v) for v in row) for row in self.rows
        )

    def __str__(self) -> str:
        return json.dumps([list(row) for row in self.rows], separators=(",", ":"))

    def __repr__(self) -> str:
        return f"StandardTableau({[list(r) for r in self.rows]})"


@lru_cache(maxsize=None)
def _enumerate_cached(parts: tuple[int, ...]) -> tuple[StandardTableau, ...]:
    # level by level, entry by entry, with no recursion: each row has at most
    # one addable cell, so extending every filling in order by each such row,
    # top row first, keeps the position sequences in order
    level = [((),) * len(parts)]
    for entry in range(1, sum(parts) + 1):
        level = [
            rows[:i] + (row + (entry,),) + rows[i + 1 :]
            for rows in level
            for i, row in enumerate(rows)
            if len(row) < parts[i] and (i == 0 or len(row) < len(rows[i - 1]))
        ]
    return tuple(StandardTableau(rows) for rows in level)


def enumerate_standard_tableaux(shape: Partition) -> list[StandardTableau]:
    """All standard tableaux of the shape, ordered by their entry positions."""
    return list(_enumerate_cached(shape.parts))


def dimension(shape: Partition) -> int:
    return len(_enumerate_cached(shape.parts))


class RepMatrix(Value):
    """A square rational matrix indexed by the standard tableaux of a shape."""

    __slots__ = ("shape", "entries")

    __hash__ = None

    def __init__(self, shape: Partition, entries: Iterable[Iterable[Fraction]]):
        entries = tuple(tuple(as_exact(v) for v in row) for row in entries)
        d = dimension(shape)
        if len(entries) != d or any(len(row) != d for row in entries):
            raise ValueError(f"expected {d}x{d} matrix for shape {shape}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def identity(cls, shape: Partition) -> RepMatrix:
        d = dimension(shape)
        return cls(shape, [[int(i == j) for j in range(d)] for i in range(d)])

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __mul__(self, other: RepMatrix) -> RepMatrix:
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.entries))
        rows = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.entries]
        return RepMatrix(self.shape, rows)

    def is_diagonal(self) -> bool:
        return all(
            not self.entries[i][j]
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j
        )

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(str(v) for v in row) for row in self.entries
        )
        return f"<RepMatrix {self.shape} [{rows}]>"


# a matrix on the Young basis as sparse columns, each mapping a row to its
# entry; the memos hand the same columns to every caller, so none mutates them
_Columns = tuple[dict[int, Fraction], ...]


@lru_cache(maxsize=None)
def _generator_columns(parts: tuple[int, ...], r: int) -> _Columns:
    # column t holds s_r . v_T: 1/d at T and cross(T) at T', or d = +-1 alone
    # when r, r+1 share a row or a column
    tableaux = _enumerate_cached(parts)
    index = {T: t for t, T in enumerate(tableaux)}
    columns = []
    for t, T in enumerate(tableaux):
        (i1, j1), (i2, j2) = T.position(r), T.position(r + 1)
        dist = (j2 - i2) - (j1 - i1)
        if i1 == i2 or j1 == j2:
            columns.append({t: dist})
        else:
            cross = 1 if dist > 0 else 1 - Fraction(1, dist * dist)
            columns.append({t: Fraction(1, dist), index[T.swap_entries(r, r + 1)]: cross})
    return tuple(columns)


@lru_cache(maxsize=None)
def _certified(parts: tuple[int, ...]) -> None:
    """Raise ``ArithmeticError`` unless the seminormal generators s_r
    (``_generator_columns``) of the shape satisfy the Coxeter relations
    s_r^2 = 1, (s_r s_(r+1))^3 = 1 and (s_r s_t)^2 = 1 for t > r + 1, and
    X_1 = 0 and X_(r+1) = s_r X_r s_r + s_r are diagonal with entry c_T(r+1)
    at T. Checked once per shape, one basis vector v_T at a time, by
    ``_apply`` on the same sparse columns that build rho(s) and Psi.

    The relations present S_k, so the s_r extend to a representation rho,
    and X_r is rho of the Jucys-Murphy element (1,r) + ... + (r-1,r), as
    s_r (i,r) s_r = (i,r+1). So v_T is a joint eigenvector of them with the
    content vector alpha(T), and a content vector determines its tableau
    (Okounkov-Vershik, 1996): alpha(T) occurs in no irreducible but V_mu,
    and rho, of dimension dim V_mu, is V_mu. By Schur orthogonality
    Psi(T,T') = sum_s rho(s)[T',T] s^-1 is then rank one in the mu-block of
    C[S_k] and 0 in the others, so the image of its place operator on
    (C^m)^(x k) is V_mu(gl(m)), and the operator is 0 when mu has more than
    m rows (Schur-Weyl)."""
    tableaux, k, shape = _enumerate_cached(parts), sum(parts), Partition(parts)
    d = len(tableaux)
    s = [None] + [_generator_columns(parts, r) for r in range(1, k)]
    words = [(r, r) for r in range(1, k)] + [(r, r + 1) * 3 for r in range(1, k - 1)]
    words += [(r, q) * 2 for r in range(1, k) for q in range(r + 2, k)]
    for word, t in itertools.product(words, range(d)):
        v = {t: 1}
        for r in word:
            v = _apply(s[r], v)
        if v != {t: 1}:
            raise ArithmeticError(f"the generators of shape {shape} fail the relation {word}")
    # X_r is diag(c_T(r)) by the step before, and X_1 = 0 = c_T(1)
    alpha = [[T.content(r) for r in range(1, k + 1)] for T in tableaux]
    for r, t in itertools.product(range(1, k), range(d)):
        # X_(r+1) v_T = s_r (X_r s_r v_T + v_T)
        x = {i: alpha[i][r - 1] * c for i, c in _apply(s[r], {t: 1}).items()}
        if _apply(s[r], x | {t: x.get(t, 0) + 1}) != ({t: alpha[t][r]} if alpha[t][r] else {}):
            raise ArithmeticError(
                f"X_{r + 1} of shape {shape} is not c_T({r + 1}) at {tableaux[t]}"
            )


def _apply(columns: _Columns, v: dict[int, Fraction]) -> dict[int, Fraction]:
    """The matrix with these sparse columns times the sparse vector v."""
    out: dict[int, Fraction] = {}
    for j, c in v.items():
        for i, a in columns[j].items():
            out[i] = out.get(i, 0) + a * c
    return {i: c for i, c in out.items() if c}


@lru_cache(maxsize=None)
def _seminormal_cached(
    parts: tuple[int, ...], images: tuple[int, ...], t: int
) -> dict[int, Fraction]:
    # column t of rho(w^-1), w the permutation with these images: at the first
    # descent r, w = w' . s_r, where w' swaps the images at r and r+1 and has
    # one inversion less, so the column is s_r applied to column t of rho(w'^-1)
    for r in range(1, len(images)):
        if images[r - 1] > images[r]:
            shorter = images[: r - 1] + (images[r], images[r - 1]) + images[r + 1 :]
            return _apply(_generator_columns(parts, r), _seminormal_cached(parts, shorter, t))
    return {t: 1}


def seminormal_matrix(shape: Partition, s: Permutation) -> RepMatrix:
    """The matrix of s in Young's seminormal representation of the shape.

    Column T of the result holds the coefficients of s . v_T.
    """
    if s.degree != shape.size:
        raise ValueError(f"degree {s.degree} != |shape| {shape.size}")
    inverse, d = s.inverse().images, dimension(shape)
    columns = [_seminormal_cached(shape.parts, inverse, t) for t in range(d)]
    return RepMatrix(shape, [[c.get(i, 0) for c in columns] for i in range(d)])


@lru_cache(maxsize=None)
def _psi_cached(T: StandardTableau, T2: StandardTableau) -> GroupAlgebraElement:
    """Psi(T, T') = sum of rho(w^-1)[T', T] w over w in S_k: entry T' of column
    T of each rho(w^-1), so only column T is built. The entries are exact,
    _store unwraps the integral ones, every key is in S_k."""
    parts, k = T.shape.parts, T.size
    tableaux = _enumerate_cached(parts)
    t, t2 = tableaux.index(T), tableaux.index(T2)
    terms = {}
    for w in itertools.permutations(range(1, k + 1)):
        c = _seminormal_cached(parts, w, t).get(t2)
        if c:
            terms[Permutation._raw(w)] = c
    return GroupAlgebraElement._raw((k,), terms)


def psi(T: StandardTableau, T2: StandardTableau) -> GroupAlgebraElement:
    """The matrix element sum(rep(s)[T2, T] * s^-1 over s) in the group algebra.

    For T == T2 this is the diagonal matrix unit up to the factor
    k!/dim(shape); the off-diagonal elements are fixed nonzero scalar
    multiples of their orthonormal counterparts.
    """
    if T.shape != T2.shape:
        raise ValueError(f"shape mismatch: {T.shape} vs {T2.shape}")
    return _psi_cached(T, T2)


def character_element(shape: Partition) -> GroupAlgebraElement:
    """The central element sum of character(s) * s; coefficients are integers."""
    # the coefficients of the diagonal Psi(T, T) at s^-1 add up to the trace
    # of rep(s), and a character takes the same value on s and s^-1
    tableaux = enumerate_standard_tableaux(shape)
    return GroupAlgebraElement._scaled_sum([(1, psi(T, T)) for T in tableaux])
