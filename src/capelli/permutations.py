"""Permutations of degree k and the rational group algebra of S_k.

Composition convention: ``compose(p, q)`` applies ``q`` first, then ``p``.
All coefficients are exact rationals; there is no floating point here.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .exact import SparseElement, Value, as_exact, as_int

__all__ = [
    "Permutation",
    "GroupAlgebraElement",
    "compose",
    "ga_multiply",
    "jm_element",
    "embed",
    "all_permutations",
]


class Permutation(Value):
    """A bijection of {1..k}, stored in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(as_int(v) for v in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> Permutation:
        # fast path for internally produced, already-valid image tuples
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, k: int) -> Permutation:
        return cls(range(1, k + 1))

    @classmethod
    def transposition(cls, i: int, j: int, k: int) -> Permutation:
        if not (1 <= i <= k and 1 <= j <= k and i != j):
            raise ValueError(f"bad transposition ({i} {j}) in S_{k}")
        images = list(range(1, k + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(images)

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]], degree: int) -> Permutation:
        images = list(range(1, degree + 1))
        seen = set()
        for cycle in cycles:
            cycle = list(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if not 1 <= a <= degree:
                    raise ValueError(f"cycle entry {a} out of range 1..{degree}")
                if a in seen:
                    raise ValueError(f"cycle entry {a} repeated: cycles must be disjoint")
                seen.add(a)
                images[a - 1] = b
        return cls(images)

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> Permutation:
        """Parse one-line notation "[2,1,4,3]" or cycle notation "(1 2)(3 4)".

        Cycle notation needs ``degree`` whenever the permutation fixes the
        largest points (e.g. the identity "()"). Only integers, commas,
        whitespace and the brackets of the notation are accepted.
        """
        text = text.strip()
        if re.fullmatch(r"\[[\d\s,-]*\]", text):
            entries = [int(v) for v in re.findall(r"-?\d+", text)]
            return cls(entries)
        if re.fullmatch(r"(\([\d\s,-]*\)\s*)*", text):
            cycles = []
            for chunk in re.findall(r"\(([^()]*)\)", text):
                entries = [int(v) for v in re.split(r"[,\s]+", chunk.strip()) if v]
                if entries:
                    cycles.append(entries)
            inferred = max((e for c in cycles for e in c), default=0)
            if degree is None:
                degree = inferred
            if degree < inferred:
                raise ValueError(f"degree {degree} too small for {text}")
            return cls.from_cycles(cycles, degree)
        raise ValueError(f"unrecognized permutation syntax: {text!r}")

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        return compose(self, other)

    def inverse(self) -> Permutation:
        inv = [0] * self.degree
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation._raw(tuple(inv))

    def sign(self) -> int:
        images = self.images
        inversions = sum(
            1
            for i in range(len(images))
            for j in range(i + 1, len(images))
            if images[i] > images[j]
        )
        return -1 if inversions % 2 else 1

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its minimum, sorted by minimum."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        lengths = [len(c) for c in self.cycles()]
        fixed = self.degree - sum(lengths)
        return tuple(sorted(lengths + [1] * fixed, reverse=True))

    def to_cycles(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycles)

    def __lt__(self, other: Permutation) -> bool:
        # total order on one-line notation; used for canonical printing
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __str__(self) -> str:
        return self.to_cycles()


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The permutation "apply q first, then p"."""
    pi = p.images
    qi = q.images
    if len(pi) != len(qi):
        raise ValueError(f"degree mismatch: {len(pi)} vs {len(qi)}")
    return Permutation._raw(tuple(pi[v - 1] for v in qi))


def all_permutations(k: int) -> Iterator[Permutation]:
    import itertools

    # every tuple itertools yields is a permutation of 1..k by construction
    for images in itertools.permutations(range(1, k + 1)):
        yield Permutation._raw(images)


class GroupAlgebraElement(SparseElement):
    """A sparse rational linear combination of permutations of one degree.

    Zero coefficients are never stored, so ``==`` is a syntactic check on
    the canonical form. Like every ``SparseElement``, it is an unhashable
    ``Value``.
    """

    __slots__ = ()

    _MISMATCH = "degree mismatch: {0[0]} vs {1[0]}"

    def __init__(self, degree: int, terms: dict[Permutation, Fraction] | None = None):
        super().__init__((degree,), terms)

    degree = property(lambda self: self._space[0])

    @staticmethod
    def _key(space: tuple, p: Permutation) -> Permutation:
        (degree,) = space
        if p.degree != degree:
            raise ValueError(f"term degree {p.degree} != {degree}")
        return p

    @staticmethod
    def _unit(space: tuple) -> Permutation:
        return Permutation.identity(space[0])

    @classmethod
    def from_permutation(cls, p: Permutation) -> GroupAlgebraElement:
        return cls(p.degree, {p: 1})

    def __mul__(self, other) -> GroupAlgebraElement:
        if isinstance(other, GroupAlgebraElement):
            return ga_multiply(self, other)
        return as_exact(other) * self

    def _format_key(self, p: Permutation) -> str:
        return "e" if p == self._unit(self._space) else p.to_cycles()

    def __repr__(self) -> str:
        return f"<GroupAlgebraElement deg={self.degree} {self}>"


def ga_multiply(u: GroupAlgebraElement, v: GroupAlgebraElement) -> GroupAlgebraElement:
    """Bilinear extension of ``compose`` to the group algebra."""
    return u._product(v, lambda p, q: ((compose(p, q), 1),))


def jm_element(k: int, r: int) -> GroupAlgebraElement:
    """The sum of transpositions (1 r) + (2 r) + ... + (r-1 r) in S_k."""
    if not 1 <= r <= k:
        raise ValueError(f"r={r} out of range 1..{k}")
    terms = {Permutation.transposition(i, r, k): 1 for i in range(1, r)}
    return GroupAlgebraElement(k, terms)


def embed(u: GroupAlgebraElement, degree: int) -> GroupAlgebraElement:
    """Embed an element of the algebra of S_j into S_degree by fixed points."""
    if degree < u.degree:
        raise ValueError(f"cannot embed degree {u.degree} into {degree}")
    terms = {}
    for p, c in u.items():
        images = p.images + tuple(range(u.degree + 1, degree + 1))
        terms[Permutation(images)] = c
    return GroupAlgebraElement(degree, terms)
