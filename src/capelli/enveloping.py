"""The universal enveloping algebra of gl(m) in PBW normal form.

Generators E[a,b] are totally ordered: lowering (a > b) first, then Cartan
(a = b), then raising (a < b), lexicographically inside each block. Products
are straightened onto this basis with the commutator rule

    E[a,b] E[c,d] = E[c,d] E[a,b] + delta(b,c) E[a,d] - delta(d,a) E[c,b]

applied to adjacent out-of-order pairs; every swap lowers a degree-then-
inversion measure, so the rewriting terminates. The lowering-Cartan-raising
order makes the Cartan-only part of a central element read off its highest
weight eigenvalue directly.

A PBW monomial is keyed by its word, the nondecreasing tuple of its generator
indices in this order: E[2,1]^2 E[1,2] is (0, 0, 1) at m = 2, the unit is ().
Only the ``UglElement`` constructor and ``coefficient`` take exponent vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Sequence

from .exact import SparseElement, as_exact
from .weyl import WeylElement

__all__ = [
    "generator_order",
    "UglElement",
    "EnvelopingAlgebra",
    "Centrality",
    "ugl_multiply",
    "ugl_to_weyl",
    "is_central",
    "hc_eigenvalue",
]


@lru_cache(maxsize=None)
def generator_order(m: int) -> tuple[tuple[int, int], ...]:
    """The fixed total order on the generators E[a,b] of gl(m)."""
    lowering = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a > b]
    cartan = [(a, a) for a in range(1, m + 1)]
    raising = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a < b]
    return tuple(sorted(lowering) + cartan + sorted(raising))


@lru_cache(maxsize=None)
def _generator_index(m: int) -> dict[tuple[int, int], int]:
    return {pair: i for i, pair in enumerate(generator_order(m))}


_STRAIGHTEN_CACHE: dict[tuple[int, tuple[int, ...]], dict[tuple[int, ...], Fraction]] = {}


def _straighten(m: int, word: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    """PBW coefficients, keyed by sorted word, of any word of generator indices."""
    key = (m, word)
    cached = _STRAIGHTEN_CACHE.get(key)
    if cached is not None:
        return cached
    order = generator_order(m)
    index = _generator_index(m)
    spot = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), None)
    if spot is None:
        result = {word: 1}
    else:
        i = spot
        gi, gj = word[i], word[i + 1]
        (a, b), (c, d) = order[gi], order[gj]
        result = dict(_straighten(m, word[:i] + (gj, gi) + word[i + 2 :]))
        if b == c:
            extra = _straighten(m, word[:i] + (index[(a, d)],) + word[i + 2 :])
            for k, v in extra.items():
                result[k] = result.get(k, 0) + v
        if d == a:
            extra = _straighten(m, word[:i] + (index[(c, b)],) + word[i + 2 :])
            for k, v in extra.items():
                result[k] = result.get(k, 0) - v
        result = {k: v for k, v in result.items() if v}
    _STRAIGHTEN_CACHE[key] = result
    return result


def _word(expo) -> tuple[int, ...]:
    return tuple(g for g, e in enumerate(expo) for _ in range(e))


class UglElement(SparseElement):
    """A PBW-normal-ordered element, sparse over generator words; the
    constructor and ``coefficient`` take m^2-long exponent vectors instead.

    ``_central`` is set only by ``is_central``, when the element passed, and
    stays valid because elements are immutable; it is unset on every other
    element.
    """

    __slots__ = ("_central",)

    _MISMATCH = "rank mismatch: {0[0]} vs {1[0]}"

    def __init__(self, m: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        super().__init__((m,), terms)

    m = property(lambda self: self._space[0])

    @staticmethod
    def _key(space: tuple, expo) -> tuple[int, ...]:
        (m,) = space
        if len(expo) != m * m:
            raise ValueError(f"exponent vector does not fit gl({m}): {expo}")
        return _word(expo)

    @classmethod
    def zero(cls, m: int) -> UglElement:
        return cls(m)

    @classmethod
    def one(cls, m: int) -> UglElement:
        return cls.constant(m, 1)

    @classmethod
    def constant(cls, m: int, value) -> UglElement:
        value = as_exact(value)
        return cls._raw((m,), {(): value} if value else {})

    @classmethod
    def generator(cls, m: int, a: int, b: int) -> UglElement:
        if not (1 <= a <= m and 1 <= b <= m):
            raise ValueError(f"generator E[{a},{b}] outside gl({m})")
        return cls._raw((m,), {(_generator_index(m)[(a, b)],): 1})

    def coefficient(self, expo) -> int | Fraction:
        return super().coefficient(self._key(self._space, expo))

    def support(self) -> list[tuple[int, ...]]:
        # descending by exponent vector: ascending by word ended past every letter
        return sorted(self._terms, key=lambda word: word + (self.m * self.m,))

    def __mul__(self, other) -> UglElement:
        if isinstance(other, UglElement):
            return ugl_multiply(self, other)
        return as_exact(other) * self

    def _format_key(self, word: tuple[int, ...]) -> str:
        order = generator_order(self.m)
        return " ".join(
            f"E[{a},{b}]" + (f"^{e}" if e > 1 else "")
            for (a, b), e in ((order[g], len(list(run))) for g, run in groupby(word))
        )

    def __repr__(self) -> str:
        return f"<UglElement gl({self.m}) {self}>"


def ugl_multiply(u: UglElement, v: UglElement) -> UglElement:
    """The product, straightened to PBW normal form."""
    m = u.m
    return u._product(v, lambda a, b: _straighten(m, a + b).items())


@lru_cache(maxsize=None)
def _word_weyl(m: int, n: int, word: tuple[int, ...]) -> WeylElement:
    """The Weyl image of a PBW word: a generator's image is
    sum_i x[a,i] D[b,i], and a longer word's is its prefix's image times the
    image of its last generator."""
    if len(word) > 1:
        return _word_weyl(m, n, word[:-1]) * _word_weyl(m, n, word[-1:])
    if not word:
        return WeylElement.one(m, n)
    a, b = generator_order(m)[word[0]]
    return WeylElement._sum(
        [WeylElement.x(m, n, a, i) * WeylElement.d(m, n, b, i) for i in range(1, n + 1)]
    )


def ugl_to_weyl(u: UglElement, n: int) -> WeylElement:
    """The homomorphism sending E[a,b] to sum_i x[a,i] D[b,i]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not u:
        return WeylElement.zero(u.m, n)
    return WeylElement._scaled_sum(
        [(c, _word_weyl(u.m, n, word)) for word, c in u.items()]
    )


@dataclass(frozen=True)
class Centrality:
    """Outcome of a centrality check, with the offending commutator if any."""

    ok: bool
    generator: tuple[int, int] | None = None
    commutator: UglElement | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_central(u: UglElement) -> Centrality:
    """Check that u commutes with every generator of gl(m). A passing
    verdict is recorded on u, so ``hc_eigenvalue`` does not repeat it."""
    for a, b in generator_order(u.m):
        g = UglElement.generator(u.m, a, b)
        delta = ugl_multiply(u, g) - ugl_multiply(g, u)
        if delta:
            return Centrality(False, (a, b), delta)
    object.__setattr__(u, "_central", True)
    return Centrality(True)


def hc_eigenvalue(u: UglElement, weights: Sequence) -> int | Fraction:
    """The scalar by which the central element u acts on the highest-weight
    module of the given weight: the Cartan-only part of the PBW form,
    evaluated at E[a,a] -> weights[a-1]; an int when integral."""
    m = u.m
    if len(weights) != m:
        raise ValueError(f"expected {m} weights, got {len(weights)}")
    weights = [as_exact(w) for w in weights]
    if not hasattr(u, "_central") and not is_central(u):
        raise ValueError("element is not central")
    order = generator_order(m)
    total = 0
    for word, c in u.items():
        value = c
        for g in word:
            a, b = order[g]
            if a != b:
                break
            value *= weights[a - 1]
        else:
            total += value
    return as_exact(total)


@dataclass(frozen=True)
class EnvelopingAlgebra:
    """Factory handle for one rank; doubles as a tensor coefficient algebra."""

    m: int

    def zero(self) -> UglElement:
        return UglElement.zero(self.m)

    def one(self) -> UglElement:
        return UglElement.one(self.m)

    def scalar(self, value) -> UglElement:
        return UglElement.constant(self.m, value)

    def gen(self, a: int, b: int) -> UglElement:
        return UglElement.generator(self.m, a, b)

    sum = staticmethod(UglElement._sum)
    scaled_sum = staticmethod(UglElement._scaled_sum)
