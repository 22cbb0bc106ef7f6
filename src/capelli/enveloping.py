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

The Weyl realization E[a,b] -> sum_i x[a,i] D[b,i] on an m x n grid goes
through normal-ordered symbols, which do not depend on n. The image of u is
GL(n)-invariant, so by the first fundamental theorem of invariant theory its
normal-ordered symbol (D replaced by a commuting xi) is a polynomial in the
m^2 commuting variables e[a,b] = sum_i x[a,i] xi[b,i] (Howe, *Remarks on
classical invariant theory*, 1989): a ``SymbolElement``, keyed by sorted
words like a PBW monomial. ``symbol`` computes it word by word with one
rule, right multiplication by a generator,

    f * E[a,b] = f e[a,b] + sum_c e[c,b] df/de[c,a],

memoized per PBW word. The same rule (``_times_generator``) builds the
theorem's left side and the quantum immanant's symbol, factor by factor,
straight in C[e_ab], with no PBW straightening. The symbol of a PBW word
is that word plus terms of lower degree, so ``_pbw`` inverts ``symbol``
one degree at a time; the quantum immanant is read back that way.
``ev_n`` maps a symbol to the Weyl operator at n by expanding each e[a,b]
commutatively into normal-ordered monomials, and ``ugl_to_weyl`` is ev_n
after ``symbol``. ev_n is injective exactly when n >= m; for n < m its
kernel is the ideal of (n+1)-minors of [e[a,b]].

``is_central`` stays in U(gl(m)): it straightens the commutators of u with
the 2(m-1) Chevalley generators E[a,a+1], E[a+1,a], which generate sl(m),
and gl(m) is sl(m) plus a central element.
"""

from __future__ import annotations

from bisect import bisect
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import groupby

from .exact import CoefficientAlgebra, SparseElement, as_exact
from .weyl import WeylElement, WeylMonomial

__all__ = [
    "generator_order",
    "UglElement",
    "EnvelopingAlgebra",
    "Centrality",
    "ugl_multiply",
    "SymbolElement",
    "SymbolAlgebra",
    "symbol",
    "ev_n",
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


class _WordElement(SparseElement):
    """An element of a rank-m algebra whose basis keys are nondecreasing
    words of generator indices, printed as products of powers of
    ``_LETTER``[a,b]; the unit is the empty word."""

    __slots__ = ()

    _MISMATCH = "rank mismatch: {0[0]} vs {1[0]}"

    def __init__(self, m: int, terms: dict | None = None):
        super().__init__((m,), terms)

    m = property(lambda self: self._space[0])

    @staticmethod
    def _unit(space: tuple) -> tuple[int, ...]:
        return ()

    def _format_key(self, word: tuple[int, ...]) -> str:
        order = generator_order(self.m)
        return " ".join(
            f"{self._LETTER}[{a},{b}]" + (f"^{e}" if e > 1 else "")
            for (a, b), e in ((order[g], len(list(run))) for g, run in groupby(word))
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} gl({self.m}) {self}>"


class UglElement(_WordElement):
    """A PBW-normal-ordered element, sparse over generator words; the
    constructor and ``coefficient`` take m^2-long exponent vectors instead.

    ``_central`` is set only by ``is_central``, when the element passed, and
    stays valid because elements are immutable; it is unset on every other
    element. It is the one slot that is not part of the value: equality
    ignores it, and a copy or pickle keeps it.
    """

    __slots__ = ("_central",)

    _LETTER = "E"

    @staticmethod
    def _key(space: tuple, expo) -> tuple[int, ...]:
        (m,) = space
        if len(expo) != m * m:
            raise ValueError(f"exponent vector does not fit gl({m}): {expo}")
        return _word(expo)

    def coefficient(self, expo) -> int | Fraction:
        return super().coefficient(self._key(self._space, expo))

    def support(self) -> list[tuple[int, ...]]:
        # descending by exponent vector: ascending by word ended past every letter
        return sorted(self._terms, key=lambda word: word + (self.m * self.m,))

    def __mul__(self, other) -> UglElement:
        if isinstance(other, UglElement):
            return ugl_multiply(self, other)
        return as_exact(other) * self


def ugl_multiply(u: UglElement, v: UglElement) -> UglElement:
    """The product, straightened to PBW normal form."""
    m = u.m
    return u._product(v, lambda a, b: _straighten(m, a + b).items())


class SymbolElement(_WordElement):
    """A polynomial in the m^2 commuting variables e[a,b], sparse over
    sorted words of generator indices (the index of E[a,b] in
    ``generator_order(m)`` names e[a,b]); ``*`` is the commutative product.

    It stands for the normal-ordered symbol of a GL(n)-invariant Weyl
    operator, e[a,b] for sum_i x[a,i] xi[b,i]; ``ev_n`` maps it back.
    """

    __slots__ = ()

    _LETTER = "e"

    @staticmethod
    def _key(space: tuple, word) -> tuple[int, ...]:
        (m,) = space
        if not all(0 <= g < m * m for g in word):
            raise ValueError(f"word does not name variables of gl({m}): {word}")
        return tuple(sorted(word))

    def __mul__(self, other) -> SymbolElement:
        if isinstance(other, SymbolElement):
            return self._product(other, lambda a, b: ((tuple(sorted(a + b)), 1),))
        return as_exact(other) * self


def _generator(algebra, a: int, b: int) -> _WordElement:
    """The one-letter word of E[a,b] in the handle's algebra of rank m."""
    m, element = algebra.m, algebra.element
    if not (1 <= a <= m and 1 <= b <= m):
        raise ValueError(f"{element._LETTER}[{a},{b}] outside gl({m})")
    return element._raw((m,), {(_generator_index(m)[(a, b)],): 1})


class SymbolAlgebra(CoefficientAlgebra):
    """C[e_ab] for one rank as a tensor coefficient algebra."""

    __slots__ = ("m",)

    element = SymbolElement

    def __init__(self, m: int):
        object.__setattr__(self, "m", m)

    var = _generator


def _times_generator(f: SymbolElement, a: int, b: int, shift=0) -> SymbolElement:
    """The symbol of u (E[a,b] - shift delta_ab), f the symbol of u, by the
    one right-action rule: f e[a,b] + sum_c e[c,b] df/de[c,a], less
    shift f when a = b. Free of n."""
    m = f.m
    index = _generator_index(m)
    g = index[(a, b)]
    # e[c,a] -> e[c,b]: the derivative part trades one such letter
    trade = {index[(c, a)]: index[(c, b)] for c in range(1, m + 1)}
    terms: dict[tuple[int, ...], int] = {}
    if shift and a == b:
        terms = {w: -shift * coeff for w, coeff in f.items()}
    for w, coeff in f.items():
        key = _insert(w, g)
        terms[key] = terms.get(key, 0) + coeff
        previous = None
        for i, v in enumerate(w):
            if v != previous and v in trade:
                key = _insert(w[:i] + w[i + 1 :], trade[v])
                terms[key] = terms.get(key, 0) + w.count(v) * coeff
            previous = v
    return SymbolElement._raw((m,), {w: c for w, c in terms.items() if c})


def _insert(word: tuple[int, ...], letter: int) -> tuple[int, ...]:
    """The sorted word with one more letter."""
    i = bisect(word, letter)
    return word[:i] + (letter,) + word[i:]


@lru_cache(maxsize=None)
def _word_symbol(m: int, word: tuple[int, ...]) -> SymbolElement:
    """The symbol of a PBW word, free of n: its prefix's symbol times the
    last generator (``_times_generator``)."""
    if not word:
        return SymbolElement.one(m)
    return _times_generator(_word_symbol(m, word[:-1]), *generator_order(m)[word[-1]])


def symbol(u: UglElement) -> SymbolElement:
    """The normal-ordered symbol in C[e_ab] of the Weyl image of u, for
    every n at once: ``ugl_to_weyl(u, n) == ev_n(symbol(u), n)``."""
    if not u:
        return SymbolElement.zero(u.m)
    return SymbolElement._scaled_sum([(c, _word_symbol(u.m, word)) for word, c in u.items()])


def _pbw(f: SymbolElement) -> UglElement:
    """The element of U(gl(m)) whose symbol is f: ``symbol`` inverted, one
    degree at a time. The symbol of a PBW word is that word as a monomial
    plus terms of lower degree (each ``_times_generator`` adds one letter,
    and its derivative part trades one), so the top-degree words of f are
    PBW words with f's coefficients, and f less their symbols has a lower
    degree."""
    m, terms = f.m, {}
    while f:
        top = max(map(len, f._terms))
        lead = [(c, word) for word, c in f.items() if len(word) == top]
        terms.update((word, c) for c, word in lead)
        f = SymbolElement._scaled_sum([(1, f)] + [(-c, _word_symbol(m, w)) for c, w in lead])
    return UglElement._raw((m,), terms)


def _evaluator(m: int, n: int):
    """ev_n for one (m, n), with a memo of the images of the prefixes of
    the sorted words it has expanded (see ``_word_image``)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    memo = {(): WeylElement.one(m, n)}

    def ev(f: SymbolElement) -> WeylElement:
        if not f:
            return WeylElement.zero(m, n)
        return WeylElement._scaled_sum([(c, _word_image(memo, word)) for word, c in f.items()])

    return ev


def _word_image(memo: dict, word: tuple[int, ...]) -> WeylElement:
    """The image of a sorted word, memoized in ``memo``, whose unit fixes
    m and n: its prefix's image times sum_i x[a,i] D[b,i], expanded
    commutatively, since normal order is the order of a symbol. The memo is
    passed down, not closed over, so a dropped evaluator holds no reference
    cycle and is freed at once."""
    value = memo.get(word)
    if value is None:
        prefix = _word_image(memo, word[:-1])
        m, n = prefix._space
        a, b = generator_order(m)[word[-1]]
        terms: dict[WeylMonomial, int] = {}
        for (alpha, beta), c in prefix.items():
            for i in range(n):
                x, d = list(alpha), list(beta)
                x[(a - 1) * n + i] += 1
                d[(b - 1) * n + i] += 1
                mono = WeylMonomial(tuple(x), tuple(d))
                terms[mono] = terms.get(mono, 0) + c
        value = memo[word] = WeylElement._raw((m, n), terms)
    return value


def ev_n(f: SymbolElement, n: int) -> WeylElement:
    """The Weyl operator with normal-ordered symbol f at n: e[a,b] goes to
    sum_i x[a,i] D[b,i]. Injective exactly when n >= m."""
    return _evaluator(f.m, n)(f)


def ugl_to_weyl(u: UglElement, n: int) -> WeylElement:
    """The homomorphism sending E[a,b] to sum_i x[a,i] D[b,i], as
    ev_n of the symbol."""
    return ev_n(symbol(u), n)


class Centrality(namedtuple("Centrality", "ok generator commutator", defaults=(None, None))):
    """Outcome of a centrality check, with the offending commutator if any:
    ``generator`` is the first (a, b) whose E[a,b] does not commute with the
    element and ``commutator`` that commutator, both None when ``ok``."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def is_central(u: UglElement) -> Centrality:
    """Check that u commutes with every generator of gl(m), from the
    2(m-1) Chevalley generators E[a,a+1], E[a+1,a]: ad u is a derivation,
    so u commutes with the Lie algebra they generate, sl(m), and gl(m) is
    sl(m) plus the central E[1,1] + ... + E[m,m]. If one of them fails,
    every generator is tried in ``generator_order``, and the first that
    does not commute is returned with its commutator. A passing verdict is
    recorded on u, so ``hc_eigenvalue`` does not repeat it."""
    m, algebra = u.m, EnvelopingAlgebra(u.m)

    def commutator(a: int, b: int) -> UglElement:
        g = algebra.gen(a, b)
        return ugl_multiply(u, g) - ugl_multiply(g, u)

    chevalley = [pair for a in range(1, m) for pair in ((a, a + 1), (a + 1, a))]
    if any(commutator(a, b) for a, b in chevalley):
        for a, b in generator_order(m):
            delta = commutator(a, b)
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


class EnvelopingAlgebra(CoefficientAlgebra):
    """Factory handle for one rank; doubles as a tensor coefficient algebra."""

    __slots__ = ("m",)

    element = UglElement

    def __init__(self, m: int):
        object.__setattr__(self, "m", m)

    gen = _generator
