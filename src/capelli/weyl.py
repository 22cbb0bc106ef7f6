"""Polynomial-coefficient differential operators in an m x n grid of variables.

Elements are kept in normal order (every x factor left of every D factor),
as sparse maps from exponent pairs to exact rational coefficients. Products
use the closed contraction formula

    D^p x^q = sum_j j! C(p,j) C(q,j) x^(q-j) D^(p-j)

applied independently in each variable slot, which keeps intermediate term
counts down compared with one-step rewriting.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from math import comb, factorial, perm, prod

from .exact import CoefficientAlgebra, SparseElement, as_exact

__all__ = ["WeylMonomial", "WeylElement", "WeylAlgebra", "weyl_multiply", "weyl_apply"]


class WeylMonomial(namedtuple("WeylMonomial", "alpha beta")):
    """Exponent arrays of a normal-ordered monomial x^alpha D^beta, two
    tuples of ints.

    Both arrays are flattened row-major: slot (a, i) sits at (a-1)*n + (i-1).
    """

    __slots__ = ()


class WeylElement(SparseElement):
    """A sparse rational combination of normal-ordered monomials."""

    __slots__ = ()

    _DESCENDING = True
    _MISMATCH = "grid mismatch: {0[0]}x{0[1]} vs {1[0]}x{1[1]}"

    def __init__(self, m: int, n: int, terms: dict[WeylMonomial, Fraction] | None = None):
        super().__init__((m, n), terms)

    m = property(lambda self: self._space[0])
    n = property(lambda self: self._space[1])

    @staticmethod
    def _key(space: tuple, mono: WeylMonomial) -> WeylMonomial:
        m, n = space
        if len(mono.alpha) != m * n or len(mono.beta) != m * n:
            raise ValueError(f"monomial does not fit a {m}x{n} grid: {mono}")
        return mono

    @staticmethod
    def _unit(space: tuple) -> WeylMonomial:
        empty = (0,) * (space[0] * space[1])
        return WeylMonomial(empty, empty)

    def __mul__(self, other) -> WeylElement:
        if isinstance(other, WeylElement):
            return weyl_multiply(self, other)
        return as_exact(other) * self

    def __pow__(self, exponent: int) -> WeylElement:
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        out = self.one(*self._space)
        for _ in range(exponent):
            out = out * self
        return out

    def is_polynomial(self) -> bool:
        return all(not any(mono.beta) for mono in self._terms)

    def _format_key(self, mono: WeylMonomial) -> str:
        parts = []
        for letter, exps in (("x", mono.alpha), ("D", mono.beta)):
            for slot, e in enumerate(exps):
                if e:
                    a, i = slot // self.n + 1, slot % self.n + 1
                    parts.append(f"{letter}[{a},{i}]" + (f"^{e}" if e > 1 else ""))
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<WeylElement {self.m}x{self.n} {self}>"


def _mono_mul(
    left: WeylMonomial, right: WeylMonomial
) -> Iterator[tuple[WeylMonomial, int]]:
    """Terms of (x^a1 D^b1)(x^a2 D^b2), contracted slot by slot."""
    a1, b1 = left
    a2, b2 = right
    active = [s for s in range(len(a1)) if b1[s] and a2[s]]
    if not active:
        alpha = tuple(p + q for p, q in zip(a1, a2))
        beta = tuple(p + q for p, q in zip(b1, b2))
        yield WeylMonomial(alpha, beta), 1
        return
    choices = []
    for s in active:
        p, q = b1[s], a2[s]
        choices.append(
            [
                (j, factorial(j) * comb(p, j) * comb(q, j))
                for j in range(min(p, q) + 1)
            ]
        )
    base_alpha = [p + q for p, q in zip(a1, a2)]
    base_beta = [p + q for p, q in zip(b1, b2)]
    for picks in itertools.product(*choices):
        coeff = 1
        alpha = list(base_alpha)
        beta = list(base_beta)
        for s, (j, c) in zip(active, picks):
            coeff *= c
            alpha[s] -= j
            beta[s] -= j
        yield WeylMonomial(tuple(alpha), tuple(beta)), coeff


def weyl_multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    """The normal-ordered product of two operators."""
    return u._product(v, _mono_mul)


def weyl_apply(u: WeylElement, f: WeylElement) -> WeylElement:
    """Act with the operator u on the polynomial f (no D factors allowed in f)."""
    if not f.is_polynomial():
        raise ValueError("weyl_apply target must be a polynomial in the x variables")
    zero = (0,) * (u.m * u.n)

    def act(left: WeylMonomial, right: WeylMonomial):
        # x^alpha D^beta acting on x^gamma: in each slot D^b sends x^g to
        # g!/(g-b)! x^(g-b), and kills it when b > g (perm(g, b) is then 0)
        (alpha, beta), (gamma, _) = left, right
        factor = prod(perm(g, b) for b, g in zip(beta, gamma))
        if factor:
            alpha = tuple(a + g - b for a, g, b in zip(alpha, gamma, beta))
            yield WeylMonomial(alpha, zero), factor

    return u._product(f, act)


class WeylAlgebra(CoefficientAlgebra):
    """Factory handle for one grid size; doubles as a tensor coefficient algebra."""

    __slots__ = ("m", "n")

    element = WeylElement

    def __init__(self, m: int, n: int):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    def x(self, a: int, i: int) -> WeylElement:
        return self._variable(a, i, x=True)

    def d(self, a: int, i: int) -> WeylElement:
        return self._variable(a, i, x=False)

    def _variable(self, a: int, i: int, x: bool) -> WeylElement:
        m, n = self.m, self.n
        if not (1 <= a <= m and 1 <= i <= n):
            raise ValueError(f"variable ({a},{i}) outside a {m}x{n} grid")
        e, empty = [0] * (m * n), (0,) * (m * n)
        e[(a - 1) * n + (i - 1)] = 1
        mono = WeylMonomial(tuple(e), empty) if x else WeylMonomial(empty, tuple(e))
        return WeylElement._raw((m, n), {mono: 1})
