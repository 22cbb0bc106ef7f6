"""The benchmark's own combinatorics, written independently of ``capelli``.

It enumerates partitions and standard tableaux (to generate inputs and to
count expected verdicts) and evaluates shifted Schur functions, the oracle
for quantum immanant eigenvalues:

    hc_eigenvalue(quantum_immanant(mu, T, m), l) == (k! / dim mu) * s*_mu(l)

with s*_mu(x) = sum over reverse semistandard tableaux R of shape mu with
entries in 1..m of prod over cells (x_{R(cell)} - content(cell))
(Okounkov-Olshanski, *Shifted Schur functions*, 1997).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

__all__ = [
    "partitions",
    "standard_tableaux",
    "dimension",
    "shifted_schur",
    "immanant_eigenvalue",
]


def partitions(k: int) -> list[tuple[int, ...]]:
    """All partitions of k, largest first part first."""
    out = []

    def build(remaining: int, bound: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, bound), 0, -1):
            build(remaining - part, part, prefix + (part,))

    build(k, k, ())
    return out


def standard_tableaux(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Standard Young tableaux of the shape, as tuples of rows."""
    k = sum(shape)
    out = []

    def place(rows: list[list[int]], entry: int) -> None:
        if entry > k:
            out.append(tuple(tuple(row) for row in rows))
            return
        for i, row in enumerate(rows):
            fits_row = len(row) < shape[i]
            fits_col = i == 0 or len(rows[i - 1]) > len(row)
            if fits_row and fits_col:
                row.append(entry)
                place(rows, entry + 1)
                row.pop()

    place([[] for _ in shape], 1)
    return out


def dimension(shape: tuple[int, ...]) -> int:
    """Number of standard tableaux, by the hook length formula."""
    conjugate = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    hooks = prod(
        (shape[i] - j) + (conjugate[j] - i) - 1
        for i in range(len(shape))
        for j in range(shape[i])
    )
    return factorial(sum(shape)) // hooks


def _reverse_tableaux(shape: tuple[int, ...], m: int):
    """Fillings with entries in 1..m, weakly decreasing along rows and
    strictly decreasing down columns, yielded as {(i, j): entry}."""
    cells = [(i, j) for i in range(len(shape)) for j in range(shape[i])]
    filling: dict[tuple[int, int], int] = {}

    def fill(t: int):
        if t == len(cells):
            yield dict(filling)
            return
        i, j = cells[t]
        top = m
        if j > 0:
            top = min(top, filling[(i, j - 1)])
        if i > 0:
            top = min(top, filling[(i - 1, j)] - 1)
        for value in range(1, top + 1):
            filling[(i, j)] = value
            yield from fill(t + 1)
        filling.pop((i, j), None)

    yield from fill(0)


def shifted_schur(shape: tuple[int, ...], x) -> Fraction:
    """s*_shape evaluated at the point x (one coordinate per variable)."""
    x = [Fraction(v) for v in x]
    total = Fraction(0)
    for filling in _reverse_tableaux(shape, len(x)):
        total += prod((x[v - 1] - (j - i) for (i, j), v in filling.items()), start=Fraction(1))
    return total


def immanant_eigenvalue(shape: tuple[int, ...], weights) -> Fraction:
    """Expected highest-weight eigenvalue of the quantum immanant of the shape."""
    return Fraction(factorial(sum(shape)), dimension(shape)) * shifted_schur(shape, weights)
