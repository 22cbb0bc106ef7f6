"""Independent oracles the tests check the library against.

Everything here recomputes expected values by a different route than the
code under test: hook products instead of enumeration, hook-content
products instead of place-operator traces, semistandard fillings counted
one by one instead of the hook-content product, border-strip recursion
instead of traces, one-step rewriting instead of the closed contraction
formula, floating point instead of exact rationals, Leibniz determinants instead of
PBW bookkeeping, a ratio of determinants instead of a trace over U(gl(m)),
Weyl products of the x and D entries instead of the image of a U(gl(m))
product or of a normal-ordered symbol, the trace of the whole tensor with
every output of the product formed instead of its trace support and its
diagonal outputs, whole products compared instead of one weight-mu
column of the place operator, PBW straightening and the symbol map instead
of the right action of each factor on symbols, a trace over every key of
U(gl(m)) tensors instead of one key per S_m-orbit of symbols, a sum over
all of S_m instead of over the injections of each monomial's values, all m^2
generators of gl(m) tried for centrality instead of the 2(m-1) Chevalley
generators, sums of explicit
place-permutation tensors instead of the int place operator, plain
rationals instead of a coefficient algebra of sparse elements, and a
bubble-sort word in adjacent transpositions instead of the descent
recursion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import capelli.identities as identities
from capelli.enveloping import (
    EnvelopingAlgebra,
    SymbolAlgebra,
    SymbolElement,
    UglElement,
    generator_order,
    symbol,
)
from capelli.exact import as_exact
from capelli.permutations import Permutation
from capelli.tableaux import (
    Partition,
    character_element,
    enumerate_standard_tableaux,
    psi,
)
from capelli.tensors import (
    TensorElement,
    _place_operator,
    full_trace,
    right_mul_group_algebra,
    tensor_matmul,
    tensor_product,
)
from capelli.weyl import WeylAlgebra, WeylElement, WeylMonomial


def hook_count(parts: tuple[int, ...]) -> int:
    """Number of standard tableaux by the hook length formula."""
    if not parts:
        return 1
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0])]
    product = 1
    for i, row in enumerate(parts):
        for j in range(row):
            product *= (row - j) + (cols[j] - i) - 1
    return math.factorial(sum(parts)) // product


def gl_dimension(parts: tuple[int, ...], m: int) -> int:
    """dim V_mu(gl(m)) by the hook-content formula: the product over the
    cells (i, j) of (m + j - i) / hook(i, j); zero when mu has more than m
    rows, since the cell (m + 1, 1) has content -m."""
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    numerator = denominator = 1
    for i, row in enumerate(parts):
        for j in range(row):
            numerator *= m + j - i
            denominator *= (row - j) + (cols[j] - i) - 1
    return numerator // denominator


def ssyt_count(parts: tuple[int, ...], m: int) -> int:
    """Number of semistandard fillings of the shape with entries 1..m, rows
    weakly and columns strictly increasing, by trying every filling."""
    cells = [(i, j) for i, row in enumerate(parts) for j in range(row)]
    count = 0
    for values in itertools.product(range(1, m + 1), repeat=len(cells)):
        filling = dict(zip(cells, values))
        count += all(
            (j == 0 or filling[i, j - 1] <= v) and (i == 0 or filling[i - 1, j] < v)
            for (i, j), v in filling.items()
        )
    return count


def mn_character(parts: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """Character value by the border-strip (Murnaghan-Nakayama) recursion,
    computed on first-column hook lengths (beta numbers)."""
    if sum(parts) != sum(cycle_type):
        raise ValueError("size mismatch")
    length = max(len(parts), 1)
    betas = frozenset(
        (parts[i] if i < len(parts) else 0) + (length - 1 - i) for i in range(length)
    )

    def rec(betas: frozenset, remaining: tuple[int, ...]) -> int:
        if not remaining:
            return 1
        strip = remaining[0]
        total = 0
        for b in betas:
            nb = b - strip
            if nb >= 0 and nb not in betas:
                height = sum(1 for x in betas if nb < x < b)
                total += (-1) ** height * rec(betas - {b} | {nb}, remaining[1:])
        return total

    return rec(betas, tuple(cycle_type))


def naive_weyl_product(u: WeylElement, v: WeylElement) -> WeylElement:
    """Product by one-step rewriting D x -> x D + 1 on generator words."""
    m, n = u.m, u.n
    size = m * n
    cache: dict[tuple, dict[tuple, int]] = {}

    def word_of(mono: WeylMonomial) -> tuple:
        letters = []
        for s, e in enumerate(mono.alpha):
            letters.extend([("x", s)] * e)
        for s, e in enumerate(mono.beta):
            letters.extend([("d", s)] * e)
        return tuple(letters)

    def normalize(word: tuple) -> dict[tuple, int]:
        if word in cache:
            return cache[word]
        spot = next(
            (
                i
                for i in range(len(word) - 1)
                if word[i][0] == "d" and word[i + 1][0] == "x"
            ),
            None,
        )
        if spot is None:
            result = {word: 1}
        else:
            i = spot
            swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
            result = dict(normalize(swapped))
            if word[i][1] == word[i + 1][1]:
                for w, c in normalize(word[:i] + word[i + 2 :]).items():
                    result[w] = result.get(w, 0) + c
        cache[word] = result
        return result

    terms: dict[WeylMonomial, Fraction] = {}
    for mono_u, cu in u.items():
        for mono_v, cv in v.items():
            for word, c in normalize(word_of(mono_u) + word_of(mono_v)).items():
                alpha = [0] * size
                beta = [0] * size
                for letter, s in word:
                    if letter == "x":
                        alpha[s] += 1
                    else:
                        beta[s] += 1
                mono = WeylMonomial(tuple(alpha), tuple(beta))
                terms[mono] = terms.get(mono, Fraction(0)) + cu * cv * c
    return WeylElement(m, n, terms)


@dataclass(frozen=True)
class RationalAlgebra:
    """The exact rationals as a coefficient algebra."""

    def zero(self):
        return 0

    def one(self):
        return 1

    def scaled_sum(self, pairs):
        return as_exact(sum(c * v for c, v in pairs))


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


def shifted_weyl(contents: tuple[int, ...], m: int, n: int) -> TensorElement:
    """(E - c_1) (x) ... (x) (E - c_k) built in the Weyl algebra itself: each
    entry E[a,b] = sum_i x[a,i] D[b,i] is multiplied out from the x and D
    operators, and the factors are multiplied there, not mapped from U(gl(m))."""
    w = WeylAlgebra(m, n)
    span = range(1, m + 1)
    factors = []
    for c in contents:
        rows = [
            [
                w.scaled_sum([(1, w.x(a, i) * w.d(b, i)) for i in range(1, n + 1)])
                - (c * w.one() if a == b else w.zero())
                for b in span
            ]
            for a in span
        ]
        factors.append(TensorElement.matrix(w, rows))
    return tensor_product(factors)


def xd_weyl(k: int, m: int, n: int) -> TensorElement:
    """X^(x k) . (D')^(x k) formed in the Weyl algebra itself: the k-fold
    tensor powers of the x and transposed D matrices, contracted over the
    shared n-index with ``tensor_matmul``, not read off symbols."""
    w = WeylAlgebra(m, n)
    X = TensorElement.matrix(w, [[w.x(a, i) for i in range(1, n + 1)] for a in range(1, m + 1)])
    Dt = TensorElement.matrix(w, [[w.d(b, i) for b in range(1, m + 1)] for i in range(1, n + 1)])
    return tensor_matmul(tensor_product([X] * k), tensor_product([Dt] * k))


def symbol_image(u: TensorElement) -> TensorElement:
    """A tensor over U(gl(m)) mapped entrywise to symbols in C[e_ab]."""
    terms = {key: symbol(c) for key, c in u.items()}
    return TensorElement._raw((SymbolAlgebra(u.algebra.m), u.k, u.p, u.q), terms)


def shifted_factors(m: int, contents: tuple[int, ...]) -> list[TensorElement]:
    """The factors E - c_t of (E - c_1) (x) ... (x) (E - c_k), E the m x m
    matrix of generators E[a,b] of U(gl(m))."""
    algebra, span = EnvelopingAlgebra(m), range(1, m + 1)
    E = TensorElement.matrix(algebra, [[algebra.gen(a, b) for b in span] for a in span])
    eye = TensorElement.identity(algebra, 1, m)
    return [E - c * eye for c in contents]


def ugl_shifted_symbols(T, m: int) -> TensorElement:
    """The symbols of (E - c_T(1)) (x) ... (x) (E - c_T(k)) on the keys
    whose cols are those at which the place operator of Psi(T,T) has a
    nonzero row: the whole product built over U(gl(m)) with
    ``tensor_product``, whose products straighten PBW words, restricted to
    those keys and mapped entry by entry with ``symbol``, not built in
    C[e_ab] by the right action of each factor. The theorem reads its keys
    off each pair's own operator instead; by the matrix units both supports
    are equal, which the comparison with ``_shifted_product`` checks."""
    k = T.size
    contents = tuple(T.content(r) for r in range(1, k + 1))
    _, place = _place_operator(psi(T, T), k, m)
    whole = tensor_product(shifted_factors(m, contents))
    restricted = {(rows, cols): c for (rows, cols), c in whole.items() if place[cols]}
    return symbol_image(TensorElement._raw(whole._space, restricted))


def whole_theorem_reports(shape: Partition, m: int, ns) -> dict:
    """The theorem's reports for every ordered tableau pair of the shape and
    each n of ``ns``, from the whole products: both sides times D Psi(T,T'),
    D the lcm of Psi's denominators, formed on every column by
    ``_lhs_symbols`` and ``_rhs_symbols`` (looked up at call time, so a
    patched side is used), compared whole, and reported by
    ``_theorem_report``; no single column decides."""
    tableaux = enumerate_standard_tableaux(shape)
    reports = {n: [] for n in ns}
    for T in tableaux:
        for T2 in tableaux:
            g = psi(T, T2)
            g = math.lcm(*(c.denominator for _, c in g.items())) * g
            lhs, rhs = identities._lhs_symbols(T, g, m), identities._rhs_symbols(g, m)
            for n in ns:
                case = f"theorem shape={shape} T={T} T'={T2} m={m} n={n}"
                report = identities._theorem_report(case, lhs, rhs, n, 0.0)
                reports[n].append(report)
    return reports


def traced_immanant(shape: Partition, T, m: int) -> UglElement:
    """The quantum immanant traced from the whole tensor: every entry of
    (E - c_1) (x) ... (x) (E - c_k) over U(gl(m)) is built with
    ``tensor_product``, whose products straighten PBW words, multiplied by
    Psi(T,T), and then traced, with no symbol and no relabelling of 1..m."""
    contents = tuple(T.content(r) for r in range(1, shape.size + 1))
    shifted = tensor_product(shifted_factors(m, contents))
    return full_trace(right_mul_group_algebra(shifted, psi(T, T)))


def traced_xd(shape: Partition, m: int) -> SymbolElement:
    """The corollary's right side before the 1/dim mu, traced from the whole
    tensor: every entry of [e_ab]^(x k) over C[e_ab] is built with
    ``tensor_product``, multiplied by the character of the shape with every
    output formed, and then traced."""
    algebra = SymbolAlgebra(m)
    span = range(1, m + 1)
    e = TensorElement.matrix(algebra, [[algebra.var(a, b) for b in span] for a in span])
    whole = tensor_product([e] * shape.size)
    return full_trace(right_mul_group_algebra(whole, character_element(shape)))


def relabelling_average(f: SymbolElement) -> SymbolElement:
    """(1/m!) sum over every s in S_m of f relabelled by e_ab -> e_s(a)s(b),
    each relabelled monomial formed as a product of variables."""
    m, algebra = f.m, SymbolAlgebra(f.m)
    order, total = generator_order(m), algebra.zero()
    for s in itertools.permutations(range(1, m + 1)):
        for word, c in f.items():
            term = algebra.one()
            for g in word:
                a, b = order[g]
                term = term * algebra.var(s[a - 1], s[b - 1])
            total = total + c * term
    return Fraction(1, math.factorial(m)) * total


def full_scan_centrality(u: UglElement) -> tuple:
    """The first generator E[a,b] of ``generator_order`` that u does not
    commute with, and the commutator u E[a,b] - E[a,b] u, trying all m^2
    generators; (None, None) when u is central."""
    algebra = EnvelopingAlgebra(u.m)
    for a, b in generator_order(u.m):
        g = algebra.gen(a, b)
        delta = u * g - g * u
        if delta:
            return (a, b), delta
    return None, None


def adjacent_word(p: Permutation) -> list[int]:
    """Factor p into adjacent transpositions: p = s_w[0] . s_w[1] . ...

    Bubble sort of the one-line notation; right-multiplying by each swap
    reaches the identity, so the reversed swap list is a factorization.
    """
    a = list(p.images)
    swaps: list[int] = []
    changed = True
    while changed:
        changed = False
        for i in range(len(a) - 1):
            if a[i] > a[i + 1]:
                a[i], a[i + 1] = a[i + 1], a[i]
                swaps.append(i + 1)
                changed = True
    swaps.reverse()
    return swaps


def orthonormal_matrix(shape: Partition, s: Permutation) -> list[list[float]]:
    """Floating-point model of the orthonormal representation: generator
    cross coefficients are both sqrt(1 - 1/d^2)."""
    tableaux = enumerate_standard_tableaux(shape)
    index = {t: i for i, t in enumerate(tableaux)}
    d = len(tableaux)

    def generator(r: int) -> list[list[float]]:
        mat = [[0.0] * d for _ in range(d)]
        for t, T in enumerate(tableaux):
            i1, j1 = T.position(r)
            i2, j2 = T.position(r + 1)
            if i1 == i2:
                mat[t][t] += 1.0
            elif j1 == j2:
                mat[t][t] -= 1.0
            else:
                dist = (j2 - i2) - (j1 - i1)
                mat[t][t] += 1.0 / dist
                other = index[T.swap_entries(r, r + 1)]
                mat[other][t] += math.sqrt(1.0 - 1.0 / dist**2)
        return mat

    out = [[float(i == j) for j in range(d)] for i in range(d)]
    for r in adjacent_word(s):
        gen = generator(r)
        out = [
            [sum(out[i][t] * gen[t][j] for t in range(d)) for j in range(d)]
            for i in range(d)
        ]
    return out


def orthonormal_psi(T, T2) -> dict[Permutation, float]:
    """Floating-point matrix element sum(rep(s)[T2,T] s^-1)."""
    shape = T.shape
    tableaux = enumerate_standard_tableaux(shape)
    t, t2 = tableaux.index(T), tableaux.index(T2)
    out = {}
    for images in itertools.permutations(range(1, shape.size + 1)):
        s = Permutation(images)
        out[s.inverse()] = orthonormal_matrix(shape, s)[t2][t]
    return out


def minor_determinant(m: int, n: int, r: int) -> WeylElement:
    """Leibniz expansion of the leading r x r minor of the coordinate matrix."""
    algebra = WeylAlgebra(m, n)
    out = algebra.zero()
    for images in itertools.permutations(range(1, r + 1)):
        term = Permutation(images).sign() * algebra.one()
        for a, i in enumerate(images, start=1):
            term = term * algebra.x(a, i)
        out = out + term
    return out


def highest_weight_polynomial(m: int, weights) -> WeylElement:
    """Product of leading minors with exponents given by weight differences."""
    weights = list(weights) + [0]
    f = WeylElement.one(m, m)
    for r in range(1, m + 1):
        f = f * (minor_determinant(m, m, r) ** (weights[r - 1] - weights[r]))
    return f


def _falling(y: Fraction, r: int) -> Fraction:
    out = Fraction(1)
    for t in range(r):
        out *= y - t
    return out


def _leibniz(matrix: list[list[Fraction]]) -> Fraction:
    total = Fraction(0)
    size = len(matrix)
    for images in itertools.permutations(range(size)):
        inversions = sum(
            1 for i in range(size) for j in range(i + 1, size) if images[i] > images[j]
        )
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in enumerate(images):
            term *= matrix[row][col]
        total += term
    return total


def shifted_schur(parts: tuple[int, ...], x) -> Fraction:
    """s*_mu(x_1..x_m) as the ratio of determinants

        det[(y_i | mu_j + m - j)] / det[(y_i | m - j)],   y_i = x_i + m - i,

    with (y | r) = y (y-1) ... (y-r+1) (Okounkov-Olshanski, *Shifted Schur
    functions*, 1997, Theorem 1.1); zero when mu has more than m rows. The
    points y_i must be distinct."""
    m = len(x)
    if len(parts) > m:
        return Fraction(0)
    mu = list(parts) + [0] * (m - len(parts))
    y = [Fraction(v) + m - i for i, v in enumerate(x, start=1)]
    denominator = _leibniz([[_falling(yi, m - j) for j in range(1, m + 1)] for yi in y])
    if not denominator:
        raise ValueError(f"shifted coordinates are not distinct: {y}")
    numerator = _leibniz(
        [[_falling(yi, mu[j - 1] + m - j) for j in range(1, m + 1)] for yi in y]
    )
    return numerator / denominator


def exact_rank(vectors: list[list[Fraction]]) -> int:
    """Rank over the rationals by fraction-free Gaussian elimination."""
    rows = [list(map(Fraction, v)) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / head
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def cdet(matrix: list[list], zero):
    """Column determinant of a square matrix over a noncommutative algebra,
    from its definition sum_s sgn(s) A[s(1),1] A[s(2),2] ... A[s(k),k]: the
    factors of each term are taken column by column, left to right."""
    size = len(matrix)
    total = zero
    for images in itertools.permutations(range(size)):
        inversions = sum(
            1 for i in range(size) for j in range(i + 1, size) if images[i] > images[j]
        )
        term = matrix[images[0]][0]
        for col in range(1, size):
            term = term * matrix[images[col]][col]
        total = total - term if inversions % 2 else total + term
    return total
