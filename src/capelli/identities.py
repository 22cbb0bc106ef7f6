"""Both sides of the higher Capelli identities, their proof steps, and the
quantum immanants, verified term by term in exact arithmetic.

For a standard tableau T with contents c_T(1..k), the tensor identity says

    (E - c_T(1)) (x) ... (x) (E - c_T(k)) . Psi(T,T')
        = X^(x k) . (D')^(x k) . Psi(T,T')

over the Weyl algebra of an m x n grid, and tracing both sides over all
matrix factors gives the scalar (higher Capelli) identity with the
character in place of Psi.
The traced left side, computed over U(gl(m)) instead, is the quantum
immanant of the shape.

Both sides are computed as normal-ordered symbols in C[e_ab], free of n
(see ``capelli.enveloping``): every entry is GL(n)-invariant, so its symbol
is a polynomial in e[a,b] = sum_i x[a,i] xi[b,i]. The right side
X^(x k) . (D')^(x k) is already normal ordered, and its entry (rows, cols)
is the monomial prod_t e[rows_t, cols_t], the entry of [e_ab]^(x k). That
tensor is built whole (``_xd_product``) only for a failing pair and for
``rhs_theorem``; a passing pair forms the right side times Psi at one
column straight from the place operator (below). The left side is built
straight in C[e_ab], one factor at a time, by the right action of
E[a,b] - c delta_ab on the symbol of each prefix (``_built``, stepping by
``enveloping._times_generator``, the rule ``symbol`` uses per PBW word), so
the theorem never straightens a PBW word. Both are multiplied by Psi over
symbols, and the two symbol tensors are compared once.

The comparison is made at one output column of P, the int place operator
of D Psi(T,T') (D below). Write Delta = (L - R) . P, L and R the two
sides. Both are GL(m)-invariant: E = sum E_ab (x) e_ab is, each factor of
L acts by it, and the normal-ordered symbol of R commutes with a linear
change of the x's and the dual change of the xi's; P commutes with GL(m)
(Schur-Weyl duality). So Delta(h v) = h Delta(v) for h in GL(m), with h
acting on C[e_ab] too. Delta kills ker P, and im P is V_mu(gl(m)),
irreducible: if Delta also kills one e_new with P e_new != 0, the module
GL(m) e_new spans is mapped by P onto im P, so Delta = 0. The mu-weight
space of V_mu is not 0 and P keeps weights, so such a new exists among
the weight-mu cols, the rearrangements of 1^mu_1 2^mu_2 ...; the least is
taken. ``_certified_column`` reads P once for it, for its column
v = {cols: P[cols][new]} and for the pair's count. Column new of L . P is
L . v, which reads L only at the cols of v: the left side is formed there
alone. Column new of R . P is R . v, summed from v with no [e_ab]^(x k)
(``_rhs_symbols``), and ev_n, linear entrywise, keeps the verdict. A pair
whose sides agree at new takes that count, read off P, at every n, with
no whole product and no ev_n formed; a pair that differs there has both
whole products formed, so a failing report is that of the whole
products.

The one column decides only under two conditions, its trust boundary.
L is invariant because of how it is built, each step the right action of
the invariant matrix E - c; a left tensor corrupted only away from the
weight-mu cols would not be seen, so the builder's own oracles compare
whole tensors. And im P must be V_mu: ``tableaux._certified`` proves, once
per shape, that the seminormal generators give V_mu of S_k, so every
Psi(T,T') is rank one in the mu-block of C[S_k] and 0 in the others, or
raises ``ArithmeticError``; ``_certified_column`` only guards that P is
nonzero at weight mu. The descent recursion from the generators to Psi
and the place-operator builder are covered by tier-1 alone; Psi is checked
there against the dense product of the generators along a word of each s,
at every pair of k <= 5 and at seeded s of shapes 3,2,1 and 4,2,1.

The left side is built only on the keys whose cols the product reads: the
cols at which P (``tensors._place_operator``) has a nonzero row, and on
the one-column path the cols of v, those whose row of P meets new. An
entry at any other col adds nothing, so this is exact for any group
algebra element. For a multiple of Psi(T,T') the cols of v are all the
weight-mu cols with a nonzero row: the mu-weight space of im P = V_mu is
a line, so P is rank one on it. That support keys the
``_shifted_product`` memo, and the matrix units make it one entry per
tableau T for every T': Psi(T,T') = (dim mu / k!) Psi(T,T) Psi(T,T') and
Psi(T,T) = (dim mu / k!) Psi(T,T') Psi(T',T), and right multiplication is
a right action, so each place operator is the other times another and
both have the same nonzero rows. For a shape of more than m rows every
operator is 0 (Schur-Weyl): both sides are 0, and no Psi, operator or side
is built. Both sides are linear in Psi, so the verify path
multiplies both by the least integral multiple D Psi(T,T'), D the lcm of
Psi's denominators: the product never divides, and symbols, comparisons and
ev_n images stay in ints. D != 0 changes no verdict, no term count and no
``first_diff``, which names a key and a monomial, not a coefficient.
``lhs_theorem`` and ``rhs_theorem`` multiply by Psi itself.

Every operator is ev_n of its symbol, so equal symbols give equal
operators at every n. For n >= m the evaluation ev_n into the Weyl algebra
is injective, so that comparison is the verdict; the term counts are those
of the Weyl images, and a failing report names a monomial of ev_n of the
first differing entry. For n < m ev_n kills the (n+1)-minors: equal
symbols have equal images, and a passing count is of the entries whose
image is nonzero; different symbols have both whole Weyl images compared
entry by entry, which is also exact; reducing modulo the minors is not
done here. ``lhs_theorem`` and ``rhs_theorem`` return the Weyl images.

``_theorem_reports`` and ``_corollary_reports`` take a sequence of n:
they build a (shape, m)'s n-free symbols once and report every n from
them. ``verify_theorem`` and ``verify_corollary`` call them with one n,
``sweep`` with 1..max_n; no case is skipped. Only the corollary maps by
ev_n on a passing sweep, from one evaluator cache for the whole sweep.
The shared work is timed into the report at the first n. Scaling
by a Fraction (the division by the common denominator of Psi in
``lhs_theorem``/``rhs_theorem``, 1/dim mu, the proof steps' constants)
goes through ``SparseElement.__rmul__``, and an integral result is stored
as an int by ``SparseElement._store``.

A trace multiplies only the entries that reach it, one per S_m-orbit, and
forms only the outputs it keeps: trace(u . g) needs u only at the keys
(rows, cols) with P[cols][rows] != 0, P the int place operator of g, and
the product only at the diagonal keys (rows, rows). A relabelling of the
values 1..m maps each entry of both traced tensors to its relabelled
symbol and leaves the place operator unchanged, so ``_traced`` builds, in
C[e_ab] with the left side's prefix builder ``_built``, one key per orbit
read off the place operator's rows at the growth strings
(``_representatives``), passes the diagonal to
``right_mul_group_algebra``, weights each diagonal output by its orbit's
size and sums the trace over the relabellings, each monomial over the
injections of its own values (``_symmetrized``).
Both traces go through it: the quantum immanant's symbol
from the right action of the factors E - c_t (``_immanant_symbol``),
read back into U(gl(m)) by ``enveloping._pbw``, and the corollary's right
side from k copies of [e_ab], mapped by ev_n at each n. The corollary's
left side is ev_n of the quantum immanant's symbol, with no PBW form in
between: the map, the product by Psi and the trace are all linear, and
the Weyl tensor is the entrywise image of the symbol one. A left symbol
equal to the right one takes the right side's image.

Every report whose verdict is lhs == rhs is built by ``_report``; a failing
one names what ``describe(lhs, rhs)`` returns.
"""

from __future__ import annotations

import itertools
import time
from collections import namedtuple
from fractions import Fraction
from functools import cache, lru_cache, partial
from math import factorial, lcm, perm

from .enveloping import (
    SymbolAlgebra,
    SymbolElement,
    UglElement,
    _evaluator,
    _generator_index,
    _pbw,
    _times_generator,
    ev_n,
    generator_order,
)
from .permutations import GroupAlgebraElement, embed, ga_multiply, jm_element
from .tableaux import (
    Partition,
    StandardTableau,
    _certified,
    all_partitions,
    character_element,
    dimension,
    enumerate_standard_tableaux,
    psi,
)
from .tensors import (
    TensorElement,
    _place_operator,
    full_trace,
    right_mul_group_algebra,
    tensor_matmul,
    tensor_product,
)
from .weyl import WeylAlgebra, WeylElement

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


class VerificationReport(
    namedtuple("VerificationReport", "case outcome lhs_terms rhs_terms first_diff millis")
):
    """One verified case: canonical-form comparison of two tensor elements.
    ``case`` names it, ``outcome`` is a bool, ``lhs_terms`` and
    ``rhs_terms`` count the terms of the two sides, ``first_diff`` says
    where they first differ (None when they agree) and ``millis`` is the
    time taken."""

    __slots__ = ()

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


def _weyl_image(u: TensorElement, n: int, ev=None) -> TensorElement:
    """A symbol tensor mapped entrywise into the m x n Weyl algebra by ev_n
    (``ev``, or a fresh ``_evaluator``); entries whose image is 0 are
    dropped, which happens only for n < m. The keys are u's, valid already."""
    ev = ev or _evaluator(u.algebra.m, n)
    terms = {key: image for key, c in u.items() if (image := ev(c))}
    return TensorElement._raw((WeylAlgebra(u.algebra.m, n), u.k, u.p, u.q), terms)


def build_E(m: int, n: int) -> TensorElement:
    """The m x m matrix X . D' with entry (a,b) = sum_i x[a,i] D[b,i]."""
    return tensor_matmul(build_X(m, n), build_D(m, n).transpose())


@lru_cache(maxsize=None)
def _shifted_product(T: StandardTableau, m: int, support: frozenset) -> TensorElement:
    """The symbol tensor of (E - c_T(1)) (x) ... (x) (E - c_T(k)), cached
    per tableau and column support and free of n, on the keys whose cols
    lie in ``support`` only (see the module docstring). Built straight in
    C[e_ab] by ``_built``: an entry's symbol times E[a,b] - c delta_ab is
    ``_times_generator``."""
    every = list(itertools.product(range(1, m + 1), repeat=T.size))
    keys = [(rows, cols) for cols in sorted(support) for rows in every]
    steps = [partial(_times_generator, shift=c) for c in _contents(T)]
    u = _built(m, steps, keys)
    # each entry was built with its own word tuples; the cached tensor
    # keeps one tuple per distinct word
    words: dict[tuple[int, ...], tuple[int, ...]] = {}
    terms = {
        key: SymbolElement._raw((m,), {words.setdefault(w, w): c for w, c in f.items()})
        for key, f in u.items()
    }
    return TensorElement._raw(u._space, terms)


@lru_cache(maxsize=None)
def _xd_product(k: int, m: int) -> TensorElement:
    """The symbol tensor of X^(x k) . (D')^(x k), cached per (k, m): that
    product is normal ordered, so its entry (rows, cols) has the symbol
    prod_t e[rows_t, cols_t], the entry of [e_ab]^(x k). Built, with all
    m^(2k) entries, only for a whole right side: a failing pair's and
    ``rhs_theorem``'s."""
    algebra, span = SymbolAlgebra(m), range(1, m + 1)
    e = TensorElement.matrix(algebra, [[algebra.var(a, b) for b in span] for a in span])
    return tensor_product([e] * k)


def _built(m: int, steps, keys) -> TensorElement:
    """The entries at ``keys`` of F_1 (x) ... (x) F_k over C[e_ab], for m x m
    matrices F_t of symbols whose entry (a, b) acts on the right of an
    entry symbol f as ``steps[t-1](f, a, b)``; entries that are 0 are left
    out. Built level by level on the prefixes of the keys only: level t
    maps each prefix (rows[:t], cols[:t]) to its nonzero symbol, one step
    from its parent, so a prefix shared by many keys is stepped once. Each
    level's prefixes are cut from the next level's, so each key is cut
    once."""
    prefixes = [keys]
    for _ in steps[1:]:
        prefixes.append({(rows[:-1], cols[:-1]) for rows, cols in prefixes[-1]})
    level = {((), ()): SymbolElement.one(m)}
    for step, wanted in zip(steps, reversed(prefixes)):
        level = {
            (rows, cols): entry
            for rows, cols in wanted
            if (f := level.get((rows[:-1], cols[:-1])))
            and (entry := step(f, rows[-1], cols[-1]))
        }
    return TensorElement._raw((SymbolAlgebra(m), len(steps), m, m), level)


def _traced(g: GroupAlgebraElement, m: int, steps) -> SymbolElement:
    """trace((F_1 (x) ... (x) F_k) . g) in C[e_ab], for m x m matrices F_t of
    symbols whose entry (a, b) acts on the right of an entry symbol f as
    ``steps[t-1](f, a, b)``, on one key per S_m-orbit of the keys where the
    place operator P of g is nonzero.

    A relabelling s of the values 1..m maps entry (rows, cols) of the
    tensor to its image under e_ab -> e_s(a)s(b), since the steps (the
    right action of E[a,b] - c delta_ab, or the product by e_ab) commute
    with s, and leaves P unchanged: P[s cols][s rows] = P[cols][rows]. So
    the trace is (1/m!) sum_s s(Y) (``_symmetrized``), Y the trace over the
    representative keys (``_representatives``), each weighted by its orbit
    size. P[cols][rows] != 0 only if rows rearranges cols, so a relabelling
    that fixes cols fixes the key, and relabelling the values of cols in
    order of first occurrence, to the growth string of cols, is the key's
    unique canonical form. Its orbit has (m)_d keys, d = max(cols) =
    max(rows) its number of distinct values. ``_built`` builds the tensor
    on the representatives' prefixes only. The product by g forms the
    diagonal outputs (rows, rows) only, each then weighted by its orbit
    size."""
    reps = _representatives(g, m)
    u = _built(m, steps, reps)
    diagonal = right_mul_group_algebra(u, g, {(rows, rows) for rows, _ in reps})
    weighted = {key: perm(m, max(key[0])) * f for key, f in diagonal.items()}
    return _symmetrized(full_trace(diagonal._raw(diagonal._space, weighted)))


def _representatives(g: GroupAlgebraElement, m: int) -> list:
    """The keys (rows, cols) with P[cols][rows] != 0, P the place operator
    of g, whose cols is a growth string: one per S_m-orbit (see
    ``_traced``). P is read only at those cols."""
    _, place = _place_operator(g, m)
    return [(rows, cols) for cols in _growth_strings(g.degree, m) for rows, _ in place[cols]]


def _growth_strings(k: int, m: int) -> list[tuple[int, ...]]:
    """One multi-index in 1..m per set partition of the positions 1..k into
    at most m blocks, the positions where it repeats a value: the
    restricted growth strings, whose values first occur in increasing
    order."""
    strings = [()]
    for _ in range(k):
        strings = [s + (b,) for s in strings for b in range(1, min(max(s, default=0) + 1, m) + 1)]
    return strings


def _symmetrized(f: SymbolElement) -> SymbolElement:
    """(1/m!) sum over s in S_m of f relabelled by e_ab -> e_s(a)s(b), each
    monomial over its own values: if w uses v of the values 1..m, sum_s s(w)
    is (m - v)! times the sum of its images under the (m)_v injections of
    those values into 1..m. The monomials are first relabelled onto 0..v-1
    in order, which leaves that sum unchanged, and grouped by v."""
    m, order, index = f.m, generator_order(f.m), _generator_index(f.m)
    groups: dict[int, dict[tuple[int, ...], int | Fraction]] = {}
    for word, c in f.items():
        pairs = [order[g] for g in word]
        values = sorted({v for pair in pairs for v in pair})
        v, rank = len(values), {value: i for i, value in enumerate(values)}
        # letter (a, b) on the values 0..v-1 as a * v + b
        canonical = tuple(sorted(rank[a] * v + rank[b] for a, b in pairs))
        group = groups.setdefault(v, {})
        group[canonical] = group.get(canonical, 0) + c * factorial(m - v)
    terms: dict[tuple[int, ...], int | Fraction] = {}
    for v, group in groups.items():
        for image in itertools.permutations(range(1, m + 1), v):
            letter = [index[a, b] for a in image for b in image]
            for canonical, c in group.items():
                key = tuple(sorted([letter[x] for x in canonical]))
                terms[key] = terms.get(key, 0) + c
    total = SymbolElement._raw((m,), {word: c for word, c in terms.items() if c})
    return Fraction(1, factorial(m)) * total


def _times_variable(f: SymbolElement, a: int, b: int) -> SymbolElement:
    """f e_ab: the step of [e_ab], whose k-fold tensor power has the entry
    prod_t e[rows_t, cols_t]."""
    return f * SymbolAlgebra(f.m).var(a, b)


def _immanant_symbol(T: StandardTableau, m: int) -> SymbolElement:
    """The symbol of the quantum immanant: the trace of
    (E - c_T(1)) (x) ... (x) (E - c_T(k)) . Psi(T,T), each factor entry
    acting on symbols by ``_times_generator``."""
    steps = [partial(_times_generator, shift=c) for c in _contents(T)]
    return _traced(psi(T, T), m, steps)


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


def _lhs_symbols(
    T: StandardTableau, g: GroupAlgebraElement, m: int, column=None
) -> TensorElement:
    """The symbols of the left side times g, at the output col new only if
    ``column``, the (new, v, count) of ``_certified_column``, is given. The
    left side is built only at the cols the product reads: those where the
    place operator P of g has a nonzero row or, given ``column``, the cols
    of v, those with P[cols][new] != 0."""
    if column is None:
        _, place = _place_operator(g, m)
        u = _shifted_product(T, m, frozenset(cols for cols, row in place.items() if row))
        return right_mul_group_algebra(u, g)
    new, v, _ = column
    u = _shifted_product(T, m, frozenset(v))
    return right_mul_group_algebra(u, g, {(rows, new) for rows, _ in u._terms})


def _rhs_symbols(g: GroupAlgebraElement, m: int, column=None) -> TensorElement:
    """The symbols of the right side R = [e_ab]^(x k) times g, at the output
    col new only if ``column``, the (new, v, count) of ``_certified_column``,
    is given. The whole product multiplies R (``_xd_product``). One column
    is summed from v = {cols: P[cols][new]}, (D, P) the place operator of
    g: its entry (rows, new) is (1/D) sum_cols v[cols] prod_t e[rows_t,
    cols_t], so R is never formed."""
    k = g.degree
    if column is None:
        return right_mul_group_algebra(_xd_product(k, m), g)
    denom, _ = _place_operator(g, m)
    new, v, _ = column
    index, terms = _generator_index(m), {}
    for rows in itertools.product(range(1, m + 1), repeat=k):
        entry: dict[tuple[int, ...], int] = {}
        for cols, scale in v.items():
            word = tuple(sorted([index[a, b] for a, b in zip(rows, cols)]))
            entry[word] = entry.get(word, 0) + scale
        if entry := {word: c for word, c in entry.items() if c}:
            terms[rows, new] = SymbolElement._raw((m,), entry)
    u = TensorElement._raw((SymbolAlgebra(m), k, m, m), terms)
    return u if denom == 1 else Fraction(1, denom) * u


def _certified_column(shape: Partition, g: GroupAlgebraElement, m: int):
    """(new, v, count) from one pass over the place operator P of g, a
    nonzero multiple of some Psi(T,T') of a shape of at most m rows: new
    is the least output col of weight mu, a rearrangement of
    1^mu_1 2^mu_2 ..., at which P has a nonzero column, v = {cols:
    P[cols][new]} is that column, and count is the number of nonzero
    entries of the right side times g. Raises ``ArithmeticError`` when P is
    0 at weight mu, as is every operator for a shape of more than m rows.
    im P = V_mu, which makes that column decide, is proved for every
    Psi(T,T') of the shape by ``tableaux._certified``, not here: this guard
    is necessary, not sufficient, and the symmetrizer (shape 4) passes it
    as the operator of T = [[1,2,3],[4]] at m = 3. P[cols][new] != 0 only
    when cols rearranges new, so v lies in the weight-mu rows.

    The count is that of R . P with R = [e_ab]^(x k), at every n >= l for
    a shape of l rows (it is 0 below): (nonzero rows of P) x (nonzero
    columns of P). Entry (rows, new) of R . P is sum_cols P[cols][new]
    prod_t e[rows_t, cols_t], the image of e_rows (x) P e_new in the
    symmetric power C[e_ab]_k = ((C^m)^(x k) (x) (C^m)^(x k))_{S_k}, which
    is the sum of the irreducible S_lambda(C^m) (x) S_lambda(C^m) over
    lambda with at most m rows (Howe). The mu-block of C[S_k] is End(S^mu),
    and Psi(T,T') is rank one in it, so the entry lies in the component of
    mu and is a (x) b, where a != 0 exactly when row ``rows`` of P is
    nonzero and b != 0 exactly when column ``new`` is. ev_n is
    GL(m) x GL(m)-equivariant and its kernel is the sum of the components
    with more than n rows, the ideal of the (n+1)-minors (De
    Concini-Eisenbud-Procesi), so on that component it is injective for
    n >= l and 0 below."""
    word = sorted(b for b, part in enumerate(shape.parts, 1) for _ in range(part))
    _, place = _place_operator(g, m)
    rows, news, weight_mu = 0, set(), {}
    for cols, row in place.items():
        if row:
            rows += 1
            news.update(new for new, _ in row)
            if sorted(cols) == word:
                weight_mu[cols] = row
    if not weight_mu:
        raise ArithmeticError(f"the place operator of shape {shape} at m={m} is 0 at weight mu")
    new = min(new for row in weight_mu.values() for new, _ in row)
    v = {cols: scale for cols, row in weight_mu.items() for n, scale in row if n == new}
    return new, v, rows * len(news)


def lhs_theorem(
    T: StandardTableau, T2: StandardTableau, m: int, n: int
) -> TensorElement:
    """(E - c_T(1)) (x) ... (x) (E - c_T(k)) . Psi(T,T2) over the Weyl algebra."""
    return _weyl_image(_lhs_symbols(T, psi(T, T2), m), n)


def rhs_theorem(
    T: StandardTableau, T2: StandardTableau, m: int, n: int
) -> TensorElement:
    """X^(x k) . (D')^(x k) . Psi(T,T2) over the Weyl algebra."""
    return _weyl_image(_rhs_symbols(psi(T, T2), m), n)


def _first_monomial(delta: WeylElement) -> str:
    return delta._format_key(delta.support()[0]) or "1"


def _first_entry(n: int, lhs: TensorElement, rhs: TensorElement) -> str:
    """The theorem's ``describe``: the first key, in sorted order, where two
    tensors differ and the leading Weyl monomial of the difference of their
    entries there; a symbol entry is mapped by ev_n first. Only that one
    entry's difference is formed, not the whole tensor difference."""
    a, b, zero = lhs._terms, rhs._terms, lhs.algebra.zero()
    key = min(key for key in a.keys() | b.keys() if a.get(key, zero) != b.get(key, zero))
    entry = a.get(key, zero) - b.get(key, zero)
    if isinstance(entry, SymbolElement):
        entry = ev_n(entry, n)
    return f"at {key}: lhs != rhs first monomial {_first_monomial(entry)}"


def _trace_differs(lhs: WeylElement, rhs: WeylElement) -> str:
    return f"trace differs, first monomial {_first_monomial(lhs - rhs)}"


def _first_term(lhs: GroupAlgebraElement, rhs: GroupAlgebraElement) -> str:
    return f"first term {(lhs - rhs).support()[0]}"


def _report(case: str, lhs, rhs, start: float, describe) -> VerificationReport:
    """The report of the check lhs == rhs, timed from ``start``; a failure
    is described by ``describe(lhs, rhs)``."""
    outcome = lhs == rhs
    return VerificationReport(
        case=case,
        outcome=outcome,
        lhs_terms=len(lhs),
        rhs_terms=len(rhs),
        first_diff=None if outcome else describe(lhs, rhs),
        millis=(time.perf_counter() - start) * 1000.0,
    )


def _theorem_report(
    case: str, lhs: TensorElement, rhs: TensorElement, n: int, start: float
) -> VerificationReport:
    """The theorem's report at n for the whole symbol tensors of both
    sides. For n >= m ev_n is injective, so the symbols are reported as
    they are; for n < m both are mapped by one ev_n, which may identify
    different symbols."""
    if n < (m := lhs.algebra.m):
        ev = _evaluator(m, n)
        lhs, rhs = _weyl_image(lhs, n, ev), _weyl_image(rhs, n, ev)
    return _report(case, lhs, rhs, start, partial(_first_entry, n))


def _theorem_reports(
    shape: Partition, m: int, ns, pairs=None
) -> dict[int, list[VerificationReport]]:
    """The theorem's reports for each n of ``ns``, from one n-free
    comparison per tableau pair (every ordered pair of the shape if
    ``pairs`` is None). A pair's symbol work is charged to its report at
    the first n."""
    if pairs is None:
        tableaux = enumerate_standard_tableaux(shape)
        pairs = [(T, T2) for T in tableaux for T2 in tableaux]
    # im P = V_mu for every pair of the shape, and P = 0 for more than m rows
    _certified(shape.parts)
    reports = {n: [] for n in ns}
    for T, T2 in pairs:
        start = time.perf_counter()
        count = 0
        if len(shape) <= m:
            # D Psi, D the lcm of Psi's denominators, has int coefficients
            g = psi(T, T2)
            g = lcm(*(c.denominator for _, c in g.items())) * g
            # both sides are GL(m)-invariant tensors times the same P, whose
            # image is the irreducible V_mu, so they agree exactly when they
            # agree at one weight-mu column of P. One read of P gives that
            # column and a passing pair's count; a failing pair gets both
            # whole products, for the counts and first_diff of the whole
            # comparison
            column = _certified_column(shape, g, m)
            if _lhs_symbols(T, g, m, column) == _rhs_symbols(g, m, column):
                count = column[2]
            else:
                count, lhs, rhs = None, _lhs_symbols(T, g, m), _rhs_symbols(g, m)
        for n in ns:
            case = f"theorem shape={shape} T={T} T'={T2} m={m} n={n}"
            if count is None:
                report = _theorem_report(case, lhs, rhs, n, start)
            else:
                terms = count if n >= len(shape) else 0
                millis = (time.perf_counter() - start) * 1000.0
                report = VerificationReport(case, True, terms, terms, None, millis)
            reports[n].append(report)
            start = time.perf_counter()
    return reports


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
    pairs = None
    if tableau is not None:
        pair = (tableau, tableau2 if tableau2 is not None else tableau)
        for T in pair:
            if T.shape != shape:
                raise ValueError(f"tableau {T} is not of shape {shape}")
        pairs = [pair]
    return _theorem_reports(shape, m, (n,), pairs)[n]


def _corollary_reports(
    shape: Partition, m: int, ns, evaluator
) -> dict[int, list[VerificationReport]]:
    """The corollary's reports for each n of ``ns``, from the n-free symbols
    of its right side and of each tableau's quantum immanant; a left side
    whose symbol equals the right side's takes the right side's Weyl image.
    The right side's work is charged to the first report at the first n,
    each immanant to its tableau's report there."""
    tableaux = enumerate_standard_tableaux(shape)
    start = time.perf_counter()
    traced = _traced(character_element(shape), m, [_times_variable] * shape.size)
    rhs = Fraction(1, dimension(shape)) * traced
    rhs_images = {}
    reports = {n: [] for n in ns}
    traces = {n: [] for n in ns}
    for T in tableaux:
        lhs = _immanant_symbol(T, m)
        same = lhs == rhs
        for n in ns:
            ev = evaluator(m, n)
            if n not in rhs_images:
                rhs_images[n] = ev(rhs)
            image = rhs_images[n] if same else ev(lhs)
            traces[n].append(image)
            case = f"corollary shape={shape} T={T} m={m} n={n}"
            reports[n].append(_report(case, image, rhs_images[n], start, _trace_differs))
            start = time.perf_counter()
    for n in ns:
        start = time.perf_counter()
        images = traces[n]
        same = all(t == images[0] for t in images)
        reports[n].append(
            VerificationReport(
                case=f"corollary-T-independence shape={shape} m={m} n={n}",
                outcome=same,
                lhs_terms=len(images[0]),
                rhs_terms=len(images[-1]),
                first_diff=None if same else "traced left side depends on the tableau",
                millis=(time.perf_counter() - start) * 1000.0,
            )
        )
    return reports


def verify_corollary(shape: Partition, m: int, n: int) -> list[VerificationReport]:
    """Check the traced identity for every tableau of the shape, plus the
    tableau-independence of the traced left side."""
    _check_case(shape, m, n)
    return _corollary_reports(shape, m, (n,), cache(_evaluator))[n]


def verify_proof_steps(shape: Partition) -> list[VerificationReport]:
    """Check, for every ordered tableau pair of the shape, the branching
    identity Psi(T,T') = (dim mu / (k-1)!) Psi(U,U) Psi(T,T') and the
    annihilation ((1k)+...+(k-1,k) - c_T(k)) . Psi(T,T') = 0."""
    k = shape.size
    if k < 2:
        raise ValueError("proof steps need at least two cells")
    tableaux = enumerate_standard_tableaux(shape)
    zero = GroupAlgebraElement.zero(k)
    reports = []
    for T in tableaux:
        U = T.remove_largest()
        const = Fraction(dimension(U.shape), factorial(k - 1))
        psi_uu = embed(psi(U, U), k)
        jm = jm_element(k, k) - Fraction(T.content(k)) * GroupAlgebraElement.one(k)
        for T2 in tableaux:
            target = psi(T, T2)
            case = f"shape={shape} T={T} T'={T2}"
            start = time.perf_counter()
            branched = const * ga_multiply(psi_uu, target)
            reports.append(_report(f"branching {case}", target, branched, start, _first_term))
            start = time.perf_counter()
            killed = ga_multiply(jm, target)
            reports.append(_report(f"jm-annihilation {case}", killed, zero, start, _first_term))
    return reports


def sweep(max_k: int, max_m: int, max_n: int) -> list[VerificationReport]:
    """Run theorem, corollary, and proof-step checks over the whole grid."""
    for name, bound in (("max_k", max_k), ("max_m", max_m), ("max_n", max_n)):
        if bound < 1:
            raise ValueError(f"{name} must be at least 1, got {bound}")
    # one ev_n per (m, n) for the whole sweep's corollary, so each word
    # image is expanded once; the n-free symbols of a (shape, m) serve
    # every n
    evaluator = cache(_evaluator)
    ns = range(1, max_n + 1)
    reports = []
    for k in range(1, max_k + 1):
        for shape in all_partitions(k):
            if k >= 2:
                reports.extend(verify_proof_steps(shape))
            for m in range(1, max_m + 1):
                theorem = _theorem_reports(shape, m, ns)
                corollary = _corollary_reports(shape, m, ns, evaluator)
                for n in ns:
                    reports.extend(theorem[n])
                    reports.extend(corollary[n])
    return reports


def quantum_immanant(shape: Partition, T: StandardTableau, m: int) -> UglElement:
    """The traced left side computed over U(gl(m)): a central element that
    depends only on the shape."""
    _check_case(shape, m)
    if T.shape != shape:
        raise ValueError(f"tableau shape {T.shape} != {shape}")
    return _pbw(_immanant_symbol(T, m))
