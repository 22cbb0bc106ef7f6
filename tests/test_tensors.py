import itertools
import random
from fractions import Fraction
from functools import reduce
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from capelli import tensors
from capelli.enveloping import EnvelopingAlgebra
from capelli.permutations import (
    GroupAlgebraElement,
    Permutation,
    all_permutations,
    compose,
    ga_multiply,
)
from capelli.tableaux import (
    Partition,
    all_partitions,
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
from capelli.weyl import WeylAlgebra
from oracles import RationalAlgebra, gl_dimension, hook_count, perm_tensor
from test_exact import assert_canonical

Q = RationalAlgebra()


def random_scalar_tensor(rng, k, m):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        rows = tuple(rng.randint(1, m) for _ in range(k))
        cols = tuple(rng.randint(1, m) for _ in range(k))
        terms[(rows, cols)] = Fraction(rng.randint(-3, 3))
    return TensorElement(Q, k, m, m, terms)


def test_tensor_product_orders_coefficients():
    w = WeylAlgebra(1, 1)
    X = TensorElement.matrix(w, [[w.x(1, 1)]])
    D = TensorElement.matrix(w, [[w.d(1, 1)]])
    product = tensor_product([X, D])
    entry = product.coefficient((1, 1), (1, 1))
    assert entry == w.x(1, 1) * w.d(1, 1)
    assert entry != w.d(1, 1) * w.x(1, 1)


def test_tensor_product_of_identities():
    eye = TensorElement.identity(Q, 1, 2)
    assert tensor_product([eye, eye, eye]) == TensorElement.identity(Q, 3, 2)


def test_tensor_product_then_matmul_normal_orders():
    w = WeylAlgebra(1, 1)
    X = TensorElement.matrix(w, [[w.x(1, 1)]])
    D = TensorElement.matrix(w, [[w.d(1, 1)]])
    lhs = tensor_matmul(tensor_product([X, X]), tensor_product([D, D]))
    x, d = w.x(1, 1), w.d(1, 1)
    assert lhs.coefficient((1, 1), (1, 1)) == x * x * d * d


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tensor_product_entrywise_with_zero_entries(k):
    # each entry is the left-to-right product of the factor entries; a zero
    # entry anywhere kills the multi-index
    W = WeylAlgebra(2, 2)
    rng = random.Random(k)
    gens = [W.x(1, 1), W.d(1, 1), W.x(2, 1), W.d(2, 2), W.zero(), W.zero()]
    drawn = [
        [[rng.choice(gens) + rng.choice(gens) for _ in range(3)] for _ in range(2)]
        for _ in range(k)
    ]
    drawn[0][0][0] = W.zero()  # at least one zero entry, whatever the draw
    factors = [TensorElement.matrix(W, rows) for rows in drawn]
    product = tensor_product(factors)
    keys = [
        (rows, cols)
        for rows in itertools.product((1, 2), repeat=k)
        for cols in itertools.product((1, 2, 3), repeat=k)
    ]
    expected = {}
    for rows, cols in keys:
        entries = [f.coefficient((a,), (i,)) for f, a, i in zip(factors, rows, cols)]
        value = reduce(lambda acc, e: acc * e, entries)
        if value:
            expected[(rows, cols)] = value
    assert product == TensorElement(W, k, 2, 3, expected)
    assert_canonical(product)


def test_tensor_product_dimension_mismatch():
    with pytest.raises(ValueError):
        tensor_product([TensorElement.identity(Q, 1, 2), TensorElement.identity(Q, 1, 3)])


def test_matmul_identity():
    rng = random.Random(5)
    u = random_scalar_tensor(rng, 3, 2)
    eye = TensorElement.identity(Q, 3, 2)
    assert tensor_matmul(eye, u) == u
    assert tensor_matmul(u, eye) == u


def test_matmul_k1_is_matrix_product():
    w = WeylAlgebra(1, 1)
    X = TensorElement.matrix(w, [[w.x(1, 1)]])
    D = TensorElement.matrix(w, [[w.d(1, 1)]])
    product = tensor_matmul(tensor_product([X]), tensor_product([D]))
    assert product.coefficient((1,), (1,)) == w.x(1, 1) * w.d(1, 1)


def test_matmul_expansion_m1_n2():
    w = WeylAlgebra(1, 2)
    X = TensorElement.matrix(w, [[w.x(1, 1), w.x(1, 2)]])
    Dt = TensorElement.matrix(w, [[w.d(1, 1)], [w.d(1, 2)]])
    product = tensor_matmul(tensor_product([X, X]), tensor_product([Dt, Dt]))
    expected = w.zero()
    for i in (1, 2):
        for j in (1, 2):
            expected = expected + w.x(1, i) * w.x(1, j) * w.d(1, i) * w.d(1, j)
    assert product.coefficient((1, 1), (1, 1)) == expected
    assert len(product) == 1


def test_matmul_inner_dimension_mismatch():
    u = TensorElement.identity(Q, 2, 2)
    v = TensorElement.identity(Q, 2, 3)
    with pytest.raises(ValueError):
        tensor_matmul(u, v)


def test_matmul_associative_scalar():
    rng = random.Random(11)
    for _ in range(25):
        u = random_scalar_tensor(rng, 2, 2)
        v = random_scalar_tensor(rng, 2, 2)
        w = random_scalar_tensor(rng, 2, 2)
        assert tensor_matmul(tensor_matmul(u, v), w) == tensor_matmul(
            u, tensor_matmul(v, w)
        )


def test_perm_tensor_swap():
    swap = perm_tensor(Permutation.parse("(1 2)"), 2)
    for a1 in (1, 2):
        for a2 in (1, 2):
            assert swap.coefficient((a1, a2), (a2, a1)) == 1
    assert len(swap) == 4


def test_perm_tensor_identity():
    assert perm_tensor(Permutation.identity(3), 2) == TensorElement.identity(Q, 3, 2)


def test_perm_tensor_transposition_product():
    s12 = Permutation.parse("(1 2)", 3)
    s23 = Permutation.parse("(2 3)", 3)
    lhs = tensor_matmul(perm_tensor(s12, 2), perm_tensor(s23, 2))
    assert lhs == perm_tensor(Permutation.parse("(1 2 3)"), 2)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_perm_tensor_homomorphism_exhaustive(k):
    group = list(all_permutations(k))
    images = {s: perm_tensor(s, 2) for s in group}
    for s in group:
        for t in group:
            assert tensor_matmul(images[s], images[t]) == images[compose(s, t)]


def test_right_mul_by_identity_element():
    rng = random.Random(23)
    u = random_scalar_tensor(rng, 3, 2)
    assert right_mul_group_algebra(u, GroupAlgebraElement.one(3)) == u


def test_right_mul_collapses_when_m_is_1():
    rng = random.Random(29)
    u = random_scalar_tensor(rng, 3, 1)
    g = GroupAlgebraElement(
        3,
        {
            Permutation.parse("(1 2 3)"): Fraction(2),
            Permutation.parse("(1 2)", 3): Fraction(1, 2),
        },
    )
    total = sum(c for _, c in g.items())
    assert right_mul_group_algebra(u, g) == total * u


def test_right_mul_e_tensor_e():
    w = WeylAlgebra(1, 1)
    e_entry = w.x(1, 1) * w.d(1, 1)
    E = TensorElement.matrix(w, [[e_entry]])
    u = tensor_product([E, E])
    g = GroupAlgebraElement.one(2) + GroupAlgebraElement.from_permutation(
        Permutation.parse("(1 2)")
    )
    result = right_mul_group_algebra(u, g)
    expected = 2 * (e_entry * e_entry)
    assert result.coefficient((1, 1), (1, 1)) == expected


def _perm_tensor_sum(u, g):
    expected = TensorElement(u.algebra, u.k, u.p, u.q)
    for s, c in g.items():
        expected = expected + c * tensor_matmul(u, perm_tensor(s, u.p, u.algebra))
    return expected


def test_right_mul_matches_explicit_perm_tensor_sum():
    rng = random.Random(31)
    u = random_scalar_tensor(rng, 3, 2)
    g = GroupAlgebraElement(
        3,
        {
            Permutation.parse("(1 3)", 3): Fraction(1, 3),
            Permutation.parse("(1 2 3)"): Fraction(-2),
        },
    )
    assert right_mul_group_algebra(u, g) == _perm_tensor_sum(u, g)


ALGEBRAS = {
    "rational": RationalAlgebra(),
    "weyl": WeylAlgebra(1, 2),
    "ugl": EnvelopingAlgebra(2),
}
# denominators 2, 3, 4, 5: the LCM over g is often neither their product nor their maximum
GROUP_COEFFS = st.sampled_from(
    [Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5), Fraction(-3, 4), -1, 2]
)


def _algebra_value(algebra, draw):
    # a sum of a few products of generators with small rational scalars
    if isinstance(algebra, RationalAlgebra):
        return draw(st.fractions(-3, 3, max_denominator=3))
    if isinstance(algebra, WeylAlgebra):
        gens = [algebra.x(1, 1), algebra.x(1, 2), algebra.d(1, 1), algebra.d(1, 2)]
    else:
        gens = [algebra.gen(a, b) for a in (1, 2) for b in (1, 2)]
    value = algebra.zero()
    for _ in range(draw(st.integers(1, 2))):
        word = draw(st.lists(st.sampled_from(gens), max_size=2))
        term = draw(st.fractions(-2, 2, max_denominator=3)) * algebra.one()
        for gen in word:
            term = term * gen
        value = value + term
    return value


def _group_element(draw, k):
    perms = st.permutations(range(1, k + 1)).map(Permutation)
    return GroupAlgebraElement(k, draw(st.dictionaries(perms, GROUP_COEFFS, max_size=4)))


@st.composite
def right_mul_cases(draw, kind):
    algebra = ALGEBRAS[kind]
    k, m = draw(st.integers(1, 3)), 2
    index = st.tuples(*[st.integers(1, m)] * k)
    keys = draw(st.lists(st.tuples(index, index), min_size=1, max_size=4, unique=True))
    u = TensorElement(algebra, k, m, m, {key: _algebra_value(algebra, draw) for key in keys})
    return u, _group_element(draw, k)


@pytest.mark.parametrize("kind", sorted(ALGEBRAS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_right_mul_exact_against_perm_tensor_sum(kind, data):
    u, g = data.draw(right_mul_cases(kind))
    result = right_mul_group_algebra(u, g)
    assert result == _perm_tensor_sum(u, g)
    assert_canonical(result)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_right_mul_is_a_right_action(data):
    # u . (a b) = (u . a) . b, with a b taken by ga_multiply
    u, a = data.draw(right_mul_cases("rational"))
    b = _group_element(data.draw, u.k)
    assert right_mul_group_algebra(right_mul_group_algebra(u, a), b) == right_mul_group_algebra(
        u, ga_multiply(a, b)
    )


@pytest.mark.parametrize("keyset", ["subset", "diagonal", "empty", "unreached", "columns"])
@pytest.mark.parametrize("kind", sorted(ALGEBRAS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_right_mul_on_keys_is_the_product_restricted_to_them(kind, keyset, data):
    u, g = data.draw(right_mul_cases(kind))
    # 1/6 plus a coefficient from GROUP_COEFFS is never 0 or an integer, so
    # D > 1 and the division by D runs on the kept keys
    s = data.draw(st.permutations(range(1, u.k + 1)).map(Permutation))
    g = g + Fraction(1, 6) * GroupAlgebraElement.from_permutation(s)
    full = right_mul_group_algebra(u, g)
    indices = list(itertools.product(range(1, u.p + 1), repeat=u.k))
    every = list(itertools.product(indices, repeat=2))
    if keyset == "subset":
        keys = data.draw(st.sets(st.sampled_from(every)))
    elif keyset == "diagonal":
        keys = {(rows, rows) for rows in indices}
    elif keyset == "empty":
        keys = set()
    elif keyset == "unreached":
        keys = set(every) - set(full.support())
    else:
        # one output column: every key whose cols it is
        column = data.draw(st.sampled_from(indices))
        keys = {(rows, column) for rows in indices}
    result = right_mul_group_algebra(u, g, keys)
    kept = {key: c for key, c in full.items() if key in keys}
    assert result == TensorElement(u.algebra, u.k, u.p, u.q, kept)
    assert_canonical(result)


def test_right_mul_on_keys_reads_the_place_operator_only_at_the_cols_of_u(monkeypatch):
    # given keys, P is read at each col of u once and never whole, for a
    # column of the theorem as for the diagonal of a trace
    reads = []

    class Rows(dict):
        def __getitem__(self, cols):
            reads.append(cols)
            return super().__getitem__(cols)

        def items(self):
            raise AssertionError("the whole place operator was read")

    place_operator = tensors._place_operator

    def recording(g, m):
        denom, place = place_operator(g, m)
        return denom, Rows(place)

    monkeypatch.setattr(tensors, "_place_operator", recording)
    T, T2 = enumerate_standard_tableaux(Partition([2, 1]))
    g = psi(T, T2) + Fraction(1, 6) * GroupAlgebraElement.from_permutation(Permutation([2, 1, 3]))
    rng = random.Random(3)
    u = random_scalar_tensor(rng, 3, 2) + random_scalar_tensor(rng, 3, 2)
    # two entries of u share their cols
    u = u + TensorElement(Q, 3, 2, 2, {((2, 2, 1), (1, 1, 2)): 1, ((1, 2, 1), (1, 1, 2)): 2})
    full = _perm_tensor_sum(u, g)
    indices = list(itertools.product(range(1, 3), repeat=3))
    keysets = [{(rows, column) for rows in indices} for column in indices]
    keysets.append({(rows, rows) for rows in indices})
    for keys in keysets:
        reads.clear()
        result = right_mul_group_algebra(u, g, keys)
        assert sorted(reads) == sorted({cols for _, cols in u.support()})
        assert result == TensorElement(Q, 3, 2, 2, {k: c for k, c in full.items() if k in keys})


def operator_columns(g, m, news):
    # the columns P[.][new] of the place operator, as dense int vectors
    _, place = _place_operator(g, m)
    return [[dict(place[cols]).get(new, 0) for cols in sorted(place)] for new in news]


@pytest.mark.parametrize("kind", sorted(ALGEBRAS))
def test_right_mul_denominator_edge_cases(kind):
    algebra = ALGEBRAS[kind]
    u = TensorElement(
        algebra,
        3,
        2,
        2,
        {((1, 2, 1), (2, 1, 1)): algebra.one(), ((2, 2, 1), (1, 1, 2)): 3 * algebra.one()},
    )
    cycle, swap = Permutation.parse("(1 2 3)"), Permutation.parse("(1 3)", 3)
    cases = [
        {Permutation.identity(3): Fraction(1, 2), cycle: Fraction(1, 3), swap: Fraction(-1, 5)},
        {cycle: Fraction(-1, 3)},
        {swap: -2},
    ]
    for terms in cases:
        g = GroupAlgebraElement(3, terms)
        result = right_mul_group_algebra(u, g)
        assert result == _perm_tensor_sum(u, g)
        assert_canonical(result)
    assert not right_mul_group_algebra(u, GroupAlgebraElement.zero(3))


def test_right_mul_degree_mismatch():
    # g of higher degree than u; the lower one is below
    u = TensorElement.identity(Q, 2, 2)
    with pytest.raises(ValueError, match=r"degree mismatch: 3 vs k=2"):
        right_mul_group_algebra(u, GroupAlgebraElement.one(3))


def test_right_mul_requires_square_factors():
    # place permutations act on (C^m)^(x k) only for square factors
    u = TensorElement(Q, 1, 2, 3, {((1,), (3,)): 1})
    with pytest.raises(ValueError, match="factors must be square to act by place permutations"):
        right_mul_group_algebra(u, GroupAlgebraElement.one(1))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_place_operator_of_psi_against_schur_weyl(k, m):
    # Schur-Weyl duality: Psi(T,T) acts on (C^m)^(x k) with trace
    # (k!/dim mu) dim V_mu(gl(m)), and as 0 exactly when mu has more than m rows
    for shape in all_partitions(k):
        scale = Fraction(factorial(k), hook_count(shape.parts))
        for T in enumerate_standard_tableaux(shape):
            out = right_mul_group_algebra(TensorElement.identity(Q, k, m), psi(T, T))
            assert (not out) == (len(shape.parts) > m), (T, m)
            assert full_trace(out) == scale * gl_dimension(shape.parts, m), (T, m)


def _nonzero_rows(g, m):
    _, place = _place_operator(g, m)
    return {cols for cols, row in place.items() if row}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_place_operator_rows_of_psi_lie_in_those_of_the_diagonal_psi(k, m):
    # Psi(T,T') = (dim mu / k!) Psi(T,T) Psi(T,T') and right multiplication
    # is a right action, so a column that Psi(T,T) kills, every Psi(T,T')
    # kills, and by Psi(T,T) = (dim mu / k!) Psi(T,T') Psi(T',T) the
    # converse: the theorem's left side, built on the columns of each
    # pair's own operator, is one tensor per tableau
    for shape in all_partitions(k):
        tableaux = enumerate_standard_tableaux(shape)
        for T in tableaux:
            rows = _nonzero_rows(psi(T, T), m)
            assert (not rows) == (len(shape.parts) > m), (T, m)
            for T2 in tableaux:
                assert _nonzero_rows(psi(T, T2), m) == rows, (T, T2, m)


def _antisymmetrizer(k):
    return GroupAlgebraElement(k, {s: s.sign() for s in all_permutations(k)})


@pytest.mark.parametrize("k,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3)])
def test_trace_support_is_exact(k, m):
    # the keys that reach a trace are read off the place operator: P[cols][rows]
    # != 0 exactly when the unit tensor at (rows, cols) has a nonzero traced
    # product with g
    antisymmetrizer = GroupAlgebraElement(k, {s: s.sign() for s in all_permutations(k)})
    # it acts as 0 on (C^m)^(x k) exactly when k > m
    _, place = _place_operator(antisymmetrizer, m)
    assert (not any(place.values())) == (k > m)
    elements = [antisymmetrizer]
    for shape in all_partitions(k):
        elements.append(character_element(shape))
        tableaux = enumerate_standard_tableaux(shape)
        elements.extend(psi(T, T2) for T in tableaux for T2 in tableaux)
    indices = list(itertools.product(range(1, m + 1), repeat=k))
    for g in elements:
        _, place = _place_operator(g, m)
        assert set(place) == set(indices)
        assert all(new in place for row in place.values() for new, _ in row)
        for rows, cols in itertools.product(indices, repeat=2):
            unit = TensorElement(Q, k, m, m, {(rows, cols): 1})
            traced = full_trace(right_mul_group_algebra(unit, g))
            assert (rows in dict(place[cols])) == (traced != 0), (g, rows, cols)


def test_trace_support_degree_mismatch():
    # the place operator takes its degree from g; the one check that it
    # matches the tensor's is where the two meet
    with pytest.raises(ValueError, match=r"degree mismatch: 2 vs k=3"):
        right_mul_group_algebra(TensorElement.identity(Q, 3, 2), GroupAlgebraElement.one(2))


def test_full_trace_examples():
    assert full_trace(perm_tensor(Permutation.parse("(1 2)"), 2)) == 2
    for k, m in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        assert full_trace(TensorElement.identity(Q, k, m)) == m**k


def test_full_trace_of_commutator_difference():
    w = WeylAlgebra(2, 2)
    from capelli.identities import build_E

    E = build_E(2, 2)
    eye = TensorElement.identity(w, 1, 2)
    e_tensor_1 = tensor_product([E, eye])
    one_tensor_e = tensor_product([eye, E])
    assert full_trace(e_tensor_1 - one_tensor_e) == w.zero()


def test_full_trace_requires_square_factors():
    w = WeylAlgebra(1, 2)
    X = TensorElement.matrix(w, [[w.x(1, 1), w.x(1, 2)]])
    with pytest.raises(ValueError, match="trace needs square factors"):
        full_trace(tensor_product([X]))


def test_trace_invariant_under_permutation_conjugation():
    rng = random.Random(37)
    for s in all_permutations(3):
        u = random_scalar_tensor(rng, 3, 2)
        conj = tensor_matmul(
            tensor_matmul(perm_tensor(s, 2), u), perm_tensor(s.inverse(), 2)
        )
        assert full_trace(conj) == full_trace(u)


def test_mixed_product_identity_scalar_case():
    # (A (x) B) (C (x) D) = AC (x) BD for commuting (scalar) entries
    rng = random.Random(41)

    def random_matrix():
        return TensorElement.matrix(
            Q, [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        )

    for _ in range(20):
        A, B, C, D = (random_matrix() for _ in range(4))
        lhs = tensor_matmul(tensor_product([A, B]), tensor_product([C, D]))
        rhs = tensor_product([tensor_matmul(A, C), tensor_matmul(B, D)])
        assert lhs == rhs


def test_transpose_and_matmul():
    w = WeylAlgebra(2, 1)
    D = TensorElement.matrix(w, [[w.d(1, 1)], [w.d(2, 1)]])
    Dt = D.transpose()
    assert (Dt.p, Dt.q) == (1, 2)
    assert Dt.coefficient((1,), (2,)) == w.d(2, 1)


def test_matrix_needs_nonempty_rectangle():
    for rows in ([], [[]], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="nonempty rectangle"):
            TensorElement.matrix(Q, rows)


def test_tensor_product_of_tensors_adds_k_and_transposes_factorwise():
    # a k-fold factor stands for its k matrices: the product is associative,
    # and transposing it transposes every factor in place
    w = WeylAlgebra(2, 2)
    rng = random.Random(43)
    gens = [w.x(1, 1), w.d(1, 2), w.x(2, 2), w.d(2, 1), w.zero()]
    A, B, C = (
        TensorElement.matrix(w, [[rng.choice(gens) for _ in range(3)] for _ in range(2)])
        for _ in range(3)
    )
    AB = tensor_product([A, B])
    assert tensor_product([AB, C]).k == 3
    assert tensor_product([AB, C]) == tensor_product([A, B, C])
    assert tensor_product([A, tensor_product([B, C])]) == tensor_product([A, B, C])
    assert AB.transpose() == tensor_product([A.transpose(), B.transpose()])
    assert (AB.transpose().p, AB.transpose().q) == (3, 2)


def test_debug_print_lists_entries_lexicographically():
    u = TensorElement(
        Q, 2, 2, 2, {((2, 1), (1, 1)): Fraction(1), ((1, 1), (1, 2)): Fraction(3)}
    )
    lines = str(u).splitlines()
    assert lines[0] == "((1, 1),(1, 2)): 3"
    assert lines[1] == "((2, 1),(1, 1)): 1"
