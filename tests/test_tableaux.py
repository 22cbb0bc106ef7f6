import gc
import itertools
import random
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, strategies as st

from capelli.permutations import GroupAlgebraElement, Permutation, all_permutations, compose
from capelli.tableaux import (
    Partition,
    RepMatrix,
    StandardTableau,
    _certified,
    _enumerate_cached,
    _generator_columns,
    _psi_cached,
    _seminormal_cached,
    all_partitions,
    character_element,
    dimension,
    enumerate_standard_tableaux,
    psi,
    seminormal_matrix,
)
from oracles import (
    adjacent_word,
    gl_dimension,
    hook_count,
    mn_character,
    orthonormal_psi,
    ssyt_count,
)


def part(text):
    return Partition.parse(text)


def tab(text):
    return StandardTableau.parse(text)


@st.composite
def partition_strategy(draw, max_size=6):
    k = draw(st.integers(min_value=1, max_value=max_size))
    parts = []
    while k > 0:
        bound = min(k, parts[-1] if parts else k)
        p = draw(st.integers(min_value=1, max_value=bound))
        parts.append(p)
        k -= p
    return Partition(parts)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])


@pytest.mark.parametrize(
    "make", [Permutation, Partition, lambda row: StandardTableau([row])],
    ids=["Permutation", "Partition", "StandardTableau"],
)
@pytest.mark.parametrize("bad", [1.5, True, "1", Fraction(1)])
def test_entries_must_be_ints(make, bad):
    # one shared check: no silent int() of a float, bool or string entry
    with pytest.raises(ValueError, match="expected an integer"):
        make([bad])


def test_partition_parse_print_round_trip():
    assert str(part("3,2,2,1")) == "3,2,2,1"
    assert part("3,2,2,1").parts == (3, 2, 2, 1)


def test_tableau_validation():
    with pytest.raises(ValueError):
        StandardTableau([[1, 3], [2, 2]])
    with pytest.raises(ValueError):
        StandardTableau([[2, 1], [3]])
    with pytest.raises(ValueError):
        StandardTableau([[1, 2], [4]])
    with pytest.raises(ValueError):
        StandardTableau([[1, 4], [2], [3, 5]])


def test_tableau_parse_print_round_trip():
    text = "[[1,2,5],[3,4]]"
    assert str(tab(text)) == text


def test_enumerate_examples():
    assert enumerate_standard_tableaux(Partition([])) == [StandardTableau([])]
    assert len(enumerate_standard_tableaux(part("1,1,1"))) == 1
    two = enumerate_standard_tableaux(part("2,1"))
    assert [str(t) for t in two] == ["[[1,2],[3]]", "[[1,3],[2]]"]
    assert len(enumerate_standard_tableaux(part("2,2"))) == 2


def test_first_enumeration_leaves_no_reference_cycle():
    # a shape's first enumeration, and every listing of partitions, must be
    # freed by reference counting alone, without the cyclic collector; the
    # memo's wrapped function enumerates afresh on every call
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        tableaux = _enumerate_cached.__wrapped__((3, 2, 1))
        assert len(tableaux) == 16
        del tableaux
        assert gc.collect() == 0
        shapes = all_partitions(6)
        assert len(shapes) == 11
        del shapes
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@given(shape=partition_strategy())
def test_enumeration_count_matches_hook_formula(shape):
    assert dimension(shape) == hook_count(shape.parts)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_gl_dimension_counts_semistandard_fillings(m):
    # dim V_mu(gl(m)) is the number of semistandard tableaux of shape mu with
    # entries <= m, which is 0 when mu has more than m rows: the hook-content
    # formula of the tests' oracles against a count of fillings
    for k in range(7):
        for shape in all_partitions(k):
            assert gl_dimension(shape.parts, m) == ssyt_count(shape.parts, m), (shape, m)
            assert (gl_dimension(shape.parts, m) == 0) == (len(shape) > m), (shape, m)


@given(shape=partition_strategy(max_size=5))
def test_enumeration_is_sorted_and_standard(shape):
    tableaux = enumerate_standard_tableaux(shape)
    seqs = [tuple(t.position(r) for r in range(1, t.size + 1)) for t in tableaux]
    assert seqs == sorted(seqs)
    assert len(set(tableaux)) == len(tableaux)
    for t in tableaux:
        assert t.shape == shape


def test_content_examples():
    T = tab("[[1,2],[3]]")
    assert T.content(2) == 1
    assert T.content(3) == -1
    for shape in all_partitions(4):
        for other in enumerate_standard_tableaux(shape):
            assert other.content(1) == 0
    with pytest.raises(ValueError):
        T.content(4)


def test_remove_largest():
    assert tab("[[1,2],[3]]").remove_largest() == tab("[[1,2]]")
    assert tab("[[1,3],[2]]").remove_largest() == tab("[[1],[2]]")


def test_seminormal_examples():
    shape = part("2,1")
    swap = seminormal_matrix(shape, Permutation.parse("(1 2)", 3))
    assert swap.entries == ((1, 0), (0, -1))
    assert seminormal_matrix(shape, Permutation.identity(3)) == RepMatrix.identity(shape)
    s23 = seminormal_matrix(shape, Permutation.parse("(2 3)", 3))
    assert s23.entry(0, 0) == Fraction(-1, 2)


def test_seminormal_degree_mismatch():
    with pytest.raises(ValueError):
        seminormal_matrix(part("2,1"), Permutation.identity(4))


def test_adjacent_word_reconstructs():
    for p in all_permutations(4):
        word = adjacent_word(p)
        rebuilt = Permutation.identity(4)
        for r in word:
            rebuilt = compose(rebuilt, Permutation.transposition(r, r + 1, 4))
        assert rebuilt == p


@pytest.mark.parametrize("k", [2, 3, 4])
def test_homomorphism_exhaustive(k):
    group = list(all_permutations(k))
    for shape in all_partitions(k):
        mats = {s: seminormal_matrix(shape, s) for s in group}
        for s in group:
            for t in group:
                assert mats[s] * mats[t] == mats[compose(s, t)]


def test_homomorphism_sampled_degree_5():
    rng = random.Random(20240501)
    group = list(all_permutations(5))
    for shape in all_partitions(5):
        for _ in range(20):
            s, t = rng.choice(group), rng.choice(group)
            assert seminormal_matrix(shape, s) * seminormal_matrix(
                shape, t
            ) == seminormal_matrix(shape, compose(s, t))


def _generator_product(shape, s):
    # the dense product of the certified generators along a word of s, read
    # from their sparse columns and not through the memo of rho(s)
    product, d = RepMatrix.identity(shape), dimension(shape)
    for r in adjacent_word(s):
        columns = _generator_columns(shape.parts, r)
        product = product * RepMatrix(shape, [[c.get(i, 0) for c in columns] for i in range(d)])
    return product


def test_seminormal_matrix_is_the_generator_product_along_a_word():
    # rho(s) is built column by column at the first descent of s^-1; the word
    # of adjacent_word factors s by a bubble sort instead. Every s of S_5 at
    # every shape, and 20 seeded s of S_6 at shape 3,2,1 (dimension 16)
    for shape in all_partitions(5):
        for s in all_permutations(5):
            assert seminormal_matrix(shape, s) == _generator_product(shape, s), (shape, s)
    shape = part("3,2,1")
    for s in random.Random(20261020).sample(list(all_permutations(6)), 20):
        assert seminormal_matrix(shape, s) == _generator_product(shape, s), s


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_psi_is_the_sum_of_generator_products(k):
    # Psi(T,T') = sum of rho(s)[T',T] s^-1 over s, with rho(s) the dense
    # product of the generators along a word of s, for every pair of every
    # shape of k cells
    for shape in all_partitions(k):
        d = dimension(shape)
        rho = {s: _generator_product(shape, s) for s in all_permutations(k)}
        tableaux = enumerate_standard_tableaux(shape)
        for t, t2 in itertools.product(range(d), repeat=2):
            terms = {s.inverse(): m.entry(t2, t) for s, m in rho.items() if m.entry(t2, t)}
            assert psi(tableaux[t], tableaux[t2]) == GroupAlgebraElement(k, terms), (t, t2)


@pytest.mark.parametrize("text,samples,columns", [("3,2,1", 4, 16), ("4,2,1", 2, 2)])
def test_psi_coefficients_are_generator_products_at_k_6_and_7(text, samples, columns):
    # the coefficient of Psi(T,T') at s^-1 is entry (T',T) of the dense
    # generator product of s, for a few seeded s; every pair at 3,2,1, and
    # every T' of two seeded T at 4,2,1 (dimension 35, 5040 permutations)
    shape = part(text)
    k, tableaux = shape.size, enumerate_standard_tableaux(shape)
    rng = random.Random(20261021)
    rows = rng.sample(range(len(tableaux)), columns)
    for s in rng.sample(list(all_permutations(k)), samples):
        product = _generator_product(shape, s)
        for t in rows:
            for t2, T2 in enumerate(tableaux):
                assert psi(tableaux[t], T2).coefficient(s.inverse()) == product.entry(t2, t)


def test_psi_of_one_tableau_builds_only_its_column_of_each_rho():
    # Psi(T, .) reads column T of rho(w^-1) for each w of S_5 and no other
    # column: 5! memo misses for every T' of one T of shape 3,2, and 5!
    # more for a second T
    tableaux = enumerate_standard_tableaux(part("3,2"))
    _psi_cached.cache_clear()
    _seminormal_cached.cache_clear()
    for n, T in enumerate(tableaux[:2], start=1):
        for T2 in tableaux:
            psi(T, T2)
        assert _seminormal_cached.cache_info().misses == n * factorial(5), T


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_generator_relations(k):
    for shape in all_partitions(k):
        eye = RepMatrix.identity(shape)
        gens = [
            seminormal_matrix(shape, Permutation.transposition(r, r + 1, k))
            for r in range(1, k)
        ]
        for g in gens:
            assert g * g == eye
        for r in range(len(gens) - 1):
            a, b = gens[r], gens[r + 1]
            assert a * b * a == b * a * b
        for r in range(len(gens)):
            for q in range(r + 2, len(gens)):
                assert gens[r] * gens[q] == gens[q] * gens[r]


def _matrix_sum(shape, mats):
    entries = [
        [sum(m.entries[i][j] for m in mats) for j in range(mats[0].dim)]
        for i in range(mats[0].dim)
    ]
    return RepMatrix(shape, entries)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_jm_matrices_diagonal_with_contents(k):
    for shape in all_partitions(k):
        tableaux = enumerate_standard_tableaux(shape)
        for r in range(2, k + 1):
            mats = [
                seminormal_matrix(shape, Permutation.transposition(i, r, k))
                for i in range(1, r)
            ]
            jm = _matrix_sum(shape, mats)
            assert jm.is_diagonal()
            for t, T in enumerate(tableaux):
                assert jm.entry(t, t) == T.content(r)


def test_psi_examples():
    e2 = GroupAlgebraElement.one(2)
    swap = GroupAlgebraElement.from_permutation(Permutation.parse("(1 2)"))
    row = tab("[[1,2]]")
    col = tab("[[1],[2]]")
    assert psi(row, row) == e2 + swap
    assert psi(col, col) == e2 - swap

    T1 = tab("[[1,2],[3]]")
    half = Fraction(1, 2)
    expected = GroupAlgebraElement(
        3,
        {
            Permutation.identity(3): Fraction(1),
            Permutation.parse("(1 2)", 3): Fraction(1),
            Permutation.parse("(2 3)", 3): -half,
            Permutation.parse("(1 3)", 3): -half,
            Permutation.parse("(1 2 3)", 3): -half,
            Permutation.parse("(1 3 2)", 3): -half,
        },
    )
    assert psi(T1, T1) == expected


def test_psi_shape_mismatch():
    with pytest.raises(ValueError):
        psi(tab("[[1,2]]"), tab("[[1],[2]]"))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_matrix_unit_behaviour(k):
    for shape in all_partitions(k):
        tableaux = enumerate_standard_tableaux(shape)
        scale = Fraction(dimension(shape), factorial(k))
        for T in tableaux:
            unit = scale * psi(T, T)
            assert unit * unit == unit
        for T in tableaux:
            for T2 in tableaux:
                if T != T2:
                    assert not psi(T, T) * psi(T2, T2)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_diagonal_psi_scales_its_row(k):
    # Psi(T,T) Psi(T,T') = (k!/dim mu) Psi(T,T') for every T' of the shape,
    # checked on multiples free of denominators, so the products run in ints
    def cleared(g):
        return lcm(*(c.denominator for _, c in g.items())) * g

    for shape in all_partitions(k):
        tableaux = enumerate_standard_tableaux(shape)
        scale = Fraction(factorial(k), dimension(shape))
        for T in tableaux:
            diagonal = cleared(psi(T, T))
            # the coefficient of the identity in Psi(T,T) is 1
            d = diagonal.coefficient(Permutation.identity(k))
            for T2 in tableaux:
                g = cleared(psi(T, T2))
                assert diagonal * g == (scale * d) * g, (T, T2)


def test_character_examples():
    sign = character_element(part("1,1"))
    assert sign.coefficient(Permutation.parse("(1 2)")) == -1
    chi = character_element(part("2,1"))
    assert chi.coefficient(Permutation.identity(3)) == 2
    assert chi.coefficient(Permutation.parse("(1 2 3)")) == mn_character((2, 1), (3,))
    assert chi.coefficient(Permutation.parse("(1 2 3)")) == -1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_characters_match_murnaghan_nakayama(k):
    for shape in all_partitions(k):
        chi = character_element(shape)
        for s in all_permutations(k):
            value = chi.coefficient(s)
            assert value.denominator == 1 if isinstance(value, Fraction) else True
            assert value == mn_character(shape.parts, s.cycle_type())


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_character_identity_coefficients_square_to_factorial(k):
    total = sum(
        character_element(shape).coefficient(Permutation.identity(k)) ** 2
        for shape in all_partitions(k)
    )
    assert total == factorial(k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_orthonormal_model_proportional_to_exact(k):
    for shape in all_partitions(k):
        tableaux = enumerate_standard_tableaux(shape)
        for T in tableaux:
            for T2 in tableaux:
                exact = psi(T, T2)
                approx = orthonormal_psi(T, T2)
                ratios = [
                    approx[s] / float(c) for s, c in exact.items() if float(c)
                ]
                assert ratios
                base = ratios[0]
                assert all(abs(r - base) <= 1e-9 * abs(base) for r in ratios)
                support = set(exact.support())
                for s, value in approx.items():
                    if s not in support:
                        assert abs(value) < 1e-9


def test_every_shape_of_at_most_7_cells_is_certified():
    # the seminormal generators of each shape present S_k and have the
    # contents of the tableaux as their Jucys-Murphy eigenvalues
    for k in range(1, 8):
        for shape in all_partitions(k):
            assert _certified(shape.parts) is None, shape
