from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from capelli.permutations import (
    GroupAlgebraElement,
    Permutation,
    all_permutations,
    compose,
    embed,
    ga_multiply,
    jm_element,
)


def perm(text, degree=None):
    return Permutation.parse(text, degree)


@st.composite
def permutation_strategy(draw, max_degree=5):
    k = draw(st.integers(min_value=1, max_value=max_degree))
    images = draw(st.permutations(range(1, k + 1)))
    return Permutation(images)


@st.composite
def algebra_element_strategy(draw, degree):
    entries = draw(
        st.lists(
            st.tuples(
                st.permutations(range(1, degree + 1)),
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
            ),
            max_size=4,
        )
    )
    terms = {}
    for images, coeff in entries:
        p = Permutation(images)
        terms[p] = terms.get(p, Fraction(0)) + coeff
    return GroupAlgebraElement(degree, terms)


def test_constructor_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])
    with pytest.raises(ValueError):
        Permutation([0, 1])


def test_compose_examples():
    assert compose(perm("(1 2)", 3), perm("(2 3)", 3)) == perm("(1 2 3)")
    p = perm("[3,1,2,4]")
    assert compose(p, Permutation.identity(4)) == p
    assert compose(perm("(1 2)"), perm("(1 2)")) == Permutation.identity(2)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(perm("(1 2)"), perm("(1 2)", 3))


def test_parse_and_print_round_trip_examples():
    assert perm("[2,1,4,3]").images == (2, 1, 4, 3)
    assert perm("(1 2)(3 4)").to_cycles() == "(1 2)(3 4)"
    assert perm("(1,2)(3,4)") == perm("(1 2)(3 4)")
    assert perm("()", 3) == Permutation.identity(3)
    assert Permutation.identity(3).to_cycles() == "()"


@pytest.mark.parametrize(
    "text",
    ["[2,1,junk]", "[2;1]", "(1 2)x", "[2,1]x", "(1 2)(1 2)", "(1 2 3)(1 2 3)", "(1 1)"],
)
def test_parse_rejects_stray_characters(text):
    with pytest.raises(ValueError):
        Permutation.parse(text)


@given(p=permutation_strategy())
def test_round_trip_both_syntaxes(p):
    assert Permutation.parse(str(list(p.images))) == p
    assert Permutation.parse(p.to_cycles(), degree=p.degree) == p


@given(p=permutation_strategy(), q=permutation_strategy(), r=permutation_strategy())
def test_compose_associative(p, q, r):
    if not (p.degree == q.degree == r.degree):
        return
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_compose_associative_exhaustive_degree_3():
    group = list(all_permutations(3))
    for p in group:
        for q in group:
            for r in group:
                assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(p=permutation_strategy())
def test_inverse_involution(p):
    assert p.inverse().inverse() == p
    assert compose(p, p.inverse()) == Permutation.identity(p.degree)


@given(p=permutation_strategy(), q=permutation_strategy())
def test_sign_multiplicative(p, q):
    if p.degree != q.degree:
        return
    assert compose(p, q).sign() == p.sign() * q.sign()


def test_group_algebra_unit_and_zero():
    one = GroupAlgebraElement.one(3)
    u = GroupAlgebraElement(3, {perm("(1 2 3)"): Fraction(2, 3)})
    assert one * u == u
    assert u * one == u
    assert u - u == GroupAlgebraElement.zero(3)
    assert not (u - u)


def test_group_algebra_drops_zero_coefficients():
    u = GroupAlgebraElement(2, {perm("(1 2)"): Fraction(0)})
    assert len(u) == 0
    assert u == GroupAlgebraElement.zero(2)


def test_symmetrizer_times_antisymmetrizer_vanishes():
    e = GroupAlgebraElement.one(2)
    t = GroupAlgebraElement.from_permutation(perm("(1 2)"))
    assert (e + t) * (e - t) == GroupAlgebraElement.zero(2)


def test_single_term_product():
    u = GroupAlgebraElement.from_permutation(perm("(1 2)", 3))
    v = GroupAlgebraElement.from_permutation(perm("(2 3)", 3))
    assert u * v == GroupAlgebraElement.from_permutation(perm("(1 2 3)"))


def brute_force_product(u, v):
    # direct bilinear expansion, no sparsity shortcuts
    terms = {}
    for p, a in u.items():
        for q, b in v.items():
            r = compose(p, q)
            terms[r] = terms.get(r, Fraction(0)) + a * b
    return GroupAlgebraElement(u.degree, terms)


def test_diagonal_matrix_element_idempotent_after_scaling():
    # (1/3) * (e + (12) - 1/2 (23) - 1/2 (13) - 1/2 (123) - 1/2 (132))
    # squares to itself; expected product frozen via the 36-term expansion
    half = Fraction(1, 2)
    element = Fraction(1, 3) * GroupAlgebraElement(
        3,
        {
            perm("()", 3): Fraction(1),
            perm("(1 2)", 3): Fraction(1),
            perm("(2 3)", 3): -half,
            perm("(1 3)", 3): -half,
            perm("(1 2 3)", 3): -half,
            perm("(1 3 2)", 3): -half,
        },
    )
    expected = brute_force_product(element, element)
    assert ga_multiply(element, element) == expected
    assert expected == element


@given(st.data())
def test_ga_multiply_matches_brute_force(data):
    k = data.draw(st.integers(min_value=1, max_value=4))
    u = data.draw(algebra_element_strategy(k))
    v = data.draw(algebra_element_strategy(k))
    assert ga_multiply(u, v) == brute_force_product(u, v)


@given(st.data())
def test_ga_multiply_associative(data):
    k = data.draw(st.integers(min_value=1, max_value=5))
    u = data.draw(algebra_element_strategy(k))
    v = data.draw(algebra_element_strategy(k))
    w = data.draw(algebra_element_strategy(k))
    assert (u * v) * w == u * (v * w)


def test_ga_multiply_associative_exhaustive_degree_3():
    basis = [GroupAlgebraElement.from_permutation(p) for p in all_permutations(3)]
    mixed = [basis[0] + basis[3], basis[1] - Fraction(1, 2) * basis[4]]
    elements = basis + mixed
    for u in elements:
        for v in elements:
            for w in elements:
                assert (u * v) * w == u * (v * w)


@given(st.data())
def test_ga_multiply_distributes(data):
    k = data.draw(st.integers(min_value=1, max_value=4))
    u = data.draw(algebra_element_strategy(k))
    v = data.draw(algebra_element_strategy(k))
    w = data.draw(algebra_element_strategy(k))
    assert u * (v + w) == u * v + u * w


def test_ga_degree_mismatch():
    with pytest.raises(ValueError):
        ga_multiply(GroupAlgebraElement.one(2), GroupAlgebraElement.one(3))


def test_jm_examples():
    assert jm_element(2, 2) == GroupAlgebraElement.from_permutation(perm("(1 2)"))
    expected = GroupAlgebraElement(
        3, {perm("(1 3)", 3): Fraction(1), perm("(2 3)", 3): Fraction(1)}
    )
    assert jm_element(3, 3) == expected
    assert jm_element(5, 1) == GroupAlgebraElement.zero(5)


def test_jm_out_of_range():
    with pytest.raises(ValueError):
        jm_element(3, 4)
    with pytest.raises(ValueError):
        jm_element(3, 0)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_jm_elements_commute(k):
    elements = [jm_element(k, r) for r in range(1, k + 1)]
    for a in elements:
        for b in elements:
            assert a * b == b * a


def test_embed():
    u = GroupAlgebraElement.from_permutation(perm("(1 2)"))
    v = embed(u, 4)
    assert v.degree == 4
    assert v == GroupAlgebraElement.from_permutation(perm("(1 2)", 4))
    with pytest.raises(ValueError):
        embed(v, 2)


def test_str_is_canonical():
    u = GroupAlgebraElement(
        2, {perm("()", 2): Fraction(1), perm("(1 2)"): Fraction(-1, 2)}
    )
    assert str(u) == "e - 1/2 (1 2)"
