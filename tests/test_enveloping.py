import copy
import gc
import itertools
import pickle
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from capelli import enveloping
from capelli.enveloping import (
    Centrality,
    EnvelopingAlgebra,
    SymbolAlgebra,
    SymbolElement,
    UglElement,
    _evaluator,
    _pbw,
    ev_n,
    generator_order,
    hc_eigenvalue,
    is_central,
    symbol,
    ugl_multiply,
    ugl_to_weyl,
)
from capelli.identities import quantum_immanant
from capelli.tableaux import Partition, all_partitions, enumerate_standard_tableaux
from capelli.weyl import weyl_apply, weyl_multiply
from oracles import full_scan_centrality, highest_weight_polynomial, hook_count, shifted_schur


def random_element(rng, m, max_degree=2, max_terms=3):
    order = generator_order(m)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = [0] * len(order)
        for _ in range(rng.randint(0, max_degree)):
            expo[rng.randrange(len(order))] += 1
        terms[tuple(expo)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return UglElement(m, terms)


def test_generator_order_blocks():
    order = generator_order(3)
    kinds = ["low" if a > b else "cartan" if a == b else "high" for a, b in order]
    assert kinds == ["low"] * 3 + ["cartan"] * 3 + ["high"] * 3


def test_lowering_raising_product():
    alg = EnvelopingAlgebra(2)
    product = alg.gen(1, 2) * alg.gen(2, 1)
    expected = alg.gen(2, 1) * alg.gen(1, 2) + alg.gen(1, 1) - alg.gen(2, 2)
    assert product == expected
    # cross-checked in the Weyl model with n = 2
    lhs = weyl_multiply(ugl_to_weyl(alg.gen(1, 2), 2), ugl_to_weyl(alg.gen(2, 1), 2))
    assert lhs == ugl_to_weyl(product, 2)


def test_cartans_commute():
    alg = EnvelopingAlgebra(2)
    assert alg.gen(1, 1) * alg.gen(2, 2) == alg.gen(2, 2) * alg.gen(1, 1)
    combined = alg.gen(1, 1) * alg.gen(2, 2)
    assert len(combined) == 1


def test_unit_law():
    rng = random.Random(3)
    u = random_element(rng, 3)
    one = EnvelopingAlgebra(3).one()
    assert one * u == u
    assert u * one == u


def test_rank_mismatch():
    with pytest.raises(ValueError):
        ugl_multiply(EnvelopingAlgebra(2).one(), EnvelopingAlgebra(3).one())


def test_to_weyl_generator_image():
    alg = EnvelopingAlgebra(2)
    from capelli.weyl import WeylAlgebra

    w = WeylAlgebra(2, 2)
    assert ugl_to_weyl(alg.gen(1, 1), 2) == w.x(1, 1) * w.d(1, 1) + w.x(1, 2) * w.d(1, 2)
    assert ugl_to_weyl(alg.one(), 3) == WeylAlgebra(2, 3).one()


def test_to_weyl_commutator_image():
    alg = EnvelopingAlgebra(2)
    commutator = alg.gen(1, 2) * alg.gen(2, 1) - alg.gen(2, 1) * alg.gen(1, 2)
    assert ugl_to_weyl(commutator, 2) == ugl_to_weyl(alg.gen(1, 1) - alg.gen(2, 2), 2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_structure_constants_derived_in_weyl(m):
    # [E_ab, E_cd] = delta(b,c) E_ad - delta(d,a) E_cb, rederived from the
    # generator images by commutators in the Weyl algebra
    alg = EnvelopingAlgebra(m)
    n = m
    pairs = list(itertools.product(range(1, m + 1), repeat=2))
    for a, b in pairs:
        for c, d in pairs:
            left = weyl_multiply(
                ugl_to_weyl(alg.gen(a, b), n), ugl_to_weyl(alg.gen(c, d), n)
            )
            right = weyl_multiply(
                ugl_to_weyl(alg.gen(c, d), n), ugl_to_weyl(alg.gen(a, b), n)
            )
            expected = alg.zero()
            if b == c:
                expected = expected + alg.gen(a, d)
            if d == a:
                expected = expected - alg.gen(c, b)
            assert left - right == ugl_to_weyl(expected, n)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_to_weyl_multiplicative_on_random_pairs(m):
    rng = random.Random(100 + m)
    for _ in range(34):
        u = random_element(rng, m)
        v = random_element(rng, m)
        assert ugl_to_weyl(ugl_multiply(u, v), m) == weyl_multiply(
            ugl_to_weyl(u, m), ugl_to_weyl(v, m)
        )


@pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (3, 2), (1, 2), (2, 3)])
def test_to_weyl_word_images_off_the_square_grid(m, n):
    # the image of every generator word of length <= 3, in any order, is the
    # left-to-right product of sum_i x[a,i] D[b,i] over its letters
    from capelli.weyl import WeylAlgebra

    alg, w = EnvelopingAlgebra(m), WeylAlgebra(m, n)
    pairs = generator_order(m)
    image = {
        (a, b): w.scaled_sum([(1, w.x(a, i) * w.d(b, i)) for i in range(1, n + 1)])
        for a, b in pairs
    }
    for length in (1, 2, 3):
        for word in itertools.product(pairs, repeat=length):
            u, expected = alg.one(), w.one()
            for pair in word:
                u = u * alg.gen(*pair)
                expected = expected * image[pair]
            assert ugl_to_weyl(u, n) == expected


def test_straightening_confluent_on_generator_triples():
    rng = random.Random(42)
    for m in (2, 3):
        alg = EnvelopingAlgebra(m)
        gens = [alg.gen(a, b) for a, b in generator_order(m)]
        for _ in range(60):
            x, y, z = (rng.choice(gens) for _ in range(3))
            assert (x * y) * z == x * (y * z)


def test_is_central_examples():
    alg = EnvelopingAlgebra(2)
    trace = alg.gen(1, 1) + alg.gen(2, 2)
    assert bool(is_central(trace))

    result = is_central(alg.gen(1, 2))
    assert not result
    assert result.generator == (2, 1)
    assert result.commutator

    shape = Partition.parse("2")
    T = enumerate_standard_tableaux(shape)[0]
    assert bool(is_central(quantum_immanant(shape, T, 2)))


def test_hc_eigenvalue_trace():
    alg = EnvelopingAlgebra(2)
    trace = alg.gen(1, 1) + alg.gen(2, 2)
    assert hc_eigenvalue(trace, [Fraction(5), Fraction(2)]) == 7


def test_hc_eigenvalue_gelfand_invariant():
    alg = EnvelopingAlgebra(2)
    c2 = alg.zero()
    for a in (1, 2):
        for b in (1, 2):
            c2 = c2 + alg.gen(a, b) * alg.gen(b, a)
    for l1, l2 in [(3, 1), (5, 2), (2, 2)]:
        expected = l1 * l1 + l2 * l2 + l1 - l2
        assert hc_eigenvalue(c2, [l1, l2]) == expected


def test_hc_eigenvalue_is_int_when_integral():
    alg = EnvelopingAlgebra(2)
    trace = alg.gen(1, 1) + alg.gen(2, 2)
    assert type(hc_eigenvalue(trace, [3, 1])) is int
    assert type(hc_eigenvalue(trace, [Fraction(3), Fraction(1)])) is int
    assert hc_eigenvalue(trace, [Fraction(1, 2), 1]) == Fraction(3, 2)


def test_hc_eigenvalue_rejects_float_weights():
    trace = EnvelopingAlgebra(2).gen(1, 1) + EnvelopingAlgebra(2).gen(2, 2)
    with pytest.raises(TypeError):
        hc_eigenvalue(trace, [0.5, 1])


def test_hc_eigenvalue_zero_element():
    assert hc_eigenvalue(EnvelopingAlgebra(2).zero(), [1, 0]) == 0


def test_hc_rejects_non_central():
    with pytest.raises(ValueError):
        hc_eigenvalue(EnvelopingAlgebra(2).gen(1, 2), [1, 0])
    with pytest.raises(ValueError):
        hc_eigenvalue(EnvelopingAlgebra(2).one(), [1, 0, 0])


@pytest.mark.parametrize("weights", [(1, 0), (2, 0), (2, 1), (3, 1)])
def test_eigenvalue_matches_highest_weight_action(weights):
    f = highest_weight_polynomial(2, weights)
    for k in (1, 2):
        for shape in all_partitions(k):
            T = enumerate_standard_tableaux(shape)[0]
            u = quantum_immanant(shape, T, 2)
            value = hc_eigenvalue(u, [Fraction(w) for w in weights])
            assert weyl_apply(ugl_to_weyl(u, 2), f) == value * f


# three weights per rank, each with distinct shifted coordinates l_i + m - i
SHIFTED_SCHUR_WEIGHTS = {
    1: [(0,), (5,), (Fraction(-3, 2),)],
    2: [(0, 0), (4, 1), (Fraction(7, 2), -2)],
    3: [(0, 0, 0), (5, 2, 2), (3, Fraction(1, 2), -4)],
}


@pytest.mark.parametrize("m, max_k", [(1, 4), (2, 4), (3, 3)])
def test_eigenvalue_matches_shifted_schur_oracle(m, max_k):
    # (k!/dim mu) s*_mu(l), by a ratio of determinants: no Weyl realization
    for k in range(1, max_k + 1):
        for shape in all_partitions(k):
            T = enumerate_standard_tableaux(shape)[-1]
            u = quantum_immanant(shape, T, m)
            scale = Fraction(factorial(k), hook_count(shape.parts))
            for weights in SHIFTED_SCHUR_WEIGHTS[m]:
                expected = scale * shifted_schur(shape.parts, weights)
                assert hc_eigenvalue(u, weights) == expected, (shape, weights)


def test_k4_immanants_at_m4_against_shifted_schur_oracle():
    # every k = 4 shape at m = 4, including (1,1,1,1), which fits in 4 rows
    for shape in all_partitions(4):
        T = enumerate_standard_tableaux(shape)[0]
        u = quantum_immanant(shape, T, 4)
        assert bool(is_central(u)), shape
        scale = Fraction(factorial(4), hook_count(shape.parts))
        for weights in [(0, 0, 0, 0), (5, 3, 3, 1), (9, 6, 2, 0)]:
            expected = scale * shifted_schur(shape.parts, weights)
            assert hc_eigenvalue(u, weights) == expected, (shape, weights)


def test_centrality_verdict_is_recorded_only_when_passed(monkeypatch):
    alg = EnvelopingAlgebra(2)
    trace = alg.gen(1, 1) + alg.gen(2, 2)
    assert not hasattr(trace, "_central")
    assert hc_eigenvalue(trace, [3, 1]) == 4
    assert hasattr(trace, "_central")
    raising = alg.gen(1, 2)
    assert not is_central(raising)
    assert not hasattr(raising, "_central")
    with pytest.raises(ValueError):
        hc_eigenvalue(raising, [1, 0])
    assert not hasattr(trace + raising, "_central")
    # the verdict is not part of the value: a copy or pickle keeps it, so
    # hc_eigenvalue does not check again, and equality ignores it
    twins = [copy.copy(trace), copy.deepcopy(trace), pickle.loads(pickle.dumps(trace))]
    unmarked = UglElement._raw(trace._space, dict(trace._terms))
    assert not hasattr(unmarked, "_central") and unmarked == trace and trace == unmarked
    monkeypatch.setattr(enveloping, "is_central", None)
    for twin in twins:
        assert twin._central is True and twin == trace
        assert hc_eigenvalue(twin, [3, 1]) == 4


def test_print_format():
    alg = EnvelopingAlgebra(2)
    u = alg.gen(2, 1) * alg.gen(2, 1) * alg.gen(1, 2)
    assert str(u).startswith("E[2,1]^2 E[1,2]")
    assert str(alg.zero()) == "0"


def _product(m, *pairs):
    alg = EnvelopingAlgebra(m)
    out = alg.one()
    for a, b in pairs:
        out = out * alg.gen(a, b)
    return out


def _immanant(parts, m):
    shape = Partition.parse(parts)
    return quantum_immanant(shape, enumerate_standard_tableaux(shape)[0], m)


# printed by the exponent-vector-keyed implementation; the word key must not change them
@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: _product(2, (1, 2), (2, 1)), "E[2,1] E[1,2] + E[1,1] - E[2,2]"),
        (
            lambda: _immanant("2", 2),
            "2 E[2,1] E[1,2] + 2 E[1,1]^2 + 2 E[1,1] E[2,2] - 2 E[1,1]"
            " + 2 E[2,2]^2 - 4 E[2,2]",
        ),
        (
            lambda: _immanant("1,1", 3),
            "-2 E[2,1] E[1,2] - 2 E[3,1] E[1,3] - 2 E[3,2] E[2,3] + 2 E[1,1] E[2,2]"
            " + 2 E[1,1] E[3,3] + 2 E[2,2] E[3,3] + 2 E[2,2] + 4 E[3,3]",
        ),
        (
            lambda: _product(3, (2, 3), (1, 2), (3, 1)),
            "E[2,1] E[1,2] + E[3,1] E[1,2] E[2,3] - E[3,1] E[1,3] - E[3,2] E[2,3]"
            " - E[2,2] + E[3,3]",
        ),
    ],
)
def test_print_pinned(build, expected):
    assert str(build()) == expected


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 3),
    c=st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)
def test_exponent_vector_edge(data, m, c):
    vectors = st.tuples(*[st.integers(0, 2)] * (m * m))
    expo = data.draw(vectors)
    assert UglElement(m, {expo: c}).coefficient(expo) == c
    # support (and print) order is descending by exponent vector
    keys = data.draw(st.sets(vectors, max_size=5)) | {expo}
    u = UglElement(m, {key: 1 for key in keys})
    assert [tuple(word.count(g) for g in range(m * m)) for word in u.support()] == sorted(
        keys, reverse=True
    )
    with pytest.raises(ValueError):
        UglElement(m, {expo + (0,): c})
    with pytest.raises(ValueError):
        u.coefficient(expo[1:])


@st.composite
def ugl_elements(draw, m, max_degree=2, max_terms=3):
    """A sparse element of U(gl(m)), 0 included, with small words."""
    words = st.lists(st.integers(0, m * m - 1), max_size=max_degree).map(
        lambda letters: tuple(letters.count(g) for g in range(m * m))
    )
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)
    return UglElement(m, draw(st.dictionaries(words, coefficients, max_size=max_terms)))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.integers(1, 3), n=st.integers(1, 3))
def test_ev_n_of_symbol_is_the_weyl_homomorphism(data, m, n):
    # ugl_to_weyl is ev_n o symbol; it must be multiplicative at every n,
    # above, at and below m
    u, v = data.draw(ugl_elements(m)), data.draw(ugl_elements(m))
    assert ugl_to_weyl(u * v, n) == weyl_multiply(ugl_to_weyl(u, n), ugl_to_weyl(v, n))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 3))
def test_symbol_vanishes_exactly_when_weyl_image_does_for_n_at_least_m(data, m):
    # the injectivity of ev_n for n >= m, which lets the theorem compare symbols
    n = data.draw(st.integers(m, 3))
    u = data.draw(ugl_elements(m, max_degree=3))
    assert (not symbol(u)) == (not ugl_to_weyl(u, n)) == (not u)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 3))
def test_pbw_inverts_symbol(data, m):
    # the quantum immanant is read back from its symbol, one degree at a time
    u = data.draw(ugl_elements(m, max_degree=4, max_terms=4))
    assert _pbw(symbol(u)) == u


@st.composite
def central_or_not(draw, m):
    """A polynomial in E[1,1] + ... + E[m,m] and the Casimir
    sum_ab E[a,b] E[b,a], both central, plus an element that may not be:
    a random one, or a power of E[1,m] or of E[m,1], which commute with
    every raising, respectively lowering, generator but not with all."""
    alg = EnvelopingAlgebra(m)
    unit = alg.gen(1, 1)
    for a in range(2, m + 1):
        unit = unit + alg.gen(a, a)
    casimir = alg.zero()
    for a, b in generator_order(m):
        casimir = casimir + alg.gen(a, b) * alg.gen(b, a)
    scales = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    central = draw(scales) * unit + draw(scales) * casimir + draw(scales) * (unit * casimir)
    corner = draw(st.sampled_from([alg.gen(1, m), alg.gen(m, 1)]))
    power = alg.one()
    for _ in range(draw(st.integers(1, 2))):
        power = power * corner
    noise = draw(st.sampled_from([alg.zero(), power]) | ugl_elements(m, max_degree=3))
    return central + noise


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=st.integers(1, 3))
def test_is_central_against_the_full_scan(data, m):
    # the 2(m-1) Chevalley generators decide, and a failing element still
    # names the first generator of the order that fails, with its commutator
    u = data.draw(central_or_not(m))
    result = is_central(u)
    generator, commutator = full_scan_centrality(u)
    assert bool(result) == (generator is None)
    assert (result.generator, result.commutator) == (generator, commutator)


def test_ev_n_kernel_below_m():
    # below m, ev_n kills the (n+1)-minors: e11 e22 - e12 e21 at n = 1
    e = SymbolAlgebra(2).var
    minor = e(1, 1) * e(2, 2) - e(1, 2) * e(2, 1)
    assert minor and not ev_n(minor, 1)
    assert ev_n(minor, 2)


def test_symbol_rule_for_one_commutator():
    # E[1,2] E[2,1] has symbol e12 e21 + e11 (the right-multiplication rule)
    alg, e = EnvelopingAlgebra(2), SymbolAlgebra(2).var
    assert symbol(alg.gen(1, 2) * alg.gen(2, 1)) == e(1, 2) * e(2, 1) + e(1, 1)
    assert str(symbol(alg.gen(2, 1) * alg.gen(2, 1))) == "e[2,1]^2"
    with pytest.raises(ValueError):
        SymbolElement(2, {(4,): 1})
    with pytest.raises(ValueError):
        e(3, 1)


def test_dropped_evaluator_leaves_no_reference_cycle():
    # the word-image memo of an evaluator must be freed by reference
    # counting alone, without waiting for the cyclic collector
    f = symbol(ugl_multiply(EnvelopingAlgebra(3).gen(1, 2), EnvelopingAlgebra(3).gen(2, 1)))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        ev = _evaluator(3, 1)
        assert ev(f)
        del ev
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_a_centrality_verdict_is_an_immutable_record():
    alg = EnvelopingAlgebra(2)
    passed, failed = is_central(alg.gen(1, 1) + alg.gen(2, 2)), is_central(alg.gen(1, 2))
    assert bool(passed) is True and bool(failed) is False
    assert (passed.ok, passed.generator, passed.commutator) == (True, None, None)
    assert repr(passed) == "Centrality(ok=True, generator=None, commutator=None)"
    assert failed.ok is False and failed.generator == (2, 1)
    # E[1,2] E[2,1] - E[2,1] E[1,2] = E[1,1] - E[2,2]
    assert failed.commutator == alg.gen(1, 1) - alg.gen(2, 2)
    assert failed == Centrality(False, (2, 1), alg.gen(1, 1) - alg.gen(2, 2))
    assert passed == Centrality(True) and passed != failed
    with pytest.raises(AttributeError):
        passed.ok = False
    with pytest.raises(AttributeError):
        passed.note = "x"
