import itertools
import json
import random
from fractions import Fraction
from functools import partial
from math import factorial, lcm, perm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from capelli.enveloping import (
    EnvelopingAlgebra,
    SymbolAlgebra,
    SymbolElement,
    _times_generator,
    is_central,
    ugl_to_weyl,
)
from capelli.identities import (
    VerificationReport,
    _built,
    _certified_column,
    _contents,
    _first_entry,
    _growth_strings,
    _lhs_symbols,
    _report,
    _representatives,
    _rhs_symbols,
    _shifted_product,
    _symmetrized,
    _theorem_report,
    _theorem_reports,
    _times_variable,
    _traced,
    _weyl_image,
    _xd_product,
    build_D,
    build_E,
    build_X,
    lhs_theorem,
    quantum_immanant,
    rhs_theorem,
    sweep,
    verify_corollary,
    verify_proof_steps,
    verify_theorem,
)
from capelli.permutations import (
    GroupAlgebraElement,
    Permutation,
    all_permutations,
    ga_multiply,
    jm_element,
)
from capelli.tableaux import (
    Partition,
    StandardTableau,
    _psi_cached,
    all_partitions,
    character_element,
    dimension,
    enumerate_standard_tableaux,
    psi,
)
from capelli.tensors import (
    TensorElement,
    _place_operator,
    _place_operator_of,
    full_trace,
    right_mul_group_algebra,
    tensor_matmul,
    tensor_product,
)
from capelli.weyl import WeylAlgebra, WeylElement
from oracles import (
    cdet,
    exact_rank,
    gl_dimension,
    relabelling_average,
    shifted_weyl,
    traced_immanant,
    traced_xd,
    ugl_shifted_symbols,
    whole_theorem_reports,
    xd_weyl,
)
from test_tensors import _nonzero_rows, operator_columns


def part(text):
    return Partition.parse(text)


def tab(text):
    return StandardTableau.parse(text)


def support(g, m):
    # the cols at which the place operator of g has a nonzero row
    return frozenset(_nonzero_rows(g, g.degree, m))


def test_build_E_entries():
    w = WeylAlgebra(1, 1)
    assert build_E(1, 1).coefficient((1,), (1,)) == w.x(1, 1) * w.d(1, 1)
    w21 = WeylAlgebra(2, 1)
    assert build_E(2, 1).coefficient((1,), (2,)) == w21.x(1, 1) * w21.d(2, 1)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_build_E_is_X_times_D_transpose(m, n):
    assert build_E(m, n) == tensor_matmul(build_X(m, n), build_D(m, n).transpose())


def test_lhs_k1_is_E():
    T = tab("[[1]]")
    lhs = lhs_theorem(T, T, 2, 2)
    E = build_E(2, 2)
    for a in (1, 2):
        for b in (1, 2):
            assert lhs.coefficient((a,), (b,)) == E.coefficient((a,), (b,))


def test_lhs_rhs_scalar_case():
    T = tab("[[1,2]]")
    w = WeylAlgebra(1, 1)
    x, d = w.x(1, 1), w.d(1, 1)
    expected = 2 * (x * x * d * d)
    assert lhs_theorem(T, T, 1, 1).coefficient((1, 1), (1, 1)) == expected
    assert rhs_theorem(T, T, 1, 1).coefficient((1, 1), (1, 1)) == expected


def test_sign_shape_collapses_for_m1():
    T = tab("[[1],[2]]")
    assert not lhs_theorem(T, T, 1, 1)
    assert not rhs_theorem(T, T, 1, 1)


def test_lhs_shape_mismatch():
    with pytest.raises(ValueError):
        lhs_theorem(tab("[[1,2]]"), tab("[[1],[2]]"), 1, 1)


def test_verify_theorem_scalar_case():
    reports = verify_theorem(part("2"), 1, 1)
    assert len(reports) == 1
    assert reports[0].outcome


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 1)])
def test_verify_theorem_single_cell(m, n):
    reports = verify_theorem(part("1"), m, n)
    assert all(r.outcome for r in reports)


def test_verify_theorem_2_1_at_m2_n2():
    reports = verify_theorem(part("2,1"), 2, 2)
    assert len(reports) == 4
    assert all(r.outcome for r in reports)
    assert all(r.first_diff is None for r in reports)


def test_verify_theorem_specific_pair():
    reports = verify_theorem(
        part("2,1"), 2, 2, tab("[[1,2],[3]]"), tab("[[1,3],[2]]")
    )
    assert len(reports) == 1
    assert reports[0].outcome


def test_verify_theorem_rejects_tableau2_alone():
    with pytest.raises(ValueError, match="tableau2 needs tableau"):
        verify_theorem(part("2,1"), 2, 2, tableau2=tab("[[1,3],[2]]"))


def test_verify_corollary_examples():
    assert all(r.outcome for r in verify_corollary(part("2"), 1, 1))
    assert all(r.outcome for r in verify_corollary(part("1"), 2, 2))
    # k = 2 column shape against m = 2, n = 1: the classical determinant case
    assert all(r.outcome for r in verify_corollary(part("1,1"), 2, 1))


def test_verify_proof_steps_k2():
    reports = verify_proof_steps(part("2"))
    assert all(r.outcome for r in reports)
    # the annihilation at k = 2 is ((1 2) - 1) (e + (1 2)) = 0
    e = GroupAlgebraElement.one(2)
    swap = GroupAlgebraElement.from_permutation(Permutation.parse("(1 2)"))
    assert not ga_multiply(swap - e, e + swap)


def test_verify_proof_steps_branching_constant():
    T1 = tab("[[1,2],[3]]")
    U = T1.remove_largest()
    const = Fraction(dimension(U.shape), 2)
    assert const == Fraction(1, 2)
    from capelli.permutations import embed

    branched = const * ga_multiply(embed(psi(U, U), 3), psi(T1, T1))
    assert branched == psi(T1, T1)


def test_verify_proof_steps_jm_annihilation_example():
    from capelli.permutations import jm_element

    T1 = tab("[[1,2],[3]]")
    killer = jm_element(3, 3) + GroupAlgebraElement.one(3)  # c_T(3) = -1
    assert not ga_multiply(killer, psi(T1, T1))


def test_verify_proof_steps_rejects_single_cell():
    with pytest.raises(ValueError):
        verify_proof_steps(part("1"))


def test_quantum_immanant_single_cell():
    alg = EnvelopingAlgebra(3)
    expected = alg.gen(1, 1) + alg.gen(2, 2) + alg.gen(3, 3)
    assert quantum_immanant(part("1"), tab("[[1]]"), 3) == expected


def test_quantum_immanant_central():
    shape = part("2")
    T = enumerate_standard_tableaux(shape)[0]
    assert bool(is_central(quantum_immanant(shape, T, 2)))


def test_quantum_immanants_linearly_independent():
    # spot check for k <= 3, m = 2: the images of the shapes with at most
    # two rows stay independent under the Weyl realization
    shapes = [part(s) for s in ("1", "2", "1,1", "3", "2,1")]
    monomials = set()
    images = []
    for shape in shapes:
        T = enumerate_standard_tableaux(shape)[0]
        image = ugl_to_weyl(quantum_immanant(shape, T, 2), 2)
        images.append(image)
        monomials.update(mono for mono, _ in image.items())
    basis = sorted(monomials)
    vectors = [
        [Fraction(image.coefficient(mono)) for mono in basis] for image in images
    ]
    assert exact_rank(vectors) == len(shapes)


def test_quantum_immanant_vanishes_beyond_m_rows():
    # a shape with more rows than m has no place in (C^m)^(x k)
    shape = part("1,1,1")
    T = enumerate_standard_tableaux(shape)[0]
    assert not quantum_immanant(shape, T, 2)
    column = part("1,1")
    T2 = enumerate_standard_tableaux(column)[0]
    assert not quantum_immanant(column, T2, 1)


@pytest.mark.parametrize("k,m", [(k, m) for m in (1, 2, 3) for k in range(1, m + 1)])
def test_column_immanant_is_sum_of_capelli_minors(k, m):
    # the quantum immanant of (1^k) is k! times the sum over k-subsets I of
    # cdet(E_II + diag(k-1, ..., 0)) (Capelli; Okounkov 1996, section 1)
    alg = EnvelopingAlgebra(m)
    shape = Partition([1] * k)
    (T,) = enumerate_standard_tableaux(shape)
    minors = alg.zero()
    for I in itertools.combinations(range(1, m + 1), k):
        block = [[alg.gen(a, b) for b in I] for a in I]
        for r in range(k):
            block[r][r] = block[r][r] + (k - 1 - r) * alg.one()
        minors = minors + cdet(block, alg.zero())
    assert quantum_immanant(shape, T, m) == factorial(k) * minors


@pytest.mark.parametrize("m", [1, 2, 3])
def test_classical_capelli_identity(m):
    # cdet(E + diag(m-1, ..., 0)) = det X det D over the Weyl algebra at
    # m = n, with E[a,b] = sum_i x[a,i] D[b,i] (Howe-Umeda 1991)
    w = WeylAlgebra(m, m)
    span = range(1, m + 1)
    E = [[sum((w.x(a, i) * w.d(b, i) for i in span), w.zero()) for b in span] for a in span]
    for a in span:
        E[a - 1][a - 1] = E[a - 1][a - 1] + (m - a) * w.one()
    X = [[w.x(a, i) for i in span] for a in span]
    D = [[w.d(a, i) for i in span] for a in span]
    assert cdet(E, w.zero()) == cdet(X, w.zero()) * cdet(D, w.zero())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_immanant_tableau_independence(k):
    for shape in all_partitions(k):
        tableaux = enumerate_standard_tableaux(shape)
        first = quantum_immanant(shape, tableaux[0], 2)
        for T in tableaux[1:]:
            assert quantum_immanant(shape, T, 2) == first


@pytest.mark.parametrize(
    "ks,m,n",
    [((1, 2, 3), 1, 1), ((1, 2, 3), 1, 2), ((1, 2, 3), 2, 1), ((1, 2, 3), 2, 2), ((4,), 2, 2)],
    ids=["1-1", "1-2", "2-1", "2-2", "k4-2-2"],
)
def test_immanant_consistent_with_traced_weyl_side(ks, m, n):
    # the corollary's left side is the Weyl image of the quantum immanant
    for k in ks:
        for shape in all_partitions(k):
            for T in enumerate_standard_tableaux(shape):
                u = quantum_immanant(shape, T, m)
                assert ugl_to_weyl(u, n) == full_trace(lhs_theorem(T, T, m, n))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 12])
def test_quantum_immanant_against_whole_traced_tensor(m):
    # one trace-support key per S_m-orbit is built, as a symbol; the oracle
    # builds and traces all over U(gl(m)). At m = 4 a key with d <= 2
    # distinct values has a stabilizer of order (4 - d)! >= 2. At m = 8, 12
    # (small k, large m) the representatives have stopped growing, and each
    # monomial is summed over the injections of its own values, never over
    # all m! relabellings
    for k in (1, 2, 3) if m <= 4 else (1, 2):
        for shape in all_partitions(k):
            for T in enumerate_standard_tableaux(shape):
                if m >= k:
                    g = psi(T, T)
                    assert _representatives(g, k, m) == _representatives(g, k, k), T
                assert quantum_immanant(shape, T, m) == traced_immanant(shape, T, m), T


def test_quantum_immanant_k4_m3_against_whole_traced_tensor():
    # (1,1,1,1) has more rows than m: its immanant is 0 on both routes
    for shape in all_partitions(4):
        T = enumerate_standard_tableaux(shape)[0]
        expected = traced_immanant(shape, T, 3)
        assert (not expected) == (len(shape.parts) > 3), shape
        assert quantum_immanant(shape, T, 3) == expected, shape


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_representatives_hold_one_key_of_each_orbit(m):
    # the keys with P[cols][rows] != 0, split into S_m-orbits by applying
    # every relabelling of 1..m: each orbit holds exactly one representative,
    # and its size is (m)_d, d = max(cols), so the sizes add up to the keys
    relabellings = list(itertools.permutations(range(1, m + 1)))
    for k in (1, 2, 3) if m == 4 else (1, 2, 3, 4):
        for shape in all_partitions(k):
            tableaux = enumerate_standard_tableaux(shape)
            for g in [character_element(shape)] + [psi(T, T) for T in tableaux]:
                _, place = _place_operator(g, k, m)
                keys = {(rows, cols) for cols, row in place.items() for rows, _ in row}
                orbits = {
                    frozenset(
                        (tuple(s[v - 1] for v in rows), tuple(s[v - 1] for v in cols))
                        for s in relabellings
                    )
                    for rows, cols in keys
                }
                reps = _representatives(g, k, m)
                assert len(set(reps)) == len(reps) == len(orbits), (shape, g)
                for orbit in orbits:
                    (rows, cols), = [key for key in reps if key in orbit]
                    assert len(orbit) == perm(m, max(cols)), (shape, rows, cols)
                assert sum(perm(m, max(cols)) for _, cols in reps) == len(keys), shape


def test_traced_reads_the_place_operator_only_at_growth_strings(monkeypatch):
    # the trace reads P's row at each growth string of length k once, and at
    # no other cols, for the quantum immanant and the corollary's right side
    import capelli.identities as identities

    read = []

    class Recording(dict):
        def __getitem__(self, cols):
            read.append(cols)
            return super().__getitem__(cols)

    place_operator = identities._place_operator

    def recording(g, k, m):
        denom, place = place_operator(g, k, m)
        return denom, Recording(place)

    monkeypatch.setattr(identities, "_place_operator", recording)
    m, shape = 3, part("2,1")
    for T in enumerate_standard_tableaux(shape):
        read.clear()
        assert quantum_immanant(shape, T, m) == traced_immanant(shape, T, m), T
        assert read == _growth_strings(3, m), T
    read.clear()
    assert _traced(character_element(shape), m, [_times_variable] * 3) == traced_xd(shape, m)
    assert read == _growth_strings(3, m)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.integers(1, 4))
def test_symmetrized_against_every_relabelling(data, m):
    words = st.lists(st.integers(0, m * m - 1), max_size=4).map(lambda w: tuple(sorted(w)))
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)
    f = SymbolElement(m, data.draw(st.dictionaries(words, coefficients, max_size=4)))
    assert _symmetrized(f) == relabelling_average(f)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_traced_right_side_against_whole_traced_tensor(m):
    # the corollary's right side builds one trace-support entry per
    # S_m-orbit and forms the diagonal outputs only; the oracle builds,
    # multiplies and traces all
    for k in (1, 2, 3) if m == 4 else (1, 2, 3, 4):
        for shape in all_partitions(k):
            expected = traced_xd(shape, m)
            assert (not expected) == (len(shape.parts) > m), shape
            traced = _traced(character_element(shape), m, [_times_variable] * k)
            assert traced == expected, shape


@pytest.mark.parametrize("k", [1, 2, 3])
def test_built_on_a_key_subset_is_the_tensor_product_restricted(k):
    # the prefix builder on a random subset of the keys, some of whose
    # products are 0, is the whole tensor_product restricted to them
    m, rng = 3, random.Random(k)
    algebra, span = SymbolAlgebra(m), range(1, m + 1)
    keys = list(itertools.product(itertools.product(span, repeat=k), repeat=2))
    e = TensorElement.matrix(algebra, [[algebra.var(a, b) for b in span] for a in span])
    # the same matrix with some entries 0, (1, 1) among them
    masked = TensorElement.matrix(
        algebra,
        [
            [algebra.zero() if (a, b) == (1, 1) or rng.random() < 0.3 else algebra.var(a, b)
             for b in span]
            for a in span
        ],
    )

    def times_masked(f, a, b):
        return f * masked.coefficient((a,), (b,))

    for matrix, step in [(e, _times_variable), (masked, times_masked)]:
        whole = dict(tensor_product([matrix] * k).items())
        zeros = [key for key in keys if key not in whole]
        subset = set(rng.sample(keys, len(keys) // 3) + rng.sample(zeros, min(3, len(zeros))))
        restricted = {key: c for key, c in whole.items() if key in subset}
        assert _built(m, [step] * k, subset) == TensorElement(algebra, k, m, m, restricted)
    assert zeros


def _weyl_oracle_sides(T, T2, m, n):
    k = T.size
    shifted = shifted_weyl(tuple(T.content(r) for r in range(1, k + 1)), m, n)
    g = psi(T, T2)
    return right_mul_group_algebra(shifted, g), right_mul_group_algebra(xd_weyl(k, m, n), g)


@pytest.mark.parametrize("m,n", list(itertools.product((1, 2, 3), repeat=2)))
def test_lhs_against_shifted_product_built_in_weyl_algebra(m, n):
    # both sides are built as symbols over C[e_ab] and mapped by ev_n; the
    # oracles multiply E = X D' and X^(x k) . (D')^(x k) out in the Weyl
    # algebra itself; n < m, n = m and n > m all occur
    for k in (1, 2, 3):
        for shape in all_partitions(k):
            tableaux = enumerate_standard_tableaux(shape)
            for T in tableaux:
                for T2 in tableaux:
                    lhs, rhs = _weyl_oracle_sides(T, T2, m, n)
                    assert lhs_theorem(T, T2, m, n) == lhs, (T, T2)
                    assert rhs_theorem(T, T2, m, n) == rhs, (T, T2)


def test_lhs_k4_against_shifted_product_built_in_weyl_algebra():
    for shape in all_partitions(4):
        tableaux = enumerate_standard_tableaux(shape)
        for T in tableaux:
            for T2 in tableaux:
                lhs, rhs = _weyl_oracle_sides(T, T2, 2, 2)
                assert lhs_theorem(T, T2, 2, 2) == lhs, (T, T2)
                assert rhs_theorem(T, T2, 2, 2) == rhs, (T, T2)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2)], ids=["symbols", "weyl-images"])
def test_first_diff_on_a_real_mismatch(m, n):
    # Psi(T,T2) on the left against Psi(T,T3) on the right: the sides differ.
    # At n >= m the verifier compares symbols, below m their ev_n images.
    T, T2, T3 = tab("[[1,2],[3]]"), tab("[[1,2],[3]]"), tab("[[1,3],[2]]")
    if n >= m:
        lhs, rhs = _lhs_symbols(T, psi(T, T2), m), _rhs_symbols(psi(T, T3), m)
    else:
        lhs, rhs = lhs_theorem(T, T2, m, n), rhs_theorem(T, T3, m, n)
    report = _report("mismatch", lhs, rhs, 0.0, partial(_first_entry, n))
    expected_lhs, _ = _weyl_oracle_sides(T, T2, m, n)
    _, expected_rhs = _weyl_oracle_sides(T, T3, m, n)
    key = next(
        key
        for key in sorted(set(expected_lhs.support()) | set(expected_rhs.support()))
        if expected_lhs.coefficient(*key) != expected_rhs.coefficient(*key)
    )
    delta = expected_lhs.coefficient(*key) - expected_rhs.coefficient(*key)
    monomial = str(WeylElement(m, n, {delta.support()[0]: 1}))
    assert report.to_dict()["outcome"] == "fail"
    assert (report.lhs_terms, report.rhs_terms) == (len(expected_lhs), len(expected_rhs))
    assert report.first_diff == f"at {key}: lhs != rhs first monomial {monomial}"
    assert "x[" in monomial or "D[" in monomial


def _minor_weyl(n):
    # ev_n of e11 e22 - e12 e21, multiplied out in the Weyl algebra: every
    # x stands left of every D, so each product is already normal ordered
    W = WeylAlgebra(2, n)
    total = WeylElement.zero(2, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            xx = W.x(1, i) * W.x(2, j)
            total = total + xx * W.d(1, i) * W.d(2, j) - xx * W.d(2, i) * W.d(1, j)
    return total


@pytest.mark.parametrize("n", [1, 2])
def test_theorem_report_on_symbols_that_differ_by_a_minor(n):
    # at m = 2 the rhs symbols are the lhs ones plus the 2-minor at one key:
    # ev_1 kills the minor, so the sides agree at n = 1 (where the Weyl
    # images are compared) and differ at n = 2 (where the symbols are)
    m = 2
    T, T2 = tab("[[1,2],[3]]"), tab("[[1,3],[2]]")
    lhs = _lhs_symbols(T, psi(T, T2), m)
    key = lhs.support()[0]
    e = SymbolAlgebra(m).var
    minor = e(1, 1) * e(2, 2) - e(1, 2) * e(2, 1)
    rhs = lhs + TensorElement(SymbolAlgebra(m), 3, m, m, {key: minor})
    assert lhs != rhs
    report = _theorem_report("minor", lhs, rhs, n, 0.0)
    expected_lhs, _ = _weyl_oracle_sides(T, T2, m, n)
    minor_weyl = _minor_weyl(n)
    expected_rhs = expected_lhs + TensorElement(WeylAlgebra(m, n), 3, m, m, {key: minor_weyl})
    assert (report.lhs_terms, report.rhs_terms) == (len(expected_lhs), len(expected_rhs))
    if n == 1:
        assert not minor_weyl
        assert report.outcome and report.first_diff is None
    else:
        monomial = str(WeylElement(m, n, {minor_weyl.support()[0]: 1}))
        assert not report.outcome
        assert report.first_diff == f"at {key}: lhs != rhs first monomial {monomial}"


def test_passing_theorem_report_counts_the_weyl_images_below_m():
    # a pair that agrees as symbols reports, for both sides, the number of
    # nonzero ev_n images of the left side's entries
    T, T2 = tab("[[1,2],[3]]"), tab("[[1,3],[2]]")
    for m, n in ((2, 1), (3, 1), (3, 2)):
        [report] = _theorem_reports(part("2,1"), m, (n,), [(T, T2)])[n]
        count = len(_weyl_image(_lhs_symbols(T, psi(T, T2), m), n))
        assert (report.outcome, report.lhs_terms, report.rhs_terms) == (True, count, count)
        assert count == len(lhs_theorem(T, T2, m, n))


@st.composite
def int_group_algebra_elements(draw, k):
    # no multiple of any Psi in general, and 0 for an empty draw
    permutations = st.sampled_from(list(all_permutations(k)))
    return GroupAlgebraElement(
        k, draw(st.dictionaries(permutations, st.integers(-3, 3), max_size=4))
    )


def test_a_passing_pair_forms_no_whole_product(monkeypatch):
    # every pair of the golden sweep passes at its one column, so neither
    # the whole right side nor any ev_n image of a tensor is formed
    import capelli.identities as identities

    def whole(*args):
        raise AssertionError("formed whole")

    rhs_symbols = identities._rhs_symbols
    monkeypatch.setattr(identities, "_weyl_image", whole)
    monkeypatch.setattr(
        identities,
        "_rhs_symbols",
        lambda g, m, column=None: whole() if column is None else rhs_symbols(g, m, column),
    )
    golden = Path(__file__).parent / "data" / "sweep_k3_m3_n3.jsonl"
    expected = [json.loads(line) for line in golden.read_text().splitlines()]
    assert _without_millis(sweep(3, 3, 3)) == expected


def test_a_passing_pair_builds_no_ev_n(monkeypatch):
    # a passing pair is counted from its place operator alone, at n < m as
    # well, so no ev_n is built
    import capelli.identities as identities

    def evaluator(m, n):
        raise AssertionError(f"ev_{n} built at m={m}")

    monkeypatch.setattr(identities, "_evaluator", evaluator)
    for k in (1, 2, 3, 4):
        for shape in all_partitions(k):
            for m in (1, 2, 3):
                reports = _theorem_reports(shape, m, range(1, m + 2))
                assert all(r.outcome for n in reports for r in reports[n]), (shape, m)


def test_theorem_builds_no_left_side_for_a_shape_with_more_rows_than_m():
    # Psi(T,T) acts as 0 on (C^2)^(x 4) for a shape of three rows
    # (Schur-Weyl), once the shape's representation is certified, so no
    # Psi, no place operator and no left side is built, and both sides are 0
    shape = part("2,1,1")
    for memo in (_shifted_product, _psi_cached, _place_operator_of):
        memo.cache_clear()
    reports = verify_theorem(shape, 2, 2)
    assert len(reports) == 9
    assert all(r.outcome and (r.lhs_terms, r.rhs_terms) == (0, 0) for r in reports)
    for memo in (_shifted_product, _psi_cached, _place_operator_of):
        assert memo.cache_info().currsize == 0, memo
    tableaux = enumerate_standard_tableaux(shape)
    for T in tableaux:
        for T2 in tableaux:
            g = psi(T, T2)
            # every pair's operator is 0: there is no weight-mu column to
            # compare at
            assert support(g, 2) == frozenset()
            with pytest.raises(ArithmeticError, match="is 0 at weight mu"):
                _certified_column(shape, g, 2)


def test_theorem_builds_each_place_operator_once():
    # the memo keeps one operator, and every reader of a pair reads that of
    # the D Psi(T,T') it multiplies by, the left side's support too: no
    # operator of an unscaled Psi(T,T) is built
    shape, m = part("3,1"), 2
    tableaux = enumerate_standard_tableaux(shape)
    operators = set()
    for T in tableaux:
        for T2 in tableaux:
            g = psi(T, T2)
            operators.add(tuple((lcm(*(c.denominator for _, c in g.items())) * g).items()))
    assert not operators & {tuple(psi(T, T).items()) for T in tableaux}
    _shifted_product.cache_clear()
    _place_operator_of.cache_clear()
    _theorem_reports(shape, m, (m,))
    assert _place_operator_of.cache_info().misses == len(operators)


@pytest.mark.parametrize("shape,m", [("3,1", 2), ("2,1,1", 2), ("2,2", 3), ("3,2", 2)])
def test_theorem_builds_one_left_side_per_tableau(shape, m):
    # the left side is keyed by the weight-mu cols of each pair's own
    # operator; by the matrix units every Psi(T,T') has the support of
    # Psi(T,T), so every T' hits the one memo entry of T. A shape of more
    # than m rows has no weight-mu col and builds none
    shape = part(shape)
    _shifted_product.cache_clear()
    reports = _theorem_reports(shape, m, (m,))[m]
    tableaux = enumerate_standard_tableaux(shape)
    assert len(reports) == len(tableaux) ** 2 and all(r.outcome for r in reports)
    built = len(tableaux) if len(shape) <= m else 0
    assert _shifted_product.cache_info().currsize == built


def _is_multiple(g, h):
    # g = c h for some c, 0 included
    ratios = {dict(g.items()).get(s, 0) / c for s, c in h.items()}
    return set(g.support()) <= set(h.support()) and len(ratios) == 1


@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.integers(2, 3), m=st.integers(1, 3))
def test_left_side_times_any_g_is_the_whole_product(data, k, m):
    # the left side is built at the cols where the operator of g has a
    # nonzero row, which is exact for any g, not only a multiple of some
    # Psi: here a sum of Psi(S,S') of several shapes, some of more rows
    # than m, plus a few permutations
    matrix_units = [
        psi(S, S2)
        for shape in all_partitions(k)
        for S in enumerate_standard_tableaux(shape)
        for S2 in enumerate_standard_tableaux(shape)
    ]
    units = data.draw(st.lists(st.sampled_from(matrix_units), max_size=4))
    g = data.draw(int_group_algebra_elements(k))
    for h in units:
        g = g + data.draw(st.integers(-2, 2).filter(bool)) * h
    assume(not any(_is_multiple(g, h) for h in matrix_units))
    tableaux = [T for shape in all_partitions(k) for T in enumerate_standard_tableaux(shape)]
    T = data.draw(st.sampled_from(tableaux))
    steps = [partial(_times_generator, shift=c) for c in _contents(T)]
    every = list(itertools.product(itertools.product(range(1, m + 1), repeat=k), repeat=2))
    assert _lhs_symbols(T, g, m) == right_mul_group_algebra(_built(m, steps, every), g)


def test_left_side_is_built_on_the_columns_of_the_diagonal_psi():
    # at m = 3, Psi(T,T) of shape 2,2 keeps 54 and 36 of the 81 columns, and
    # the one-column path builds the left side on the 6 and 4 of weight
    # (2,2) among them; the whole left side is built on all of them, and
    # the right side on every column, so equal symbols show that it lost
    # nothing that a Psi(T,T') reads
    m, shape = 3, part("2,2")
    tableaux = enumerate_standard_tableaux(shape)
    _shifted_product.cache_clear()
    _theorem_reports(shape, m, (m,))
    # read from the memo the whole-shape run left, one entry per tableau
    misses = _shifted_product.cache_info().misses
    assert misses == len(tableaux)
    every = itertools.product(range(1, m + 1), repeat=4)
    weight = {cols for cols in every if sorted(cols) == [1, 1, 2, 2]}
    left = [_shifted_product(T, m, support(psi(T, T), m) & weight) for T in tableaux]
    assert _shifted_product.cache_info().misses == misses
    columns = [{cols for (_, cols), _ in u.items()} for u in left]
    assert [len(c) for c in columns] == [6, 4]
    assert [len(support(psi(T, T), m)) for T in tableaux] == [54, 36]
    for T in tableaux:
        for T2 in tableaux:
            g = psi(T, T2)
            lhs = _lhs_symbols(T, g, m)
            assert lhs and lhs == _rhs_symbols(g, m), (T, T2)


def test_theorem_invariant_under_psi_rescaling():
    # both sides are linear in the matrix element, so any nonzero multiple
    # must verify as well; built from the public pieces directly
    shape = part("2,1")
    tableaux = enumerate_standard_tableaux(shape)
    m = n = 2
    X = build_X(m, n)
    Dt = build_D(m, n).transpose()
    rhs_base = tensor_matmul(tensor_product([X, X, X]), tensor_product([Dt, Dt, Dt]))
    E = build_E(m, n)
    from capelli.tensors import TensorElement

    eye = TensorElement.identity(WeylAlgebra(m, n), 1, m)
    for T in tableaux:
        factors = [E - (T.content(r) * eye) for r in (1, 2, 3)]
        lhs_base = tensor_product(factors)
        for T2 in tableaux:
            for scale in (Fraction(3), Fraction(-1, 2)):
                scaled = scale * psi(T, T2)
                assert right_mul_group_algebra(
                    lhs_base, scaled
                ) == right_mul_group_algebra(rhs_base, scaled)


def test_sweep_small_grid():
    reports = sweep(2, 2, 2)
    assert reports
    assert all(r.outcome for r in reports)
    kinds = {r.case.split()[0] for r in reports}
    assert kinds == {"theorem", "corollary", "corollary-T-independence",
                     "branching", "jm-annihilation"}


def _without_millis(reports):
    return [{k: v for k, v in r.to_dict().items() if k != "millis"} for r in reports]


def _break_rhs_symbols(monkeypatch):
    # the antipode s -> s^-1 sends Psi(T,T2) to a nonzero multiple of
    # Psi(T2,T): the theorem's right side then fails off the diagonal
    import capelli.identities as identities

    rhs_symbols = identities._rhs_symbols
    monkeypatch.setattr(
        identities,
        "_rhs_symbols",
        lambda g, m, column=None: rhs_symbols(
            GroupAlgebraElement(g.degree, {s.inverse(): c for s, c in g.items()}), m, column
        ),
    )


@pytest.mark.parametrize("broken", [False, True], ids=["passing", "failing"])
def test_sweep_equals_the_per_case_checks(broken, monkeypatch):
    # the sweep builds the symbols of each (shape, m) once for every n and
    # keeps one ev_n per (m, n); each per-case call builds its own. n < m
    # occurs at m = 2 and m = 3. Broken, both sides of the theorem (off the
    # diagonal) and of the corollary differ, so the fallbacks run as well
    import capelli.identities as identities

    if broken:
        _break_rhs_symbols(monkeypatch)
        immanant_symbol = identities._immanant_symbol
        # e[1,1] is the symbol of E[1,1]
        monkeypatch.setattr(
            identities,
            "_immanant_symbol",
            lambda T, m: immanant_symbol(T, m) + T.content(T.size) * SymbolAlgebra(m).var(1, 1),
        )
    expected = []
    for k in (1, 2, 3):
        for shape in all_partitions(k):
            if k >= 2:
                expected += verify_proof_steps(shape)
            for m, n in itertools.product((1, 2, 3), repeat=2):
                expected += verify_theorem(shape, m, n) + verify_corollary(shape, m, n)
    assert len(expected) == 214
    assert any(not r.outcome for r in expected) == broken
    assert _without_millis(sweep(3, 3, 3)) == _without_millis(expected)


@pytest.mark.parametrize("broken", [False, True], ids=["passing", "failing"])
def test_theorem_reports_on_a_column_basis_equal_the_whole_products(broken, monkeypatch):
    # the verifier compares the two sides at one weight-mu column of the
    # place operator and forms both whole sides only when they differ there;
    # the oracle forms both sides whole and compares them whole. n = 1..m+1
    # covers n < m, n = m and n > m, except at k = 4, m = 3, where the
    # oracle's whole ev_n images of every shape at n < m would take most of
    # a minute: there n >= m, where the n-free symbols alone decide, as they
    # pick the n < m route, and n = 2 as well for shape 2,2. Every shape of
    # k = 5 is run at m = 2, and 2,1,1 at m = 3 with n = 1, 2, where P != 0
    # but the shape has more than n rows. Broken, every pair off the
    # diagonal fails, so the fallback runs as well
    if broken:
        _break_rhs_symbols(monkeypatch)
    cases = [(part("2,1,1"), 3, range(1, 3))]
    for k in (1, 2, 3, 4, 5):
        for shape in all_partitions(k):
            for m in (1, 2, 3) if k < 5 else (2,):
                ns = range(1, m + 2)
                if (k, m) == (4, 3):
                    ns = range(2 if shape == part("2,2") else m, m + 2)
                cases.append((shape, m, ns))
    outcomes = set()
    for shape, m, ns in cases:
        got = _theorem_reports(shape, m, ns)
        expected = whole_theorem_reports(shape, m, ns)
        for n in ns:
            assert _without_millis(got[n]) == _without_millis(expected[n]), (shape, m, n)
            outcomes |= {r.outcome for r in got[n]}
    assert outcomes == ({True, False} if broken else {True})


@pytest.mark.parametrize("change", ["plus", "minus", "reorder"])
def test_one_column_reports_with_perturbed_contents_equal_the_whole_products(
    change, monkeypatch
):
    # a left side with other contents is still GL(m)-invariant, so its
    # one-column verdict must agree with the whole products, failing pairs
    # included: +1 or -1 on the last content, or the contents reversed.
    # The memo is keyed by T, not by the contents, so it is cleared on both
    # sides of the patch
    import capelli.identities as identities

    contents = identities._contents

    def perturbed(T):
        c = list(contents(T))
        if change == "reorder":
            return tuple(reversed(c))
        c[-1] += 1 if change == "plus" else -1
        return tuple(c)

    _shifted_product.cache_clear()
    monkeypatch.setattr(identities, "_contents", perturbed)
    outcomes = set()
    try:
        for k, m in ((2, 2), (3, 2), (3, 3), (4, 2)):
            for shape in all_partitions(k):
                if len(shape) > m:
                    continue
                ns = range(1, m + 1)
                got = _theorem_reports(shape, m, ns)
                expected = whole_theorem_reports(shape, m, ns)
                for n in ns:
                    assert _without_millis(got[n]) == _without_millis(expected[n]), (shape, m, n)
                    outcomes |= {r.outcome for r in got[n]}
    finally:
        _shifted_product.cache_clear()
    assert False in outcomes


def test_a_left_entry_broken_at_the_compared_column_fails_as_the_whole_products(monkeypatch):
    # one entry of the left tensor, at a weight-mu col whose row of P meets
    # the compared column new, is changed: the one column sees it, and the
    # failing report is that of the whole products
    import capelli.identities as identities

    shape, m, ns = part("2,1"), 2, (1, 2, 3)
    T = tab("[[1,2],[3]]")
    g = psi(T, T)
    g = lcm(*(c.denominator for _, c in g.items())) * g
    new = identities._certified_column(shape, g, m)
    _, place = _place_operator_of(3, m, tuple(g.items()))
    cols = min(cols for cols, row in place.items() if new in dict(row))
    assert sorted(cols) == sorted(new)
    shifted_product = identities._shifted_product

    def broken(T, m, support):
        u = shifted_product(T, m, support)
        if cols not in support:
            return u
        return u + TensorElement(u.algebra, u.k, m, m, {(cols, cols): u.algebra.var(1, 1)})

    monkeypatch.setattr(identities, "_shifted_product", broken)
    got = _theorem_reports(shape, m, ns, [(T, T)])
    expected = whole_theorem_reports(shape, m, ns)
    case = f"T={T} T'={T} "
    for n in ns:
        [report] = got[n]
        assert not report.outcome and case in report.case
        [oracle] = [r for r in _without_millis(expected[n]) if case in r["case"]]
        assert _without_millis([report]) == [oracle], n


def test_a_passing_pair_forms_one_output_column(monkeypatch):
    # the one product a passing pair of the golden sweep forms, of its left
    # side, is cut to one output column; its right side is summed from a
    # column of P with no product and no [e_ab]^(x k); a shape of more than
    # m rows forms none
    import capelli.identities as identities

    right_mul = identities.right_mul_group_algebra
    calls = []

    def recorded(u, g, keys=None, column=None):
        calls.append(column)
        return right_mul(u, g, keys, column)

    monkeypatch.setattr(identities, "right_mul_group_algebra", recorded)
    _xd_product.cache_clear()
    pairs = 0
    for k in (1, 2, 3):
        for shape in all_partitions(k):
            for m in (1, 2, 3):
                reports = _theorem_reports(shape, m, (1, 2, 3))
                assert all(r.outcome for n in reports for r in reports[n]), (shape, m)
                if len(shape) <= m:
                    pairs += len(enumerate_standard_tableaux(shape)) ** 2
    assert len(calls) == pairs
    assert all(isinstance(column, tuple) for column in calls)
    assert _xd_product.cache_info().misses == 0


@pytest.mark.parametrize("scaled", [False, True], ids=["psi", "D-psi"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_right_side_column_is_that_of_the_whole_product(k, scaled):
    # the right side at one output column, summed from that column of P,
    # against the product of [e_ab]^(x k) cut to it, at every column where
    # P is nonzero, for Psi itself (some D > 1 from k = 3 on) and for D Psi
    denoms = set()
    for m in (1, 2, 3):
        for shape in all_partitions(k):
            if len(shape) > m:
                continue
            tableaux = enumerate_standard_tableaux(shape)
            for T, T2 in itertools.product(tableaux, repeat=2):
                g = psi(T, T2)
                if scaled:
                    g = lcm(*(c.denominator for _, c in g.items())) * g
                denom, place = _place_operator_of(k, m, tuple(g.items()))
                denoms.add(denom)
                news = {new for row in place.values() for new, _ in row}
                assert news, (T, T2, m)
                for new in sorted(news):
                    expected = right_mul_group_algebra(_xd_product(k, m), g, column=new)
                    assert expected and _rhs_symbols(g, m, new) == expected, (T, T2, m, new)
    assert (max(denoms) > 1) == (not scaled and k >= 3), denoms


@pytest.mark.parametrize("broken", [False, True], ids=["passing", "failing"])
def test_theorem_reports_do_not_depend_on_n_from_m_on(broken, monkeypatch):
    # the symbols are free of n and ev_n is injective for n >= m, so a report
    # at n = m stands for every n >= m: outcome, both term counts and
    # first_diff agree at n = m, m + 1, m + 2. Broken, the 6 + 2 pairs off
    # the diagonal of 3,1 and 2,2 fail at m = 2, at every n
    if broken:
        _break_rhs_symbols(monkeypatch)
    for m in (1, 2):
        ns = (m, m + 1, m + 2)
        failures = 0
        for shape in all_partitions(4):
            reports = _theorem_reports(shape, m, ns)
            fields = {
                n: [(r.outcome, r.lhs_terms, r.rhs_terms, r.first_diff) for r in reports[n]]
                for n in ns
            }
            assert fields[m] == fields[m + 1] == fields[m + 2], (shape, m)
            failures += sum(not outcome for outcome, *_ in fields[m])
        assert failures == (8 if broken and m == 2 else 0), m


def test_shifted_product_built_in_symbols_equals_the_ugl_route():
    # the right action of each factor E - c on symbols against the product
    # over U(gl(m)), straightened, then mapped by ``symbol``
    for k in (1, 2, 3, 4):
        for shape in all_partitions(k):
            for T in enumerate_standard_tableaux(shape):
                for m in (1, 2, 3):
                    # the oracle's keys are read off Psi(T,T), the memo's
                    # off each Psi(T,T'): the matrix units make them equal
                    expected = ugl_shifted_symbols(T, m)
                    for T2 in enumerate_standard_tableaux(shape):
                        u = _shifted_product(T, m, support(psi(T, T2), m))
                        assert u == expected, (T, T2, m)


@pytest.mark.parametrize("k,ms", [(k, (1, 2, 3)) for k in (1, 2, 3, 4)] + [(5, (2,))])
def test_column_basis_has_the_dimension_of_the_gl_module(k, ms):
    # the rank of the place operator of Psi(T,T'), the size of a basis of
    # its columns, is dim V_mu(gl(m)) by Schur-Weyl duality: a dense
    # Fraction elimination over every column against the hook-content
    # formula covers ``_psi_cached`` and the place-operator builder, which
    # the shape's certificate does not; the certified column is one of
    # weight mu where the operator is nonzero
    for shape in all_partitions(k):
        tableaux = enumerate_standard_tableaux(shape)
        word = sorted(b for b, part in enumerate(shape.parts, 1) for _ in range(part))
        for m in ms:
            dim = gl_dimension(shape.parts, m)
            columns = list(itertools.product(range(1, m + 1), repeat=k))
            for T in tableaux:
                for T2 in tableaux:
                    g = psi(T, T2)
                    assert exact_rank(operator_columns(g, k, m, columns)) == dim, (T, T2, m)
                    if len(shape) <= m:
                        new = _certified_column(shape, g, m)
                        assert sorted(new) == word and any(operator_columns(g, k, m, [new])[0])


def _cross_broken(columns):
    # the first cross coefficient, column by column, set to 1, or to 2 where
    # it is 1
    t, i = next((t, i) for t, column in enumerate(columns) for i in column if i != t)
    columns = [dict(column) for column in columns]
    columns[t][i] = 2 if columns[t][i] == 1 else 1
    return tuple(columns)


def _relabelled(columns):
    # the first two tableaux swapped as basis vectors
    order = [1, 0, *range(2, len(columns))]
    return tuple({order[i]: c for i, c in columns[j].items()} for j in order)


@pytest.mark.parametrize(
    "shape,change,match",
    [(text, "cross", "fail the relation") for text in ("2,1", "3,2", "3,2,1", "4,2")]
    + [("3,1", "relabelled", r"X_3 of shape 3,1 is not c_T\(3\)")],
)
def test_a_wrong_seminormal_generator_fails_the_certificate(shape, change, match, monkeypatch):
    # a wrong cross coefficient in the last generator breaks s_r^2 = 1; two
    # tableaux relabelled in every generator keep the Coxeter relations but
    # give them each other's contents. Either fails the certificate, and so
    # the theorem of the shape
    import capelli.tableaux as tableaux

    parts, generator = part(shape).parts, tableaux._generator_columns

    def patched(p, r):
        columns = generator(p, r)
        if p != parts or (change == "cross" and r != sum(p) - 1):
            return columns
        return (_cross_broken if change == "cross" else _relabelled)(columns)

    memos = (generator, tableaux._certified, tableaux._seminormal_cached, tableaux._psi_cached)
    for memo in memos:
        memo.cache_clear()
    monkeypatch.setattr(tableaux, "_generator_columns", patched)
    try:
        with pytest.raises(ArithmeticError, match=match):
            tableaux._certified(parts)
        with pytest.raises(ArithmeticError, match=match):
            verify_theorem(part(shape), 2, 2)
    finally:
        monkeypatch.undo()
        for memo in memos:
            memo.cache_clear()


def test_an_operator_that_is_0_at_weight_mu_raises():
    # on (C^3)^(x 4), the sum of Psi(S,S) over the two S of shape 2,2 acts
    # on V_(2,2)(gl(3)) and Psi(U,U) of shape 2,1,1 on V_(2,1,1)(gl(3)):
    # weight (3,1) is in neither module, so no col of that weight meets a
    # nonzero column, and comparing at none would pass unseen
    U = tab("[[1,2],[3],[4]]")
    g = sum((psi(S, S) for S in enumerate_standard_tableaux(part("2,2"))), psi(U, U))
    with pytest.raises(ArithmeticError, match="is 0 at weight mu"):
        _certified_column(part("3,1"), g, 3)


def test_the_runtime_guards_pass_an_operator_of_another_shape():
    # the weight-mu guard is necessary, not sufficient: the symmetrizer,
    # the operator of shape 4, is nonzero at weight (3,1), so it passes as
    # the operator of T = [[1,2,3],[4]]; the certificate of the shape's
    # generators, with the Jucys-Murphy test below for the descent
    # recursion, is what rules it out for the Psi(T,T')
    g = GroupAlgebraElement(4, {s: 1 for s in all_permutations(4)})
    assert _certified_column(part("3,1"), g, 3) == (1, 1, 1, 2)
    T = tab("[[1,2,3],[4]]")
    assert ga_multiply(jm_element(4, 4), g) != T.content(4) * g


def test_every_psi_is_a_joint_jucys_murphy_eigenvector():
    # X_r Psi(T,T') = c_T(r) Psi(T,T') for r = 2..k (X_1 = 0 = c_T(1)), with
    # Psi(T,T') != 0: Psi(T,T') is then rank one in the mu-block of C[S_k]
    # and 0 in the others, since the joint eigenspace of the X_r with the
    # content vector of T is the line of T in S^mu (Okounkov-Vershik). The
    # verify path certifies the shape's generators; this covers the descent
    # recursion from them to each Psi(T,T') as well
    for k in range(1, 6):
        jm = [jm_element(k, r) for r in range(2, k + 1)]
        for shape in all_partitions(k):
            tableaux = enumerate_standard_tableaux(shape)
            for T in tableaux:
                contents = _contents(T)
                for T2 in tableaux:
                    g = psi(T, T2)
                    assert g
                    for r, x in enumerate(jm, 2):
                        assert ga_multiply(x, g) == contents[r - 1] * g, (T, T2, r)


def test_report_serialization():
    report = verify_theorem(part("2"), 1, 1)[0]
    payload = report.to_dict()
    assert payload["outcome"] == "pass"
    assert set(payload) == {
        "case",
        "outcome",
        "lhs_terms",
        "rhs_terms",
        "first_diff",
        "millis",
    }


def test_failing_proof_step_and_corollary_reports(monkeypatch):
    # each failing path, forced by a product that is off by a known term;
    # the pinned fields are what the CLI prints for a failure
    import capelli.identities as identities

    ga, immanant_symbol = identities.ga_multiply, identities._immanant_symbol

    def off_by_transposition(u, v):
        swap = Permutation.transposition(1, v.degree, v.degree)
        return ga(u, v) + GroupAlgebraElement.from_permutation(swap)

    monkeypatch.setattr(identities, "ga_multiply", off_by_transposition)
    fields = [
        (r.case.split()[0], r.outcome, r.lhs_terms, r.rhs_terms, r.first_diff)
        for r in verify_proof_steps(part("2,1"))
    ]
    assert fields == [
        ("branching", False, 6, 5, "first term (1 3)"),
        ("jm-annihilation", False, 1, 0, "first term (1 3)"),
        ("branching", False, 4, 4, "first term (1 3)"),
        ("jm-annihilation", False, 1, 0, "first term (1 3)"),
        ("branching", False, 4, 4, "first term (1 3)"),
        ("jm-annihilation", False, 1, 0, "first term (1 3)"),
        ("branching", False, 6, 6, "first term (1 3)"),
        ("jm-annihilation", False, 1, 0, "first term (1 3)"),
    ]

    def tableau_dependent(T, m):
        # +e[1,1] for [[1,2],[3]], -e[1,1] for [[1,3],[2]]: the symbol of +-E[1,1]
        return immanant_symbol(T, m) + T.content(2) * SymbolAlgebra(m).var(1, 1)

    monkeypatch.setattr(identities, "ga_multiply", ga)
    monkeypatch.setattr(identities, "_immanant_symbol", tableau_dependent)
    fields = [
        (r.case.split()[0], r.outcome, r.lhs_terms, r.rhs_terms, r.first_diff)
        for r in verify_corollary(part("2,1"), 2, 2)
    ]
    assert fields == [
        ("corollary", False, 18, 16, "trace differs, first monomial x[1,1] D[1,1]"),
        ("corollary", False, 18, 16, "trace differs, first monomial x[1,1] D[1,1]"),
        ("corollary-T-independence", False, 18, 18,
         "traced left side depends on the tableau"),
    ]


def test_a_report_is_an_immutable_record_with_a_fixed_dict():
    report = VerificationReport("theorem x", True, 3, 3, None, 1.23456)
    assert report == VerificationReport(
        case="theorem x", outcome=True, lhs_terms=3, rhs_terms=3, first_diff=None, millis=1.23456
    )
    assert (report.case, report.outcome, report.lhs_terms, report.rhs_terms) == (
        "theorem x", True, 3, 3,
    )
    assert report.first_diff is None and report.millis == 1.23456
    assert list(report.to_dict().items()) == [
        ("case", "theorem x"),
        ("outcome", "pass"),
        ("lhs_terms", 3),
        ("rhs_terms", 3),
        ("first_diff", None),
        ("millis", 1.235),
    ]
    failed = VerificationReport("y", False, 1, 2, "at key", 0.0004)
    assert failed.to_dict()["outcome"] == "fail" and failed.to_dict()["millis"] == 0.0
    assert repr(failed) == (
        "VerificationReport(case='y', outcome=False, lhs_terms=1, rhs_terms=2,"
        " first_diff='at key', millis=0.0004)"
    )
    with pytest.raises(AttributeError):
        report.outcome = False
    with pytest.raises(AttributeError):
        report.note = "x"
