"""The exact-coefficient invariant of the shared sparse core: every stored
coefficient is a nonzero int or a non-integral Fraction, whatever produced it."""

import copy
import operator
import pickle
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from capelli.enveloping import EnvelopingAlgebra, SymbolAlgebra, UglElement, hc_eigenvalue
from capelli.exact import SparseElement, as_exact
from capelli.identities import lhs_theorem
from capelli.permutations import GroupAlgebraElement, Permutation
from capelli.tableaux import (
    Partition,
    StandardTableau,
    enumerate_standard_tableaux,
    seminormal_matrix,
)
from capelli.tensors import (
    TensorElement,
    full_trace,
    right_mul_group_algebra,
    tensor_product,
)
from capelli.weyl import WeylAlgebra, WeylElement, WeylMonomial
from oracles import RationalAlgebra

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def terms_of(keys):
    return st.dictionaries(keys, rationals, max_size=4)


@st.composite
def ga_elements(draw, degree=3):
    keys = st.permutations(range(1, degree + 1)).map(Permutation)
    return GroupAlgebraElement(degree, draw(terms_of(keys)))


@st.composite
def weyl_elements(draw, m=1, n=2):
    exps = st.tuples(*[st.integers(0, 2)] * (m * n))
    keys = st.builds(WeylMonomial, exps, exps)
    return WeylElement(m, n, draw(terms_of(keys)))


@st.composite
def ugl_elements(draw, m=2):
    keys = st.tuples(*[st.integers(0, 1)] * (m * m))
    return UglElement(m, draw(terms_of(keys)))


KINDS = {"ga": ga_elements, "weyl": weyl_elements, "ugl": ugl_elements}


def assert_canonical(u):
    for _, c in u.items():
        if isinstance(c, SparseElement):
            assert_canonical(c)
            continue
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), q=rationals)
def test_arithmetic_keeps_coefficients_canonical(kind, data, q):
    u = data.draw(KINDS[kind]())
    v = data.draw(KINDS[kind]())
    cls = type(u)
    pairs = [(q or 1, u), (Fraction(1, 2), v), (2, u)]
    scaled = cls._scaled_sum(pairs)
    plain = cls._scaled_sum([(1, u), (1, v), (1, u)])
    results = [u, u + v, u - v, -u, q * u, u * q, u * v, plain, scaled]
    for w in results:
        assert_canonical(w)
    # the value is the termwise sum
    expected = {}
    for scale, element in pairs:
        for key, c in element.items():
            expected[key] = expected.get(key, 0) + scale * c
    assert dict(scaled.items()) == {key: c for key, c in expected.items() if c}


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.integers(-6, 6), q=st.integers(1, 6))
def test_fraction_scaling_is_termwise(kind, data, p, q):
    # int and Fraction coefficients mixed; p/q also integral, negative, zero
    u = data.draw(KINDS[kind]())
    scale = Fraction(p, q)
    scaled = scale * u
    expected = {key: scale * c for key, c in u.items()}
    assert dict(scaled.items()) == {key: c for key, c in expected.items() if c}
    assert_canonical(scaled)


@pytest.mark.parametrize("kind", ["weyl", "ugl", "rational"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_right_mul_keeps_coefficients_canonical(kind, data):
    if kind == "weyl":
        algebra, entries = WeylAlgebra(1, 2), weyl_elements()
    elif kind == "ugl":
        algebra, entries = EnvelopingAlgebra(2), ugl_elements()
    else:
        algebra, entries = RationalAlgebra(), rationals
    rows = [[data.draw(entries) for _ in range(2)] for _ in range(2)]
    u = tensor_product([TensorElement.matrix(algebra, rows)] * 2)
    g = data.draw(ga_elements(degree=2))
    assert_canonical(u)
    assert_canonical(right_mul_group_algebra(u, g))


def test_scaling_unwraps_integral_fractions():
    half = GroupAlgebraElement(2, {Permutation.parse("(1 2)"): Fraction(1, 2)})
    doubled = 2 * half
    assert type(doubled.coefficient(Permutation.parse("(1 2)"))) is int


@pytest.mark.parametrize(
    "value",
    ["3", Decimal("3"), 0.5, "1e99999999", Decimal("1e99999999")],
    ids=["str", "Decimal", "float", "str-exponent", "Decimal-exponent"],
)
def test_only_rationals_are_coefficients(value):
    # as_exact refuses all but numbers.Rational, at once: Fraction would
    # parse a string or convert a Decimal, and build 10**99999999 from the
    # exponent; every coefficient, scalar and weight goes through it
    with pytest.raises(TypeError):
        as_exact(value)
    with pytest.raises(TypeError):
        GroupAlgebraElement(2, {Permutation.identity(2): value})
    with pytest.raises(TypeError):
        value * GroupAlgebraElement.one(2)
    trace = EnvelopingAlgebra(2).gen(1, 1) + EnvelopingAlgebra(2).gen(2, 2)
    with pytest.raises(TypeError):
        hc_eigenvalue(trace, [value, 1])


def test_missing_coefficient_is_int_zero():
    assert type(GroupAlgebraElement.zero(2).coefficient(Permutation.identity(2))) is int
    empty = (0, 0)
    assert type(WeylElement.zero(1, 2).coefficient(WeylMonomial(empty, empty))) is int
    assert type(UglElement.zero(1).coefficient((0,))) is int


def test_theorem_left_side_is_canonical():
    T = enumerate_standard_tableaux(Partition((2, 1)))[0]
    assert_canonical(lhs_theorem(T, T, 2, 2))


def test_rational_trace_is_int_when_integral():
    half = Fraction(1, 2)
    u = TensorElement(RationalAlgebra(), 1, 2, 2, {((1,), (1,)): half, ((2,), (2,)): half})
    assert type(full_trace(u)) is int and full_trace(u) == 1
    algebra = RationalAlgebra()
    assert type(algebra.scaled_sum([(1, half), (1, half)])) is int
    assert type(algebra.scaled_sum([(half, 4), (3, Fraction(1, 3))])) is int


HANDLES = {
    "rational": (RationalAlgebra(), Fraction(1, 3)),
    "weyl": (WeylAlgebra(2, 2), WeylAlgebra(2, 2).x(1, 2)),
    "ugl": (EnvelopingAlgebra(2), EnvelopingAlgebra(2).gen(2, 1)),
    "symbol": (SymbolAlgebra(2), SymbolAlgebra(2).var(1, 2)),
}


def stored(value):
    # the stored coefficients of an element, or a rational as it is
    return [c for _, c in value.items()] if isinstance(value, SparseElement) else [value]


@pytest.mark.parametrize("kind", sorted(HANDLES))
def test_coefficient_algebra_handle_protocol(kind):
    algebra, gen = HANDLES[kind]
    assert 0 * algebra.one() == algebra.zero()
    two = algebra.scaled_sum([(Fraction(4, 2), algebra.one())])
    assert stored(two) == [2] and type(stored(two)[0]) is int
    assert 1 * algebra.one() == algebra.one()
    values = [algebra.one(), gen, Fraction(-2, 3) * algebra.one(), gen * gen, gen]
    assert algebra.scaled_sum([(1, v) for v in values]) == reduce(operator.add, values)
    scales = [Fraction(1, 2), 3, Fraction(-5, 6), -1, Fraction(1, 2)]
    pairs = list(zip(scales, values))
    assert algebra.scaled_sum(pairs) == reduce(operator.add, (q * v for q, v in pairs))
    eye = TensorElement.identity(algebra, 2, 2)
    assert len(eye) == 4
    assert all(c == algebra.one() for _, c in eye.items())
    assert eye.coefficient((1, 2), (2, 1)) == algebra.zero()


@pytest.mark.parametrize("kind", sorted(HANDLES))
def test_an_empty_scaled_sum_is_zero(kind):
    algebra, _ = HANDLES[kind]
    assert algebra.scaled_sum([]) == algebra.zero()


def test_sum_and_difference_keep_the_coefficient_of_a_key_only_one_side_has():
    w = WeylAlgebra(2, 2)
    shared, only_u = ((1,), (1,)), ((1,), (2,))
    u = TensorElement(w, 1, 2, 2, {shared: w.one(), only_u: w.x(1, 2) + w.d(2, 1)})
    v = TensorElement(w, 1, 2, 2, {shared: w.x(1, 1)})
    kept = u.coefficient(*only_u)
    # a scale of 1 stores the (immutable) coefficient itself, not a copy
    assert (u + v).coefficient(*only_u) is kept
    assert (u - v).coefficient(*only_u) is kept
    assert (u - v).coefficient(*shared) == w.one() - w.x(1, 1)
    other = TensorElement(w, 2, 2, 2, {})
    expected = TensorElement._MISMATCH.format(u._space, other._space)
    with pytest.raises(ValueError) as plus:
        u + other
    with pytest.raises(ValueError) as minus:
        u - other
    assert str(plus.value) == str(minus.value) == expected


def test_package_exports_the_union_of_the_module_lists():
    import capelli
    from capelli import enveloping, exact, identities, permutations, tableaux, tensors, weyl

    modules = (enveloping, identities, permutations, tableaux, tensors, weyl)
    union = {name for module in modules for name in module.__all__}
    assert capelli.__all__ == sorted(union)
    assert not set(capelli.__all__) & set(exact.__all__)
    assert all(getattr(capelli, name) is getattr(module, name)
               for module in modules for name in module.__all__)
    # the test-only references live in tests/oracles.py, each accessor has
    # one name, and a trace's keys are read off the place operator itself
    absent = {"perm_tensor", "RationalAlgebra", "content", "trace_support"}
    assert not absent & set(capelli.__all__)
    assert not hasattr(TensorElement, "__matmul__")
    assert not hasattr(exact.CoefficientAlgebra, "scalar")
    assert not hasattr(tableaux.StandardTableau, "position_sequence")


def one_value_of_every_class():
    # the hashable values, then the elements and the matrix, which are not
    w, u, s = WeylAlgebra(2, 3), EnvelopingAlgebra(2), SymbolAlgebra(2)
    hashable = [Partition([2, 1]), StandardTableau([[1, 3], [2]]), Permutation([2, 3, 1]), w, u, s]
    unhashable = [
        seminormal_matrix(Partition([2, 1]), Permutation([2, 1, 3])),
        GroupAlgebraElement(3, {Permutation([2, 1, 3]): Fraction(1, 2), Permutation([1, 2, 3]): 1}),
        w.x(1, 2) * w.d(2, 3) + w.one(),
        u.gen(1, 2) * u.gen(2, 1) - Fraction(2, 3) * u.gen(1, 1),
        s.var(1, 2) * s.var(2, 1) + s.one(),
        TensorElement.matrix(s, [[s.var(1, 1), s.one()], [s.var(2, 1), s.var(2, 2)]]),
    ]
    return hashable, unhashable


def test_handles_are_values_of_their_class_and_space():
    def handles():
        return [WeylAlgebra(2, 3), WeylAlgebra(3, 2), EnvelopingAlgebra(2), SymbolAlgebra(2)]

    for i, a in enumerate(handles()):
        for j, b in enumerate(handles()):
            assert (a == b) is (i == j) and (a != b) is (i != j), (a, b)
            if i == j:
                assert hash(a) == hash(b) and a is not b
        assert copy.copy(a) == pickle.loads(pickle.dumps(a)) == a
    assert len({WeylAlgebra(2, 3), WeylAlgebra(2, 3), WeylAlgebra(3, 2)}) == 2
    assert WeylAlgebra(2, 3) != (2, 3) and SymbolAlgebra(2) != 2
    assert (WeylAlgebra(2, 3).m, WeylAlgebra(2, 3).n, SymbolAlgebra(4).m) == (2, 3, 4)
    # the space names the handle's elements
    assert WeylAlgebra(2, 3).zero() == WeylElement.zero(2, 3)
    assert EnvelopingAlgebra(2).one() == UglElement.one(2)
    # every value class shares the rule: equal by class and fields, hashed
    # by its fields where hashable, and copied or pickled to an equal value
    hashable, unhashable = one_value_of_every_class()
    values = hashable + unhashable
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) is (i == j), (a, b)
        for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(twin) is type(a) and twin == a and twin is not a, a
            assert repr(twin) == repr(a)
    for a in hashable:
        assert hash(copy.deepcopy(a)) == hash(pickle.loads(pickle.dumps(a))) == hash(a), a
    for a in unhashable:
        with pytest.raises(TypeError):
            hash(a)
    # the same fields in different classes are different values
    assert Partition([1]) != Permutation([1]) and Permutation([1]) != Partition([1])


def test_handles_are_immutable_and_keep_their_reprs():
    w, u, s = WeylAlgebra(2, 3), EnvelopingAlgebra(2), SymbolAlgebra(3)
    assert [repr(h) for h in (w, u, s)] == [
        "WeylAlgebra(m=2, n=3)",
        "EnvelopingAlgebra(m=2)",
        "SymbolAlgebra(m=3)",
    ]
    for h, name in ((w, "n"), (u, "m"), (s, "m"), (s, "element")):
        with pytest.raises(AttributeError):
            setattr(h, name, 5)
        with pytest.raises(AttributeError):
            delattr(h, name)
    with pytest.raises(AttributeError):
        s.rank = 3
    with pytest.raises(TypeError):
        WeylAlgebra(2)
    with pytest.raises(TypeError):
        SymbolAlgebra(2, 3)
    # every value refuses to set or delete any slot, or a new name, and is
    # left as it was
    hashable, unhashable = one_value_of_every_class()
    assert [repr(a) for a in hashable[:3]] == [
        "Partition([2, 1])",
        "StandardTableau([[1, 3], [2]])",
        "Permutation([2, 3, 1])",
    ]
    for a in hashable + unhashable:
        before = repr(a)
        slots = [name for cls in type(a).__mro__ for name in cls.__dict__.get("__slots__", ())]
        for name in slots + ["extra"]:
            with pytest.raises(AttributeError, match=f"^{type(a).__name__} is immutable$"):
                setattr(a, name, 5)
            with pytest.raises(AttributeError, match=f"^{type(a).__name__} is immutable$"):
                delattr(a, name)
        assert repr(a) == before


def test_import_loads_every_submodule_and_no_class_machinery():
    # a clean interpreter, without site: `import capelli` builds its classes
    # by hand, so neither dataclasses (with inspect, ast, dis) nor typing is
    # loaded; and nothing is deferred, so every submodule is loaded there
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import capelli\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "typing"}
    submodules = {"enveloping", "exact", "identities", "permutations", "tableaux",
                  "tensors", "weyl"}
    assert {f"capelli.{name}" for name in submodules} <= loaded
