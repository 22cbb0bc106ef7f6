"""Exact rational coefficients, stored as plain int whenever integral; the
``Value`` base of every value class of the library; the sparse linear
combination that every element type is built on; and the handle that makes
one such algebra a coefficient algebra, the one kind of coefficient a
library ``TensorElement`` holds.

Python promotes mixed int/Fraction arithmetic to Fraction and compares the
two representations equal, so keeping integers unwrapped costs nothing in
correctness and saves most of the Fraction overhead in the hot loops.
``SparseElement._store`` is the one place coefficients are stored, and it
unwraps every integral Fraction there.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Iterator
from fractions import Fraction

__all__ = ["as_exact", "as_int", "Value", "SparseElement", "CoefficientAlgebra"]


def as_exact(value) -> int | Fraction:
    """Coerce a ``numbers.Rational`` to int if integral, Fraction otherwise;
    a float, Decimal, string or any other value raises TypeError."""
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise TypeError("floating point coefficients are not allowed")
    if not isinstance(value, numbers.Rational):
        raise TypeError(f"expected a rational number, got {value!r}")
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


def as_int(value) -> int:
    """Check an integer entry: bool, float and every other non-int are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer, got {value!r}")


class Value:
    """An immutable slotted value: its fields are the slots of the first
    class in its hierarchy that declares any, read by ``_fields``.

    Two values are equal exactly when their classes and fields are, and a
    value hashes by its fields; a class of unhashable values sets
    ``__hash__ = None``. Fields are set once, by a constructor or a ``_raw``
    fast path through ``object.__setattr__``; setting or deleting any
    attribute afterwards raises ``AttributeError``. ``copy``, ``deepcopy``
    and ``pickle`` rebuild a value from every slot it has set, without its
    constructor, so a slot outside the fields survives them too.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls.__dict__.get("__slots__") and not hasattr(cls, "_fields"):
            cls._fields = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other) -> bool:
        fields = self._fields
        return type(other) is type(self) and fields(self) == fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        slots = {}
        for cls in type(self).__mro__:
            for name in cls.__dict__.get("__slots__", ()):
                if hasattr(self, name):
                    slots[name] = getattr(self, name)
        return _rebuilt, (type(self), slots)


def _rebuilt(cls, slots: dict) -> Value:
    value = object.__new__(cls)
    for name, field in slots.items():
        object.__setattr__(value, name, field)
    return value


class SparseElement(Value):
    """A sparse linear combination of basis keys in one space: an
    unhashable ``Value`` whose fields are ``_space`` and ``_terms``.

    ``_space`` is a tuple naming the space (a degree, a grid, a rank, a
    tensor shape); elements combine only with elements of the same space.
    ``_terms`` maps keys to nonzero coefficients, so ``==`` is a syntactic
    check on the canonical form. Coefficients are exact rationals, except in
    ``TensorElement``, whose coefficients live in an algebra.

    A subclass supplies its product as a rule on basis keys handed to
    ``_product``, ``_key`` (key validation), ``_unit`` (the key of the unit,
    for ``one``), ``_format_key``, ``_MISMATCH`` (the error message for
    mixed spaces, formatted with both spaces) and ``_DESCENDING`` (the order
    of ``support``, which is also the printing order).
    """

    __slots__ = ("_space", "_terms")

    __hash__ = None
    _DESCENDING = False
    _coerce = staticmethod(as_exact)  # applied to constructor coefficients

    def __init__(self, space: tuple, terms: dict | None):
        clean = {}
        for key, c in (terms or {}).items():
            key = self._key(space, key)
            c = self._coerce(c)
            if c:
                clean[key] = c
        self._store(space, clean)

    def _store(self, space: tuple, terms: dict) -> None:
        # the single point where coefficients are stored: unwrap integral
        # Fractions, once per key (replacing values keeps the iteration valid)
        for key, c in terms.items():
            if type(c) is Fraction and c.denominator == 1:
                terms[key] = c.numerator
        object.__setattr__(self, "_space", space)
        object.__setattr__(self, "_terms", terms)

    @classmethod
    def _raw(cls, space: tuple, terms: dict):
        # fast path: keys already valid for the space, no zero coefficients;
        # takes ownership of ``terms``
        u = object.__new__(cls)
        u._store(space, terms)
        return u

    @classmethod
    def zero(cls, *space):
        return cls._raw(space, {})

    @classmethod
    def one(cls, *space):
        return cls._raw(space, {cls._unit(space): 1})

    def items(self) -> Iterator[tuple]:
        return iter(self._terms.items())

    def coefficient(self, key):
        return self._terms.get(key, 0)

    def support(self) -> list:
        return sorted(self._terms, reverse=self._DESCENDING)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _check(self, other: SparseElement) -> None:
        if self._space != other._space:
            raise ValueError(self._MISMATCH.format(self._space, other._space))

    def __add__(self, other):
        self._check(other)
        return self._scaled_sum([(1, self), (1, other)])

    def __sub__(self, other):
        self._check(other)
        return self._scaled_sum([(1, self), (-1, other)])

    def __neg__(self):
        return self._raw(self._space, {key: -c for key, c in self._terms.items()})

    def __rmul__(self, scalar):
        # an integral Fraction product is unwrapped by _store
        scalar = as_exact(scalar)
        if not scalar:
            return self._raw(self._space, {})
        return self._raw(self._space, {key: scalar * c for key, c in self._terms.items()})

    def _product(u, v, rule):
        # bilinear extension of rule(key_u, key_v), which yields (key, c)
        # pairs; keys that cancel are dropped as the sum goes
        u._check(v)
        terms = {}
        for key_u, cu in u._terms.items():
            for key_v, cv in v._terms.items():
                scale = cu * cv
                for key, c in rule(key_u, key_v):
                    c = terms.get(key, 0) + scale * c
                    if c:
                        terms[key] = c
                    else:
                        terms.pop(key, None)
        return u._raw(u._space, terms)

    @classmethod
    def _scaled_sum(cls, pairs):
        # sum of scale * element over (nonzero rational scale, element)
        # pairs, merged term by term in one pass; a coefficient is multiplied
        # only when its scale is not 1, and _store unwraps every integral
        # Fraction result
        terms = {}
        for scale, element in pairs:
            for key, c in element._terms.items():
                if scale != 1:
                    c = scale * c
                if key in terms:
                    c = terms[key] + c
                    if not c:
                        del terms[key]
                        continue
                terms[key] = c
        return cls._raw(pairs[0][1]._space, terms)

    def __str__(self) -> str:
        # signed terms in support order; an empty word is the unit
        if not self._terms:
            return "0"
        out = []
        for idx, key in enumerate(self.support()):
            c = self._terms[key]
            word = self._format_key(key)
            mag = abs(c)
            body = word if (mag == 1 and word) else (f"{mag} {word}" if word else str(mag))
            if idx == 0:
                out.append(body if c > 0 else f"-{body}")
            else:
                out.append(f" {'-' if c < 0 else '+'} {body}")
        return "".join(out)


class CoefficientAlgebra(Value):
    """A handle on one algebra of ``SparseElement``s, usable as the
    coefficient algebra of a ``TensorElement``.

    A handle is a hashable ``Value`` whose fields are the space of its class
    attribute ``element``: a subclass lists the entries of that space in
    ``__slots__``, in order, sets them in its ``__init__``, and adds only its
    generators. ``TensorElement`` and its functions use ``zero``, ``one`` and
    ``scaled_sum`` (of a list of (nonzero rational, value) pairs, zero when
    empty); a constant c is ``c * one()``.
    """

    __slots__ = ()

    element: type[SparseElement]

    def _space(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def zero(self):
        return self.element.zero(*self._space())

    def one(self):
        return self.element.one(*self._space())

    def scaled_sum(self, pairs):
        return self.element._scaled_sum(pairs) if pairs else self.zero()
