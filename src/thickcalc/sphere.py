"""Exact arithmetic on the two-point sphere {+1, -1}.

A function on the 0-sphere is just an ordered pair of values (the value on
the positive side and the value on the negative side).  So is a
distribution g on it, such as the weights of a thick delta: a pair of side
weights, acting on a pair a by the counting-measure integral of the product,
``(g * a).plus + (g * a).minus``.  Everything here is exact rational arithmetic so
that the algebra built on top can be tested with straight equality.

An exact scalar is an ``int`` when it is integral and a ``Fraction`` only
otherwise (``exact``): most are small integers, whose arithmetic and hashing
are fast as ints, and an int and the equal Fraction compare and hash alike.
``/`` and a negative ``**`` make floats of ints, so exact quotients go through
``ratio``.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter
from typing import Union

from .errors import NonFiniteError

Rational = Union[int, Fraction]

#: Most digits of an integer read or printed: Python's default ``int()`` and
#: ``str()`` limit, held here whatever limit the interpreter is set to.
MAX_INT_DIGITS = 4300


def exact(x) -> Rational:
    """The exact scalar of ``x``: an int when it is integral, else a Fraction.

    Takes ints (bools become 0 and 1), Fractions, decimal strings and floats;
    a float converts to its exact binary value, and a non-finite one is a
    ValueError."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"number must be finite, got {x!r}")
        return int(x) if x.is_integer() else Fraction(x)
    if isinstance(x, str):
        return exact(Fraction(x))
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


def ratio(a, b) -> Rational:
    """The exact quotient a / b of two exact scalars, as ``exact`` gives it."""
    return exact(Fraction(a, b))


def number_text(x) -> str:
    """``str(x)`` of a number; an int, or a Fraction's numerator or denominator,
    of more than MAX_INT_DIGITS digits is a NonFiniteError.  Past 640 digits,
    where ``str()`` obeys the interpreter's limit, ``Decimal`` writes them."""
    if type(x) is Fraction and x.denominator != 1:
        return f"{number_text(x.numerator)}/{number_text(x.denominator)}"
    if type(x) is not int or x.bit_length() <= 2126:  # a float, or below 10^640
        return str(x)
    if x.bit_length() > 14285 or len(str(Decimal(abs(x)))) > MAX_INT_DIGITS:  # 2^14285 > 10^4300
        raise NonFiniteError(f"exact number longer than {MAX_INT_DIGITS} digits")
    return str(Decimal(x))


class Record:
    """Base of the small record types.  The fields are the ``__slots__`` of
    the class whose names do not start with ``_`` (those hold caches), named
    in ``_field_names`` and read through one ``attrgetter``: records of one
    class with equal fields are equal, and the repr is
    ``Name(field=value, ...)``."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls.__slots__:
            cls._field_names = tuple(n for n in cls.__slots__ if not n.startswith("_"))
            cls._fields = attrgetter(*cls._field_names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __repr__(self):
        names = self._field_names
        values = self._fields(self) if len(names) > 1 else (self._fields(self),)
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable record: hashable over its fields, which cannot be
    assigned or deleted once ``__init__`` has set them."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SpherePair(FrozenRecord):
    """Values of a function on the two-point sphere: (value at +1, value at -1)."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus, minus):
        # exact returns an int as it is
        object.__setattr__(self, "plus", plus if type(plus) is int else exact(plus))
        object.__setattr__(self, "minus", minus if type(minus) is int else exact(minus))

    def at(self, w: int) -> Rational:
        if w == 1:
            return self.plus
        if w == -1:
            return self.minus
        raise ValueError(f"sphere point must be +1 or -1, got {w}")

    def is_zero(self) -> bool:
        return self.plus == 0 and self.minus == 0

    def is_even(self) -> bool:
        return self.plus == self.minus

    def is_odd(self) -> bool:
        return self.plus == -self.minus

    def __add__(self, other: "SpherePair") -> "SpherePair":
        return SpherePair(self.plus + other.plus, self.minus + other.minus)

    def __sub__(self, other: "SpherePair") -> "SpherePair":
        return SpherePair(self.plus - other.plus, self.minus - other.minus)

    def __neg__(self) -> "SpherePair":
        return SpherePair(-self.plus, -self.minus)

    def __mul__(self, other):
        if isinstance(other, SpherePair):
            return SpherePair(self.plus * other.plus, self.minus * other.minus)
        other = exact(other)
        return SpherePair(self.plus * other, self.minus * other)

    def __rmul__(self, other):
        return self.__mul__(other)


ZERO_PAIR = SpherePair(0, 0)
ONE_PAIR = SpherePair(1, 1)


def parity_pair(value, order: int) -> SpherePair:
    """The pair representing value * x^order restricted to the two sides.

    Even orders give an even pair, odd orders flip the sign on the
    negative side.
    """
    v = exact(value)
    return SpherePair(v, v if order % 2 == 0 else -v)


def g_lambda(lam) -> SpherePair:
    """Weights (2*lam, 2*(1-lam)); paired through the 1/2 delta normalization
    this interpolates between the two one-sided evaluations."""
    n, d = exact(lam).as_integer_ratio()
    return SpherePair(ratio(2 * n, d), ratio(2 * (d - n), d))
