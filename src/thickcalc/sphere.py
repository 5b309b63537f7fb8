"""Exact arithmetic on the two-point sphere {+1, -1}.

A function on the 0-sphere is just an ordered pair of values (the value on
the positive side and the value on the negative side).  Everything here is
exact rational arithmetic so that the expansion algebra built on top can be
tested with straight equality.

An exact scalar is an ``int`` when it is integral and a ``Fraction`` only
otherwise (``exact``): most are small integers, whose arithmetic and hashing
are fast as ints, and an int and the equal Fraction compare and hash alike.
``/`` and a negative ``**`` make floats of ints, so exact quotients go through
``ratio``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter
from typing import Union

Rational = Union[int, Fraction]


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


class Record:
    """Base of the small record types.  The fields are the ``__slots__`` of
    the class, read through one ``attrgetter``: records of one class with
    equal fields are equal, and the repr is ``Name(field=value, ...)``."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls.__slots__:
            cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __repr__(self):
        values = self._fields(self) if len(self.__slots__) > 1 else (self._fields(self),)
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, values))
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
        object.__setattr__(self, "plus", exact(plus))
        object.__setattr__(self, "minus", exact(minus))

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

    def even_part(self) -> "SpherePair":
        h = ratio(self.plus + self.minus, 2)
        return SpherePair(h, h)

    def odd_part(self) -> "SpherePair":
        h = ratio(self.plus - self.minus, 2)
        return SpherePair(h, -h)

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

    def __str__(self):
        return f"({self.plus}|{self.minus})"


ZERO_PAIR = SpherePair(0, 0)
ONE_PAIR = SpherePair(1, 1)


def parity_pair(value, order: int) -> SpherePair:
    """The pair representing value * x^order restricted to the two sides.

    Even orders give an even pair, odd orders flip the sign on the
    negative side.
    """
    v = exact(value)
    return SpherePair(v, v if order % 2 == 0 else -v)


def integrate_sphere(f: SpherePair) -> Rational:
    """Counting-measure integral over the two points; total mass is 2."""
    return f.plus + f.minus


#: Total measure of the 0-sphere under the counting-measure convention; a
#: Fraction, so that a delta pairing (its weighted sum over this) is one.
SPHERE_MEASURE = Fraction(2)


class SphereDistribution(FrozenRecord):
    """A linear functional on sphere pairs, stored as its two pairing weights.

    ``pair(a) = weights.plus * a.plus + weights.minus * a.minus``.  The
    weights are stored directly; convention factors (like the factor 2 in
    ``g_lambda``) are baked into the constructors below.
    """

    __slots__ = ("weights",)

    def __init__(self, weights: SpherePair):
        object.__setattr__(self, "weights", weights)

    def pair(self, a: SpherePair) -> Rational:
        return self.weights.plus * a.plus + self.weights.minus * a.minus


def g_one() -> SphereDistribution:
    """The constant density 1: pairing reduces to integrate_sphere."""
    return SphereDistribution(SpherePair(1, 1))


def g_lambda(lam) -> SphereDistribution:
    """Weights (2*lam, 2*(1-lam)); paired through the 1/2 delta normalization
    this interpolates between the two one-sided evaluations."""
    lam = exact(lam)
    return SphereDistribution(SpherePair(2 * lam, 2 * (1 - lam)))
