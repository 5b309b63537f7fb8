"""The distribution algebra: a closed tagged tree of constructors.

Leaves are finite-part densities ``Pf(c(w) r^lambda)`` and point
concentrations ``ThickDelta(g, q)``; inner nodes apply derivatives,
multiplier products, linear combination, translation and dilation.  Trees are
immutable; ``simplify`` applies a small conservative rewrite set and is never
required for evaluation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from .errors import MisclassifiedPowerError, PointMismatchError
from .sphere import SpherePair, SphereDistribution, as_fraction, g_lambda
from .testfn import Monomial, Multiplier, derivative as fn_derivative


def _normalize_power(lam):
    """Exact integers go to the integer branch; everything else keeps its type.

    A Fraction that happens to be integral *is* an exact integer, so it is
    demoted to int.  Floats are never demoted: the caller who wants the
    integer-case formulas must say so exactly.
    """
    if isinstance(lam, bool):
        raise TypeError("power must be a number")
    if isinstance(lam, int):
        return lam
    if isinstance(lam, Fraction):
        return int(lam) if lam.denominator == 1 else lam
    if isinstance(lam, float):
        if not math.isfinite(lam):
            raise ValueError(f"power must be finite, got {lam!r}")
        return lam
    raise TypeError(f"power must be int, Fraction or float, got {type(lam).__name__}")


@dataclass(frozen=True)
class PfDensity:
    """Finite-part regularization of the density pair(w) * r^power."""

    pair: SpherePair
    power: Union[int, Fraction, float]
    point: Fraction = Fraction(0)

    def __post_init__(self):
        p = self.pair if isinstance(self.pair, SpherePair) else SpherePair(*self.pair)
        object.__setattr__(self, "pair", p)
        object.__setattr__(self, "power", _normalize_power(self.power))
        object.__setattr__(self, "point", as_fraction(self.point))

    @property
    def integral_power(self) -> bool:
        return isinstance(self.power, int)


@dataclass(frozen=True)
class ThickDelta:
    """Extracts the degree-q expansion coefficient, weighted on the two sides."""

    weights: SphereDistribution
    degree: int
    point: Fraction = Fraction(0)

    def __post_init__(self):
        w = self.weights
        if isinstance(w, SpherePair):
            w = SphereDistribution(w)
        elif not isinstance(w, SphereDistribution):
            w = SphereDistribution(SpherePair(*w))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "point", as_fraction(self.point))


@dataclass(frozen=True)
class Derivative:
    inner: "ThickDistribution"

    @property
    def point(self):
        return self.inner.point


@dataclass(frozen=True)
class MultiplierProduct:
    multiplier: Multiplier
    inner: "ThickDistribution"

    def __post_init__(self):
        if self.multiplier.point != self.inner.point:
            raise PointMismatchError(
                "multiplier and distribution live at different thick points"
            )

    @property
    def point(self):
        return self.inner.point


@dataclass(frozen=True)
class LinearCombination:
    terms: Tuple[Tuple[Fraction, "ThickDistribution"], ...]

    def __post_init__(self):
        terms = tuple((as_fraction(c), d) for c, d in self.terms)
        points = {d.point for _, d in terms}
        if len(points) > 1:
            raise PointMismatchError("cannot combine distributions at different thick points")
        object.__setattr__(self, "terms", terms)

    @property
    def point(self):
        return self.terms[0][1].point if self.terms else Fraction(0)


@dataclass(frozen=True)
class Translate:
    """f(x + shift); a distribution at point a moves to a - shift."""

    inner: "ThickDistribution"
    shift: Fraction

    def __post_init__(self):
        object.__setattr__(self, "shift", as_fraction(self.shift))

    @property
    def point(self):
        return self.inner.point - self.shift


@dataclass(frozen=True)
class Dilate:
    """f(factor * x); the thick point moves from a to a / factor."""

    inner: "ThickDistribution"
    factor: Fraction

    def __post_init__(self):
        f = as_fraction(self.factor)
        if f == 0:
            raise ValueError("dilation factor must be nonzero")
        object.__setattr__(self, "factor", f)

    @property
    def point(self):
        return self.inner.point / self.factor


ThickDistribution = Union[
    PfDensity, ThickDelta, Derivative, MultiplierProduct,
    LinearCombination, Translate, Dilate,
]

ZERO_DISTRIBUTION = LinearCombination(())


# -- constructors -------------------------------------------------------------


def pf_power(lam, point=0) -> PfDensity:
    """Pf(|x - a|^lam)."""
    return PfDensity(SpherePair(1, 1), lam, point)


def pf_heaviside(point=0) -> PfDensity:
    """Pf(H(x - a)): the unit step needs regularizing against thick arguments."""
    return PfDensity(SpherePair(1, 0), 0, point)


def pf_sign_power(lam, point=0) -> PfDensity:
    """Pf(sgn(x - a) |x - a|^lam)."""
    return PfDensity(SpherePair(1, -1), lam, point)


def delta_star(point=0) -> ThickDelta:
    """The plain two-sided delta: averages the order-0 coefficient."""
    return ThickDelta(SphereDistribution(SpherePair(1, 1)), 0, point)


def g_lambda_delta(lam, degree: int = 0, point=0) -> ThickDelta:
    """Weighted delta of the given degree; lam interpolates the two sides."""
    lam = as_fraction(lam)
    if not 0 <= lam <= 1:
        warnings.warn(
            f"side weight {lam} outside [0, 1]: pairing is still defined but no "
            "longer a convex combination of the one-sided values",
            stacklevel=2,
        )
    return ThickDelta(g_lambda(lam), degree, point)


def is_heaviside_pf(f) -> bool:
    return isinstance(f, PfDensity) and f.power == 0 and f.pair == SpherePair(1, 0)


def _is_heaviside_multiplier(psi: Multiplier) -> bool:
    return psi.body == Monomial(0, SpherePair(1, 0))


def density_derivative(f: PfDensity) -> ThickDistribution:
    """d*f, integrated by parts in the finite-part sense (Estrada & Kanwal,
    *A Distributional Approach to Asymptotics*, 2002):

        d*(Pf(c(w) r^lam)) = Pf((lam c+, -lam c-) r^(lam-1))
                             + [-lam = q >= 0] ThickDelta((2c+, -2c-), q)

    The delta term is the finite part of the boundary term eps^lam phi(+-eps),
    its weights taken through the 1/2 delta normalization; the Pf term
    vanishes at lam = 0 and is dropped.  So d*(Pf(H(x))) is glambda(1)·delta[0].
    """
    lam, c = f.power, f.pair
    if not f.integral_power and lam <= 0 and lam == int(lam):
        raise MisclassifiedPowerError(
            f"power {lam!r} behaves as the integer {int(lam)}, whose derivative has a "
            "delta term; pass it as an exact int or Fraction"
        )
    terms = []
    if lam != 0:
        k = as_fraction(lam)
        terms.append(PfDensity(SpherePair(k * c.plus, -k * c.minus), lam - 1, f.point))
    if f.integral_power and lam <= 0:
        terms.append(ThickDelta(SpherePair(2 * c.plus, -2 * c.minus), -lam, f.point))
    if len(terms) == 1:
        return terms[0]
    return LinearCombination(tuple((Fraction(1), t) for t in terms))


def nested_derivative(f: ThickDistribution, k: int) -> ThickDistribution:
    """d*^k f, as k nested Derivative nodes."""
    for _ in range(k):
        f = Derivative(f)
    return f


# -- simplify -----------------------------------------------------------------


def simplify(f: ThickDistribution) -> ThickDistribution:
    """Conservative rewriting to a normal form; pairing never needs it.

    Rules: H * Pf(H) collapses, derivatives distribute over multiplier
    products by the product rule (the multiplier differentiated in the
    ordinary sense, away from the thick point) and over linear combinations,
    the derivative of a density is ``density_derivative`` (a Pf term plus,
    at integer powers -q <= 0, a degree-q delta; d*(Pf(H)) is the one-sided
    delta), nested linear combinations flatten, and stacked translations
    merge.
    """
    return _simplify(f)


def _simplify(f):
    if isinstance(f, (PfDensity, ThickDelta)):
        return f
    if isinstance(f, Derivative):
        inner = _simplify(f.inner)
        if isinstance(inner, PfDensity):
            return density_derivative(inner)
        if isinstance(inner, MultiplierProduct):
            dpsi = fn_derivative(inner.multiplier)
            terms = []
            if not dpsi.is_zero():
                terms.append((Fraction(1),
                              _simplify(MultiplierProduct(dpsi, inner.inner))))
            terms.append((Fraction(1), _simplify(
                MultiplierProduct(inner.multiplier, _simplify(Derivative(inner.inner))))))
            return _simplify(LinearCombination(tuple(terms)))
        if isinstance(inner, LinearCombination):
            return _simplify(LinearCombination(
                tuple((c, Derivative(d)) for c, d in inner.terms)))
        return Derivative(inner)
    if isinstance(f, MultiplierProduct):
        inner = _simplify(f.inner)
        psi = f.multiplier
        if psi.is_zero():
            return ZERO_DISTRIBUTION
        if psi.is_one():
            return inner
        if _is_heaviside_multiplier(psi) and is_heaviside_pf(inner):
            return inner
        return MultiplierProduct(psi, inner)
    if isinstance(f, LinearCombination):
        flat = []
        for c, d in f.terms:
            d = _simplify(d)
            if c == 0:
                continue
            if isinstance(d, LinearCombination):
                flat.extend((c * c2, d2) for c2, d2 in d.terms)
            else:
                flat.append((c, d))
        if len(flat) == 1 and flat[0][0] == 1:
            return flat[0][1]
        return LinearCombination(tuple(flat))
    if isinstance(f, Translate):
        inner = _simplify(f.inner)
        if f.shift == 0:
            return inner
        if isinstance(inner, Translate):
            return _simplify(Translate(inner.inner, f.shift + inner.shift))
        return Translate(inner, f.shift)
    if isinstance(f, Dilate):
        inner = _simplify(f.inner)
        if f.factor == 1:
            return inner
        return Dilate(inner, f.factor)
    raise TypeError(f"not a distribution node: {f!r}")


# -- projection ------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalDistributionView:
    """The same functional, restricted to test functions that are smooth
    across the thick point.  Pairing goes through the thick machinery, the
    view only gates the argument type."""

    source: ThickDistribution

    @property
    def point(self):
        return self.source.point


def project(f: ThickDistribution) -> ClassicalDistributionView:
    return ClassicalDistributionView(f)
