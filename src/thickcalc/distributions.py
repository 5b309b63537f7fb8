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
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import MisclassifiedPowerError, PointMismatchError
from .sphere import FrozenRecord, SpherePair, SphereDistribution, exact, g_lambda, ratio
from .testfn import Multiplier, derivative as fn_derivative, heaviside_multiplier


def _normalize_power(lam):
    """Exact integers go to the integer branch; everything else keeps its type.

    An exact power is taken as ``exact`` gives it, so a Fraction that happens
    to be integral *is* an exact integer.  Floats are never demoted: the
    caller who wants the integer-case formulas must say so exactly.
    """
    if isinstance(lam, bool):
        raise TypeError("power must be a number")
    if isinstance(lam, (int, Fraction)):
        return exact(lam)
    if isinstance(lam, float):
        if not math.isfinite(lam):
            raise ValueError(f"power must be finite, got {lam!r}")
        return lam
    raise TypeError(f"power must be int, Fraction or float, got {type(lam).__name__}")


class PfDensity(FrozenRecord):
    """Finite-part regularization of the density pair(w) * r^power."""

    __slots__ = ("pair", "power", "point")

    def __init__(self, pair: SpherePair, power: Union[int, Fraction, float], point=0):
        pair = pair if isinstance(pair, SpherePair) else SpherePair(*pair)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "power", _normalize_power(power))
        object.__setattr__(self, "point", exact(point))

    @property
    def integral_power(self) -> bool:
        return isinstance(self.power, int)


class ThickDelta(FrozenRecord):
    """Extracts the degree-q expansion coefficient, weighted on the two sides."""

    __slots__ = ("weights", "degree", "point")

    def __init__(self, weights: SphereDistribution, degree: int, point=0):
        if isinstance(weights, SpherePair):
            weights = SphereDistribution(weights)
        elif not isinstance(weights, SphereDistribution):
            weights = SphereDistribution(SpherePair(*weights))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "point", exact(point))


class Derivative(FrozenRecord):
    __slots__ = ("inner",)

    def __init__(self, inner: "ThickDistribution"):
        object.__setattr__(self, "inner", inner)

    @property
    def point(self):
        return self.inner.point


class MultiplierProduct(FrozenRecord):
    __slots__ = ("multiplier", "inner")

    def __init__(self, multiplier: Multiplier, inner: "ThickDistribution"):
        if multiplier.point != inner.point:
            raise PointMismatchError(
                "multiplier and distribution live at different thick points"
            )
        object.__setattr__(self, "multiplier", multiplier)
        object.__setattr__(self, "inner", inner)

    @property
    def point(self):
        return self.inner.point


class LinearCombination(FrozenRecord):
    __slots__ = ("terms",)

    def __init__(self, terms: Tuple[Tuple[Fraction, "ThickDistribution"], ...]):
        terms = tuple((exact(c), d) for c, d in terms)
        points = {d.point for _, d in terms}
        if len(points) > 1:
            raise PointMismatchError("cannot combine distributions at different thick points")
        object.__setattr__(self, "terms", terms)

    @property
    def point(self):
        return self.terms[0][1].point if self.terms else 0


class Translate(FrozenRecord):
    """f(x + shift); a distribution at point a moves to a - shift."""

    __slots__ = ("inner", "shift")

    def __init__(self, inner: "ThickDistribution", shift):
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "shift", exact(shift))

    @property
    def point(self):
        return exact(self.inner.point - self.shift)


class Dilate(FrozenRecord):
    """f(factor * x); the thick point moves from a to a / factor."""

    __slots__ = ("inner", "factor")

    def __init__(self, inner: "ThickDistribution", factor):
        f = exact(factor)
        if f == 0:
            raise ValueError("dilation factor must be nonzero")
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "factor", f)

    @property
    def point(self):
        return ratio(self.inner.point, self.factor)


#: The node types of a distribution tree.
DISTRIBUTION_TYPES = (PfDensity, ThickDelta, Derivative, MultiplierProduct,
                      LinearCombination, Translate, Dilate)
ThickDistribution = Union[DISTRIBUTION_TYPES]

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
    lam = exact(lam)
    if not 0 <= lam <= 1:
        warnings.warn(
            f"side weight {lam} outside [0, 1]: pairing is still defined but no "
            "longer a convex combination of the one-sided values",
            stacklevel=2,
        )
    return ThickDelta(g_lambda(lam), degree, point)


def is_heaviside_pf(f) -> bool:
    return isinstance(f, PfDensity) and f.power == 0 and f.pair == SpherePair(1, 0)


_HEAVISIDE_BODY = heaviside_multiplier().body


def _is_heaviside_multiplier(psi: Multiplier) -> bool:
    return psi.body == _HEAVISIDE_BODY


def density_derivative(f: PfDensity) -> ThickDistribution:
    """d*f, integrated by parts in the finite-part sense (Estrada & Kanwal,
    *A Distributional Approach to Asymptotics*, 2002):

        d*(Pf(c(w) r^lam)) = Pf((lam c+, -lam c-) r^(lam-1))
                             + [-lam = q >= 0] ThickDelta((2c+, -2c-), q)

    The delta term is the finite part of the boundary term eps^lam phi(+-eps),
    its weights taken through the 1/2 delta normalization; the Pf term
    vanishes at lam = 0 and is dropped.  So d*(Pf(H(x))) is glambda(1)·delta[0].
    A float power is taken as the decimal it prints as, so the derivatives of
    Pf(|x|^1.6) carry 8/5 and the power 0.6, not their binary expansions.
    """
    lam, c = f.power, f.pair
    if not f.integral_power and lam <= 0 and lam == int(lam):
        raise MisclassifiedPowerError(
            f"power {lam!r} behaves as the integer {int(lam)}, whose derivative has a "
            "delta term; pass it as an exact int or Fraction"
        )
    terms = []
    if lam != 0:
        k = exact(repr(lam)) if isinstance(lam, float) else lam
        power = float(k - 1) if isinstance(lam, float) else lam - 1
        terms.append(PfDensity(SpherePair(k * c.plus, -k * c.minus), power, f.point))
    if f.integral_power and lam <= 0:
        terms.append(ThickDelta(SpherePair(2 * c.plus, -2 * c.minus), -lam, f.point))
    if len(terms) == 1:
        return terms[0]
    return LinearCombination(tuple((1, t) for t in terms))


def delta_derivative(f: ThickDelta) -> ThickDelta:
    """d*delta_q[w] = delta_(q+1)[(-(q+1) w+, (q+1) w-)]: minus the pairing
    with phi', whose degree-q coefficient is ((q+1) a+, -(q+1) a-) at degree
    q + 1 (``expansion.differentiate``)."""
    w, q = f.weights.weights, f.degree
    return ThickDelta(SpherePair(-(q + 1) * w.plus, (q + 1) * w.minus), q + 1, f.point)


def derivative_rule(g: ThickDistribution) -> Optional[ThickDistribution]:
    """d*g moved onto g: ``density_derivative`` for a density,
    ``delta_derivative`` for a delta, d* of each term for a combination; None
    for any other node, whose d* has no rule of its own."""
    if isinstance(g, PfDensity):
        return density_derivative(g)
    if isinstance(g, ThickDelta):
        return delta_derivative(g)
    if isinstance(g, LinearCombination):
        return LinearCombination(tuple((c, Derivative(d)) for c, d in g.terms))
    return None


def nested_derivative(f: ThickDistribution, k: int) -> ThickDistribution:
    """d*^k f, as k nested Derivative nodes."""
    for _ in range(k):
        f = Derivative(f)
    return f


# -- simplify -----------------------------------------------------------------


def simplify(f: ThickDistribution) -> ThickDistribution:
    """Conservative rewriting to a normal form; pairing never needs it.

    Rules: H * Pf(H) collapses; a derivative of a density, a delta or a
    linear combination takes ``derivative_rule`` (a density gives a Pf term
    plus, at integer powers -q <= 0, a degree-q delta, so d*(Pf(H)) is the
    one-sided delta; a degree-q delta gives a degree-(q+1) delta); a
    derivative distributes over a multiplier product by the product rule
    (the multiplier differentiated in the ordinary sense, away from the
    thick point); nested linear combinations flatten and merge like terms
    (deltas of one degree add their weights, densities of one power their
    pairs, other equal terms their coefficients, and zero terms drop out);
    stacked translations merge.
    """
    return _simplify(f)


def _simplify(f):
    if isinstance(f, (PfDensity, ThickDelta)):
        return f
    if isinstance(f, Derivative):
        inner = _simplify(f.inner)
        moved = derivative_rule(inner)
        if moved is not None:
            return _simplify(moved)
        if isinstance(inner, MultiplierProduct):
            dpsi = fn_derivative(inner.multiplier)
            terms = []
            if not dpsi.is_zero():
                terms.append((1, _simplify(MultiplierProduct(dpsi, inner.inner))))
            terms.append((1, _simplify(
                MultiplierProduct(inner.multiplier, _simplify(Derivative(inner.inner))))))
            return _simplify(LinearCombination(tuple(terms)))
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
            if isinstance(d, LinearCombination):
                flat.extend((c * c2, d2) for c2, d2 in d.terms)
            else:
                flat.append((c, d))
        merged = {}  # like-term key -> (coefficient, term)
        for c, d in flat:
            key = _like_key(d)
            merged[key] = _merge(merged[key], c, d) if key in merged else (c, d)
        flat = [(c, d) for c, d in merged.values() if c != 0 and not _is_zero_leaf(d)]
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


def _like_key(d):
    """Terms of one combination (one point) merge by key: deltas by degree,
    densities by power and its type (2 and 2.0 stay apart), others by equality."""
    if isinstance(d, ThickDelta):
        return ThickDelta, d.degree
    if isinstance(d, PfDensity):
        return PfDensity, type(d.power), d.power
    return d


def _merge(first, c, d):
    """The term (c0, d0) plus c * d, for d of the same key as d0."""
    c0, d0 = first
    if isinstance(d, ThickDelta):
        weights = d0.weights.weights * c0 + d.weights.weights * c
        return 1, ThickDelta(weights, d.degree, d.point)
    if isinstance(d, PfDensity):
        return 1, PfDensity(d0.pair * c0 + d.pair * c, d.power, d.point)
    return c0 + c, d0


def _is_zero_leaf(d) -> bool:
    return (isinstance(d, ThickDelta) and d.weights.weights.is_zero()) \
        or (isinstance(d, PfDensity) and d.pair.is_zero())


# -- projection ------------------------------------------------------------------


class ClassicalDistributionView(FrozenRecord):
    """The same functional, restricted to test functions that are smooth
    across the thick point.  Pairing goes through the thick machinery, the
    view only gates the argument type."""

    __slots__ = ("source",)

    def __init__(self, source: ThickDistribution):
        object.__setattr__(self, "source", source)

    @property
    def point(self):
        return self.source.point


def project(f: ThickDistribution) -> ClassicalDistributionView:
    return ClassicalDistributionView(f)
