"""The distribution algebra: a closed tagged tree of constructors.

Leaves are finite-part densities ``Pf(c(w) r^lambda)`` and point
concentrations ``ThickDelta(g, q)``; inner nodes apply derivatives,
multiplier products, linear combination, translation and dilation.  Trees are
immutable; ``simplify`` applies a small conservative rewrite set and is never
required for evaluation.

Being immutable, a node keeps what is derived from it in ``_`` slots, lazy
caches that stay unset until first read and are never fields: ``_derivative``
(``derivative_rule``), ``_moved`` on a product (``multiplier_rule``) and
``_text`` (``dsl.print_distribution``).  A computation that raises keeps nothing.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import MisclassifiedPowerError, NonFiniteError, PointMismatchError
from .sphere import FrozenRecord, SpherePair, exact, g_lambda, ratio
from .testfn import Multiplier, derivative as fn_derivative


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

    __slots__ = ("pair", "power", "point", "_derivative", "_text")

    def __init__(self, pair: SpherePair, power: Union[int, Fraction, float], point=0):
        pair = pair if isinstance(pair, SpherePair) else SpherePair(*pair)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "power", _normalize_power(power))
        object.__setattr__(self, "point", exact(point))

    @property
    def integral_power(self) -> bool:
        return isinstance(self.power, int)


class ThickDelta(FrozenRecord):
    """Extracts the degree-q expansion coefficient, weighted on the two sides
    by ``weights``, a SpherePair or a (plus, minus) tuple."""

    __slots__ = ("weights", "degree", "point", "_derivative", "_text")

    def __init__(self, weights: SpherePair, degree: int, point=0):
        weights = weights if isinstance(weights, SpherePair) else SpherePair(*weights)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "point", exact(point))


class Derivative(FrozenRecord):
    __slots__ = ("inner", "_derivative", "_text")

    def __init__(self, inner: "ThickDistribution"):
        object.__setattr__(self, "inner", inner)

    @property
    def point(self):
        return self.inner.point


class MultiplierProduct(FrozenRecord):
    """multiplier * inner, a product inside taken in: psi1 * (psi2 * f) is (psi1 psi2) * f."""

    __slots__ = ("multiplier", "inner", "_derivative", "_moved", "_text")

    def __init__(self, multiplier: Multiplier, inner: "ThickDistribution"):
        if multiplier.point != inner.point:
            raise PointMismatchError(
                "multiplier and distribution live at different thick points"
            )
        if isinstance(inner, MultiplierProduct):
            multiplier, inner = multiplier * inner.multiplier, inner.inner
        object.__setattr__(self, "multiplier", multiplier)
        object.__setattr__(self, "inner", inner)

    @property
    def point(self):
        return self.inner.point


class LinearCombination(FrozenRecord):
    """The sum of coefficient * distribution over ``terms``, flat and zero-free
    by construction: a nested combination's terms are spliced in, times its
    coefficient, and zero terms drop out; the rest share one thick point."""

    __slots__ = ("terms", "_derivative", "_text")

    def __init__(self, terms: Tuple[Tuple[Fraction, "ThickDistribution"], ...]):
        flat = []
        for c, d in terms:
            c = exact(c)
            if isinstance(d, LinearCombination):
                flat.extend((exact(c * c2), d2) for c2, d2 in d.terms)
            else:
                flat.append((c, d))
        terms = tuple((c, d) for c, d in flat if c != 0)
        points = {d.point for _, d in terms}
        if len(points) > 1:
            raise PointMismatchError("cannot combine distributions at different thick points")
        object.__setattr__(self, "terms", terms)

    @property
    def point(self):
        return self.terms[0][1].point if self.terms else 0


class Translate(FrozenRecord):
    """f(x + shift); a distribution at point a moves to a - shift."""

    __slots__ = ("inner", "shift", "_derivative", "_text")

    def __init__(self, inner: "ThickDistribution", shift):
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "shift", exact(shift))

    @property
    def point(self):
        return exact(self.inner.point - self.shift)


class Dilate(FrozenRecord):
    """f(factor * x); the thick point moves from a to a / factor."""

    __slots__ = ("inner", "factor", "_derivative", "_text")

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
    return ThickDelta(SpherePair(1, 1), 0, point)


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


def _shifted(lam, j):
    """The power lam + j, of lam's kind; a float power is shifted as the
    decimal it prints as, so -0.7 + 1 is 0.3, not 0.30000000000000004."""
    if not isinstance(lam, float):
        return lam + j
    try:
        return float(exact(repr(lam)) + j)
    except OverflowError:
        raise NonFiniteError("shifted power out of the float range") from None


def density_derivative(f: PfDensity) -> ThickDistribution:
    """d*f, integrated by parts in the finite-part sense (Estrada & Kanwal,
    *A Distributional Approach to Asymptotics*, 2002):

        d*(Pf(c(w) r^lam)) = Pf((lam c+, -lam c-) r^(lam-1))
                             + [lam integral] ThickDelta((2c+, -2c-), -lam)

    The delta term is the finite part of the boundary term eps^lam phi(+-eps),
    its weights taken through the 1/2 delta normalization; at lam > 0 its
    degree is negative, and it reads a coefficient that only a test function
    with negative orders has.  The Pf term vanishes at lam = 0 and is
    dropped.  So d*(Pf(H(x))) is glambda(1)·delta[0].
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
        terms.append(PfDensity(SpherePair(k * c.plus, -k * c.minus), _shifted(lam, -1), f.point))
    if f.integral_power:
        terms.append(ThickDelta(SpherePair(2 * c.plus, -2 * c.minus), -lam, f.point))
    if len(terms) == 1:
        return terms[0]
    return LinearCombination(tuple((1, t) for t in terms))


def delta_derivative(f: ThickDelta) -> ThickDelta:
    """d*delta_q[w] = delta_(q+1)[(-(q+1) w+, (q+1) w-)]: minus the pairing
    with phi', whose degree-q coefficient is ((q+1) a+, -(q+1) a-) at degree
    q + 1 (``expansion.differentiate``)."""
    w, q = f.weights, f.degree
    return ThickDelta(SpherePair(-(q + 1) * w.plus, (q + 1) * w.minus), q + 1, f.point)


def multiplier_rule(g: ThickDistribution) -> Optional[ThickDistribution]:
    """psi·f moved onto the leaf f, for psi = p(w) r^j: delta_q[w] gives
    delta_(q-j)[w·p] (the degree-q coefficient of psi·phi is p times phi's
    degree-(q - j) one), and Pf(c r^lam) gives Pf(c·p r^(lam+j)) (psi·phi·c r^lam
    is one integrand, so the finite parts agree); a zero psi gives a zero
    leaf.  None for a product over any other node, and for any other node.
    Kept in the product's ``_moved`` slot."""
    if not isinstance(g, MultiplierProduct):
        return None
    moved = getattr(g, "_moved", None)
    if moved is None:
        psi, f = g.multiplier, g.inner
        if isinstance(f, ThickDelta):
            moved = ThickDelta(f.weights * psi.pair, f.degree - psi.order, f.point)
        elif isinstance(f, PfDensity):
            moved = PfDensity(f.pair * psi.pair, _shifted(f.power, psi.order), f.point)
        object.__setattr__(g, "_moved", moved)
    return moved


def derivative_rule(g: ThickDistribution) -> Optional[ThickDistribution]:
    """d*g moved onto g: ``density_derivative`` for a density, ``delta_derivative``
    for a delta, d* of each term for a combination, for ``Derivative(h)`` the
    ``Derivative`` of d*h moved onto h, for psi·h the rule of the leaf that
    ``multiplier_rule`` moves it onto, or else the product rule psi'·h + psi·d*h
    (psi' taken away from the thick point); None where no rule reaches a leaf.
    Kept in g's ``_derivative`` slot."""
    moved = getattr(g, "_derivative", None)
    if moved is None and isinstance(g, DISTRIBUTION_TYPES):
        moved = _move_derivative(g)
        object.__setattr__(g, "_derivative", moved)
    return moved


def _move_derivative(g: ThickDistribution) -> Optional[ThickDistribution]:
    g = multiplier_rule(g) or g
    if isinstance(g, PfDensity):
        return density_derivative(g)
    if isinstance(g, ThickDelta):
        return delta_derivative(g)
    if isinstance(g, LinearCombination):
        return LinearCombination(tuple((c, Derivative(d)) for c, d in g.terms))
    if isinstance(g, Derivative):
        moved = derivative_rule(g.inner)
        return None if moved is None else Derivative(moved)
    if isinstance(g, MultiplierProduct):
        psi, dpsi, h = g.multiplier, fn_derivative(g.multiplier), g.inner
        # a zero psi' (of a step or a constant) drops out with its zero coefficient
        return LinearCombination(((0 if dpsi.is_zero() else 1, MultiplierProduct(dpsi, h)),
                                  (1, MultiplierProduct(psi, Derivative(h)))))
    return None


# -- simplify -----------------------------------------------------------------


def simplify(f: ThickDistribution) -> ThickDistribution:
    """Conservative rewriting to a normal form; pairing never needs it.

    Rules: a density or a delta of zero weights is zero; a product with a
    zero multiplier, or over a distribution that simplifies to zero, is
    zero, and one over a density or a delta takes
    ``multiplier_rule`` (so H * Pf(H) is Pf(H)); a derivative takes
    ``derivative_rule`` where a rule reaches (so d*(Pf(H)) is the one-sided
    delta); a linear combination merges like terms (deltas of one degree add
    their weights, densities of one power their pairs, other equal terms
    their coefficients, and zero terms drop out); stacked translations merge.
    """
    if isinstance(f, (PfDensity, ThickDelta)):
        return ZERO_DISTRIBUTION if _is_zero_leaf(f) else f
    if isinstance(f, Derivative):
        inner = simplify(f.inner)
        moved = derivative_rule(inner)
        if moved is not None:
            return simplify(moved)
        return Derivative(inner)
    if isinstance(f, MultiplierProduct):
        inner = simplify(f.inner)
        psi = f.multiplier
        if psi.is_zero() or inner == ZERO_DISTRIBUTION:
            return ZERO_DISTRIBUTION
        if psi.is_one():
            return inner
        product = MultiplierProduct(psi, inner)
        moved = multiplier_rule(product)
        return product if moved is None else simplify(moved)
    if isinstance(f, LinearCombination):
        merged = {}  # like-term key -> (coefficient, term)
        for c, d in LinearCombination(tuple((c, simplify(d)) for c, d in f.terms)).terms:
            key = _like_key(d)
            merged[key] = _merge(merged[key], c, d) if key in merged else (c, d)
        f = LinearCombination(tuple((c, d) for c, d in merged.values() if not _is_zero_leaf(d)))
        if len(f.terms) == 1 and f.terms[0][0] == 1:
            return f.terms[0][1]
        return f
    if isinstance(f, Translate):
        inner = simplify(f.inner)
        if f.shift == 0:
            return inner
        if isinstance(inner, Translate):
            return simplify(Translate(inner.inner, f.shift + inner.shift))
        return Translate(inner, f.shift)
    if isinstance(f, Dilate):
        inner = simplify(f.inner)
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
        return 1, ThickDelta(d0.weights * c0 + d.weights * c, d.degree, d.point)
    if isinstance(d, PfDensity):
        return 1, PfDensity(d0.pair * c0 + d.pair * c, d.power, d.point)
    return c0 + c, d0


def _is_zero_leaf(d) -> bool:
    return (isinstance(d, ThickDelta) and d.weights.is_zero()) \
        or (isinstance(d, PfDensity) and d.pair.is_zero())


# -- projection ------------------------------------------------------------------


class ClassicalDistributionView(FrozenRecord):
    """The same functional, restricted to test functions that are smooth
    across the thick point.  Pairing goes through the thick machinery, the
    view only gates the argument type."""

    __slots__ = ("source",)

    def __init__(self, source: ThickDistribution):
        object.__setattr__(self, "source", source)


def project(f: ThickDistribution) -> ClassicalDistributionView:
    return ClassicalDistributionView(f)
