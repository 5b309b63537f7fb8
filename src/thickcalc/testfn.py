"""Test functions with one thick point, as canonical sums of terms.

A test function is smooth away from its thick point, compactly supported,
and carries the expansion of its local behaviour.  Its body is a ``Body``: a
sum of terms

    pair(w) * r^j * prod_i plateau^(k_i)(R_i)

in the local coordinate y (r = |y|, w = sign y).  ``pair(w) * r^j`` covers
x^j, |x|^j, the unit step and signed powers; ``plateau^(k)(R)`` is the k-th
derivative of a smooth cutoff that is identically 1 on |y| <= R/2 and 0 on
|y| >= R.  Like terms merge in exact arithmetic and zero terms drop out, so
the body is closed under sums, scalar multiples, products and symbolic
differentiation (the Leibniz rule), derivatives are exact objects and never
numeric, and their size grows polynomially in the order.  Every built-in
constructor produces the expansion alongside the body; on the inner plateau
the expansion equals the function identically, which is what makes the
downstream pairing formulas testable with tight tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import Tuple, Union

from .errors import InsufficientOrderError, PointMismatchError
from . import expansion as xp
from .expansion import Expansion, ZERO_EXPANSION
from .sphere import ONE_PAIR, SpherePair, as_fraction, parity_pair


# -- smooth step profile -----------------------------------------------------
#
# S(t) = g(t) / (g(t) + g(1-t)) with g(t) = exp(-1/t): 0 for t <= 0, 1 for
# t >= 1, strictly increasing in between.  Derivatives are computed with
# truncated Taylor (jet) arithmetic, so they are exact up to rounding.


def _jet_var(t: float, n: int):
    jet = [0.0] * (n + 1)
    jet[0] = t
    if n >= 1:
        jet[1] = 1.0
    return jet


def _jet_mul(a, b):
    n = len(a) - 1
    return [math.fsum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]


def _jet_recip(a):
    n = len(a) - 1
    out = [0.0] * (n + 1)
    out[0] = 1.0 / a[0]
    for k in range(1, n + 1):
        out[k] = -out[0] * math.fsum(a[i] * out[k - i] for i in range(1, k + 1))
    return out


def _jet_exp(a):
    n = len(a) - 1
    out = [0.0] * (n + 1)
    out[0] = math.exp(a[0])
    for k in range(1, n + 1):
        out[k] = math.fsum(i * a[i] * out[k - i] for i in range(1, k + 1)) / k
    return out


def smoothstep_deriv(t: float, n: int) -> float:
    """n-th derivative of the profile S at t (S itself for n = 0)."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0 if n == 0 else 0.0
    if n == 0:
        # the jet path's own arithmetic at n = 0, so the bits are the same
        g1 = math.exp(-(1.0 / t))
        return g1 * (1.0 / (g1 + math.exp(-(1.0 / (1.0 - t)))))
    tj = _jet_var(t, n)
    uj = _jet_var(1.0 - t, n)
    uj[1] = -1.0
    g1 = _jet_exp([-c for c in _jet_recip(tj)])
    g2 = _jet_exp([-c for c in _jet_recip(uj)])
    s = _jet_mul(g1, _jet_recip([x + y for x, y in zip(g1, g2)]))
    return s[n] * math.factorial(n)


# -- bodies -------------------------------------------------------------------


def plateau_value(radius: float, n: int, y: float) -> float:
    """n-th derivative of the cutoff that is 1 on |y| <= radius/2 and 0 on
    |y| >= radius, at the local coordinate y."""
    t = 2.0 - 2.0 * abs(y) / radius
    if n == 0:
        return smoothstep_deriv(t, 0)
    slope = -2.0 / radius if y > 0 else 2.0 / radius
    return smoothstep_deriv(t, n) * slope ** n


@dataclass(frozen=True)
class Monomial:
    """pair(w) * r^order in the local coordinate y (r = |y|, w = sign y);
    the body of a multiplier."""

    order: int
    pair: SpherePair

    def __post_init__(self):
        object.__setattr__(self, "_fp", float(self.pair.plus))
        object.__setattr__(self, "_fm", float(self.pair.minus))

    def value(self, y: float) -> float:
        c = self._fp if y > 0 else self._fm
        if c == 0.0:
            return 0.0
        return c * abs(y) ** self.order

    def derivative(self):
        d = SpherePair(self.order * self.pair.plus, -self.order * self.pair.minus)
        if d.is_zero():
            return ZERO_BODY
        return Monomial(self.order - 1, d)


#: Plateau factors of a term: sorted (radius, derivative order) pairs, repeats
#: allowed, standing for the product of those cutoff derivatives.
Factors = Tuple[Tuple[float, int], ...]


@dataclass(frozen=True)
class Body:
    """The sum of pair(w) * r^j * prod_i plateau^(k_i)(R_i) over its terms.

    ``terms`` holds (factors, j, pair) sorted by (factors, j), one term per
    key and no zero pair, so equal sums built different ways compare equal.
    """

    terms: Tuple[Tuple[Factors, int, SpherePair], ...] = ()

    @cached_property
    def _sides(self):
        # per side (y > 0, y < 0): nonzero float coefficients grouped by factors
        sides = []
        for w in (1, -1):
            groups = []
            for factors, terms in groupby(self.terms, key=lambda t: t[0]):
                coeffs = [(j, float(p.at(w))) for _, j, p in terms if p.at(w)]
                if coeffs:
                    groups.append((factors, coeffs))
            sides.append(groups)
        return sides

    def value(self, y: float) -> float:
        # c * r**j first, as expansion.evaluate computes it, so that a term
        # on the inner plateau cancels bit-exactly against the expansion
        r = abs(y)
        parts = []
        for factors, coeffs in self._sides[0 if y > 0 else 1]:
            if len(coeffs) == 1:
                a = coeffs[0][1] * r ** coeffs[0][0]
            else:
                a = math.fsum([c * r ** j for j, c in coeffs])
            for radius, n in factors:
                if a == 0.0:
                    break
                a *= plateau_value(radius, n, y)
            parts.append(a)
        return math.fsum(parts)

    def derivative(self) -> "Body":
        """Leibniz rule: the power drops one order, or one factor gains one."""
        out = {}
        for factors, j, p in self.terms:
            if j:
                _accumulate(out, factors, j - 1, SpherePair(j * p.plus, -j * p.minus))
            for i, (radius, n) in enumerate(factors):
                raised = factors[:i] + ((radius, n + 1),) + factors[i + 1:]
                _accumulate(out, tuple(sorted(raised)), j, p)
        return _canonical(out)

    def __add__(self, other: "Body") -> "Body":
        out = {}
        for factors, j, p in self.terms + other.terms:
            _accumulate(out, factors, j, p)
        return _canonical(out)

    def __mul__(self, other: "Body") -> "Body":
        out = {}
        for f1, j1, p1 in self.terms:
            for f2, j2, p2 in other.terms:
                p = p2 if p1 == ONE_PAIR else p1 if p2 == ONE_PAIR else p1 * p2
                _accumulate(out, tuple(sorted(f1 + f2)), j1 + j2, p)
        return _canonical(out)

    def scale(self, k) -> "Body":
        k = as_fraction(k)
        if k == 0:
            return ZERO_BODY
        if k == 1:
            return self
        return Body(tuple((f, j, p * k) for f, j, p in self.terms))

    def is_smooth(self) -> bool:
        """True when the body extends smoothly across the thick point: every
        term must look like a one-variable power c*x^j with j >= 0."""
        return all(j >= 0 and p == parity_pair(p.plus, j) for _, j, p in self.terms)

    def dilate(self, c: Fraction) -> "Body":
        """The body of y -> self(y / c).  The k-th derivative of a cutoff picks
        up c^k, because the profile is scale-invariant."""
        out = {}
        for factors, j, p in self.terms:
            scaled = tuple(sorted((float(abs(c)) * radius, n) for radius, n in factors))
            _accumulate(out, scaled, j, _dilate_pair(p, j, c) * c ** sum(n for _, n in factors))
        return _canonical(out)


def _accumulate(out: dict, factors: Factors, j: int, p: SpherePair) -> None:
    key = (factors, j)
    out[key] = out[key] + p if key in out else p


def _canonical(out: dict) -> Body:
    return Body(tuple((f, j, p) for (f, j), p in sorted(out.items()) if not p.is_zero()))


def _as_body(b) -> Body:
    """A multiplier's monomial as a body, so that it can multiply one."""
    if isinstance(b, Monomial):
        return Body((((), b.order, b.pair),)) if not b.pair.is_zero() else ZERO_BODY
    return b


ZERO_BODY = Body()


# -- the function types --------------------------------------------------------


def _evaluate(body, expansion, point, radius, x) -> float:
    y = x - point
    if radius is not None and abs(y) >= radius:
        return 0.0
    if y == 0:
        # value at the thick point itself: defined only when both one-sided
        # limits exist and agree
        if expansion.is_zero() or expansion.start > 0:
            return 0.0
        if expansion.start == 0 and expansion.coefficient(0).is_even():
            return float(expansion.coefficient(0).plus)
        return math.nan
    return body.value(float(y))


@dataclass(frozen=True)
class ThickTestFunction:
    body: Body
    expansion: Expansion
    point: Fraction
    radius: float
    exact_radius: float  # expansion equals the function identically for 0 < r < exact_radius

    def __post_init__(self):
        object.__setattr__(self, "body", _as_body(self.body))
        object.__setattr__(self, "point", as_fraction(self.point))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "exact_radius", float(self.exact_radius))

    def evaluate(self, x) -> float:
        return _evaluate(self.body, self.expansion, self.point, self.radius, x)

    @property
    def is_ordinary(self) -> bool:
        """Smooth across the thick point by construction."""
        return self.body.is_smooth()

    def __add__(self, other: "ThickTestFunction") -> "ThickTestFunction":
        if self.point != other.point:
            raise PointMismatchError("cannot add functions at different thick points")
        return ThickTestFunction(
            body=self.body + other.body,
            expansion=xp.add(self.expansion, other.expansion),
            point=self.point,
            radius=max(self.radius, other.radius),
            exact_radius=min(self.exact_radius, other.exact_radius),
        )

    def scale(self, k) -> "ThickTestFunction":
        k = as_fraction(k)
        return replace(
            self,
            body=self.body.scale(k),
            expansion=xp.multiply(self.expansion, xp.from_taylor([k], exact=True)),
        )

    def __mul__(self, other):
        if isinstance(other, Multiplier):
            return multiply_by(other, self)
        if isinstance(other, ThickTestFunction):
            if self.point != other.point:
                raise PointMismatchError("cannot multiply functions at different thick points")
            return ThickTestFunction(
                body=self.body * other.body,
                expansion=xp.multiply(self.expansion, other.expansion),
                point=self.point,
                radius=min(self.radius, other.radius),
                exact_radius=min(self.exact_radius, other.exact_radius),
            )
        return NotImplemented


@dataclass(frozen=True)
class Multiplier:
    """Smooth off the thick point, expansion required, no compact support."""

    body: Union[Monomial, Body]  # a Monomial, or ZERO_BODY
    expansion: Expansion
    point: Fraction
    exact_radius: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "point", as_fraction(self.point))

    def evaluate(self, x) -> float:
        return _evaluate(self.body, self.expansion, self.point, None, x)

    def is_one(self) -> bool:
        return self.body == Monomial(0, ONE_PAIR)

    def is_zero(self) -> bool:
        return self.body == ZERO_BODY and self.expansion.is_zero()


# -- constructors ---------------------------------------------------------------


def plateau_bump(radius, point=0) -> ThickTestFunction:
    """Smooth cutoff: 1 on |x-a| <= radius/2, 0 beyond |x-a| >= radius."""
    return thick_monomial(0, ONE_PAIR, radius, point)


def thick_monomial(order: int, pair, radius, point=0) -> ThickTestFunction:
    """pair(w) * r^order times the plateau cutoff; order may be negative."""
    if not 0 < radius < math.inf:
        raise ValueError("support radius must be positive and finite")
    pair = pair if isinstance(pair, SpherePair) else SpherePair(*pair)
    cutoff = ((float(radius), 0),)
    return ThickTestFunction(
        body=Body(((cutoff, order, pair),)) if not pair.is_zero() else ZERO_BODY,
        expansion=Expansion(order, (pair,), exact=True),
        point=point,
        radius=radius,
        exact_radius=radius / 2,
    )


def from_polynomial(coeffs, radius, point=0) -> ThickTestFunction:
    """p(x - a) times the plateau cutoff, expansion taken from the coefficients."""
    if not 0 < radius < math.inf:
        raise ValueError("support radius must be positive and finite")
    cs = [as_fraction(c) for c in coeffs]
    cutoff = ((float(radius), 0),)
    return ThickTestFunction(
        body=Body(tuple((cutoff, j, parity_pair(c, j)) for j, c in enumerate(cs) if c != 0)),
        expansion=xp.from_taylor(cs, exact=True),
        point=point,
        radius=radius,
        exact_radius=radius / 2,
    )


def heaviside_multiplier(point=0) -> Multiplier:
    return Multiplier(
        body=Monomial(0, SpherePair(1, 0)),
        expansion=Expansion(0, (SpherePair(1, 0),), exact=True),
        point=point,
    )


def power_multiplier(order: int, point=0) -> Multiplier:
    """The one-variable power (x - a)^order as a multiplier."""
    return monomial_multiplier(order, parity_pair(1, order), point)


def monomial_multiplier(order: int, pair, point=0) -> Multiplier:
    pair = pair if isinstance(pair, SpherePair) else SpherePair(*pair)
    if pair.is_zero():
        return constant_multiplier(0, point)
    return Multiplier(
        body=Monomial(order, pair),
        expansion=Expansion(order, (pair,), exact=True),
        point=point,
    )


def constant_multiplier(value=1, point=0) -> Multiplier:
    v = as_fraction(value)
    if v == 0:
        return Multiplier(body=ZERO_BODY, expansion=ZERO_EXPANSION, point=point)
    return monomial_multiplier(0, SpherePair(v, v), point)


# -- operations ------------------------------------------------------------------


def derivative(f):
    """Symbolic derivative; works on both test functions and multipliers."""
    return replace(f, body=f.body.derivative(), expansion=xp.differentiate(f.expansion))


def multiply_by(psi: Multiplier, phi: ThickTestFunction) -> ThickTestFunction:
    if psi.point != phi.point:
        raise PointMismatchError(
            f"multiplier at {psi.point} cannot act on a function at {phi.point}"
        )
    return ThickTestFunction(
        body=_as_body(psi.body) * phi.body,
        expansion=xp.multiply(psi.expansion, phi.expansion),
        point=phi.point,
        radius=phi.radius,
        exact_radius=min(psi.exact_radius, phi.exact_radius),
    )


def translate(f, shift):
    """f(x - shift): the graph moves right by shift, the thick point with it."""
    return replace(f, point=f.point + as_fraction(shift))


def dilate(f: ThickTestFunction, c) -> ThickTestFunction:
    """f(x / c); the thick point moves to c*a and the support scales by |c|."""
    c = as_fraction(c)
    if c == 0:
        raise ValueError("dilation factor must be nonzero")
    e = f.expansion
    return replace(
        f,
        body=f.body.dilate(c),
        expansion=Expansion(e.start, tuple(_dilate_pair(p, j, c) for j, p in e.terms()),
                            exact=e.exact, order=e.order),
        point=c * f.point,
        radius=float(abs(c)) * f.radius,
        exact_radius=float(abs(c)) * f.exact_radius,
    )


def _dilate_pair(p: SpherePair, j: int, c: Fraction) -> SpherePair:
    """The coefficient of r^j after y -> y / c: scaled by |c|^(-j), sides
    swapped when c < 0."""
    s = abs(c) ** (-j)
    return SpherePair(p.plus * s, p.minus * s) if c > 0 else SpherePair(p.minus * s, p.plus * s)


# -- diagnostics -------------------------------------------------------------------


def seminorm(phi: ThickTestFunction, q: int, s: int, k_radius: float) -> float:
    """Grid lower bound for the sup of r^(-q) |d^p phi - truncated expansion|
    over 0 < r <= k_radius, both sides, all derivative orders p <= s.

    The reported number samples a fixed deterministic grid, so it is a lower
    bound of the true sup, good enough as a topology diagnostic.
    """
    if k_radius <= 0:
        raise ValueError("k_radius must be positive")
    rs = sorted({k_radius * i / 16 for i in range(1, 17)}
                | {k_radius * 2.0 ** -k for k in range(21)})
    worst = 0.0
    current = phi
    for p in range(s + 1):
        e = current.expansion
        if not e.exact and e.window < q - 1:
            raise InsufficientOrderError(
                f"seminorm with q={q} needs expansion orders through {q - 1}, "
                f"derivative {p} only reaches {e.order}"
            )
        for r in rs:
            for w in (1, -1):
                got = current.body.value(w * r)
                ref = xp.evaluate(e, w, r, q - 1)
                worst = max(worst, abs(got - ref) * r ** (-q))
        current = derivative(current)
    return worst


def strength_defect(phi: ThickTestFunction, p: int, through_order: int, r: float) -> float:
    """max over both sides of r^(-M) |d^p phi(a + w r) - truncation through M|.

    Going to zero along r -> 0 is what makes the expansion an asymptotic one;
    staying zero after differentiating p times is what makes it strong.
    """
    current = phi
    for _ in range(p):
        current = derivative(current)
    e = current.expansion
    top = min(through_order, int(e.window) if not e.exact else through_order)
    out = 0.0
    for w in (1, -1):
        got = current.body.value(w * r)
        ref = xp.evaluate(e, w, r, top)
        out = max(out, abs(got - ref) * r ** (-top))
    return out
