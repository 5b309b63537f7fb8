"""Test functions with one thick point, as canonical sums of terms.

A test function is smooth away from its thick point, compactly supported,
and carries the expansion of its local behaviour.  Its body is a ``Body``: a
sum of terms

    pair(w) * r^j * prod_i plateau^(k_i)(R_i)

in the local coordinate y (r = |y|, w = sign y).  ``pair(w) * r^j`` covers
x^j, |x|^j, the unit step and signed powers; ``plateau^(k)(R)`` is the k-th
derivative of a smooth cutoff that is identically 1 on |y| <= R/2 and 0 on
|y| >= R.  Like terms merge in exact arithmetic, zero terms drop out, and so
does a cutoff at least twice as wide as another factor of its term (it is 1
there), so the body is closed under sums, scalar multiples, products and
symbolic differentiation (the Leibniz rule), derivatives are exact objects
and never numeric, and their size grows polynomially in the order.  Inside
the smallest factor radius over 2 every cutoff is 1 and every cutoff
derivative is 0, so there the body equals its expansion identically, and the
expansion is read off the body (``Body.expansion``): that identity is what
makes the downstream pairing formulas testable with tight tolerances.

A multiplier is the same kind of object without compact support: its body is
a ``Body`` with one term and no plateau factor (or none at all), so it
multiplies, differentiates and scales as a test function does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import Tuple

from .errors import PointMismatchError
from . import expansion as xp
from .expansion import ZERO_EXPANSION, Expansion
from .sphere import ONE_PAIR, FrozenRecord, Rational, SpherePair, ZERO_PAIR, exact, parity_pair


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
    def _groups(self):
        # (factors, nonzero float coefficients (j, c) at y > 0, the same at y < 0)
        groups = []
        for factors, terms in groupby(self.terms, key=lambda t: t[0]):
            terms = list(terms)
            plus = [(j, float(p.plus)) for _, j, p in terms if p.plus]
            minus = [(j, float(p.minus)) for _, j, p in terms if p.minus]
            groups.append((factors, plus, minus))
        return groups

    def radial(self, r: float) -> Tuple[float, float]:
        """(value at y = r, value at y = -r) for r > 0.  Each cutoff factor is
        evaluated once for both sides: its n-th derivative at -r is (-1)^n
        times the one at r."""
        plus, minus = [], []
        for factors, cp, cm in self._groups:
            a, b = _powers(cp, r), _powers(cm, r)
            for radius, n in factors:
                if a == 0.0 and b == 0.0:
                    break
                v = plateau_value(radius, n, r)
                if a != 0.0:
                    a *= v
                if b != 0.0:
                    b *= -v if n % 2 else v
            if cp:
                plus.append(a)
            if cm:
                minus.append(b)
        return math.fsum(plus), math.fsum(minus)

    def value(self, y: float) -> float:
        return self.radial(abs(y))[0 if y > 0 else 1]

    @cached_property
    def expansion(self) -> Expansion:
        """The body near the thick point: the sum of pair(w) * r^j over the
        terms whose factors are all plain cutoffs (or none)."""
        out = {}
        for factors, j, p in self.terms:
            if not any(n for _, n in factors):
                out[j] = out.get(j, ZERO_PAIR) + p
        if not out:
            return ZERO_EXPANSION
        lo = min(out)
        return Expansion(lo, tuple(out.get(j, ZERO_PAIR) for j in range(lo, max(out) + 1)))

    @cached_property
    def exact_radius(self) -> float:
        """The body equals its expansion for 0 < r < this radius: the smallest
        factor radius over 2, or inf when no term has a factor."""
        return min((factors[0][0] for factors, _, _ in self.terms if factors),
                   default=math.inf) / 2

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
        k = exact(k)
        if k == 0:
            return ZERO_BODY
        if k == 1:
            return self
        return Body(tuple((f, j, p * k) for f, j, p in self.terms))

    def is_smooth(self) -> bool:
        """True when the body extends smoothly across the thick point: every
        term must look like a one-variable power c*x^j with j >= 0."""
        return all(j >= 0 and p == parity_pair(p.plus, j) for _, j, p in self.terms)

    def dilate(self, c: Rational) -> "Body":
        """The body of y -> self(y / c).  The k-th derivative of a cutoff picks
        up c^k, because the profile is scale-invariant."""
        out = {}
        for factors, j, p in self.terms:
            scaled = tuple(sorted((float(abs(c)) * radius, n) for radius, n in factors))
            _accumulate(out, scaled, j, _dilate_pair(p, j, c) * c ** sum(n for _, n in factors))
        return _canonical(out)


def _powers(coeffs, r: float) -> float:
    # c * r**j first, as pairing._radial subtracts the expansion, so that a
    # term on the inner plateau cancels bit-exactly against it
    if len(coeffs) == 1:
        return coeffs[0][1] * r ** coeffs[0][0]
    return math.fsum([c * r ** j for j, c in coeffs])


def _accumulate(out: dict, factors: Factors, j: int, p: SpherePair) -> None:
    # a cutoff of radius rho is 1, and its derivatives 0, wherever a factor
    # of radius at most rho/2 is nonzero: there the plain one drops out and a
    # derivative makes the term zero (the radii compare exactly, as stored)
    if factors and factors[-1][0] >= 2 * factors[0][0]:
        wide = [n for rho, n in factors if rho >= 2 * factors[0][0]]
        if any(wide):
            return
        factors = factors[:len(factors) - len(wide)]
    key = (factors, j)
    out[key] = out[key] + p if key in out else p


def _canonical(out: dict) -> Body:
    return Body(tuple((f, j, p) for (f, j), p in sorted(out.items()) if not p.is_zero()))


ZERO_BODY = Body()
ONE_BODY = Body((((), 0, ONE_PAIR),))


# -- the function types --------------------------------------------------------


def _evaluate(body, point, radius, x) -> float:
    y = x - point
    if radius is not None and abs(y) >= radius:
        return 0.0
    if y == 0:
        # value at the thick point itself: defined only when both one-sided
        # limits exist and agree
        expansion = body.expansion
        if expansion.is_zero() or expansion.start > 0:
            return 0.0
        if expansion.start == 0 and expansion.coefficient(0).is_even():
            return float(expansion.coefficient(0).plus)
        return math.nan
    return body.value(float(y))


class ThickTestFunction(FrozenRecord):
    __slots__ = ("body", "point", "radius")

    def __init__(self, body: Body, point, radius):
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "point", exact(point))
        # the support; kept as built, as a cancelling sum may shrink the body's
        object.__setattr__(self, "radius", float(radius))

    def _with(self, body, point):
        """The same kind of function with another body and point; a test
        function keeps its support radius."""
        return ThickTestFunction(body, point, self.radius)

    @property
    def expansion(self) -> Expansion:
        return self.body.expansion

    @property
    def exact_radius(self) -> float:
        return self.body.exact_radius

    def evaluate(self, x) -> float:
        return _evaluate(self.body, self.point, self.radius, x)

    @property
    def is_ordinary(self) -> bool:
        """Smooth across the thick point by construction."""
        return self.body.is_smooth()

    def __add__(self, other: "ThickTestFunction") -> "ThickTestFunction":
        if self.point != other.point:
            raise PointMismatchError("cannot add functions at different thick points")
        return ThickTestFunction(self.body + other.body, self.point,
                                 max(self.radius, other.radius))

    def scale(self, k) -> "ThickTestFunction":
        return self._with(self.body.scale(k), self.point)

    def __mul__(self, other):
        if isinstance(other, Multiplier):
            return multiply_by(other, self)
        if isinstance(other, ThickTestFunction):
            if self.point != other.point:
                raise PointMismatchError("cannot multiply functions at different thick points")
            return ThickTestFunction(self.body * other.body, self.point,
                                     min(self.radius, other.radius))
        return NotImplemented


class Multiplier(FrozenRecord):
    """Smooth off the thick point, no compact support.

    Its body is a test-function body without a cutoff: one factorless term
    pair(w) * r^j, or none for the zero multiplier."""

    __slots__ = ("body", "point")

    def __init__(self, body: Body, point):
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "point", exact(point))

    def _with(self, body, point):
        return Multiplier(body, point)

    expansion = ThickTestFunction.expansion

    def evaluate(self, x) -> float:
        return _evaluate(self.body, self.point, None, x)

    scale = ThickTestFunction.scale  # the same new body

    def is_one(self) -> bool:
        return self.body == ONE_BODY

    def is_zero(self) -> bool:
        return self.body == ZERO_BODY


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
    return ThickTestFunction(Body(((cutoff, order, pair),)) if not pair.is_zero() else ZERO_BODY,
                             point, radius)


def from_polynomial(coeffs, radius, point=0) -> ThickTestFunction:
    """p(x - a) times the plateau cutoff."""
    if not 0 < radius < math.inf:
        raise ValueError("support radius must be positive and finite")
    cs = [exact(c) for c in coeffs]
    cutoff = ((float(radius), 0),)
    return ThickTestFunction(
        Body(tuple((cutoff, j, parity_pair(c, j)) for j, c in enumerate(cs) if c != 0)),
        point, radius)


def heaviside_multiplier(point=0) -> Multiplier:
    return monomial_multiplier(0, (1, 0), point)


def power_multiplier(order: int, point=0) -> Multiplier:
    """The one-variable power (x - a)^order as a multiplier."""
    return monomial_multiplier(order, parity_pair(1, order), point)


def monomial_multiplier(order: int, pair, point=0) -> Multiplier:
    pair = pair if isinstance(pair, SpherePair) else SpherePair(*pair)
    return Multiplier(_canonical({((), order): pair}), point)


def constant_multiplier(value=1, point=0) -> Multiplier:
    v = exact(value)
    return monomial_multiplier(0, SpherePair(v, v), point)


# -- operations ------------------------------------------------------------------


def derivative(f):
    """Symbolic derivative; works on both test functions and multipliers."""
    return f._with(f.body.derivative(), f.point)


def multiply_by(psi: Multiplier, phi: ThickTestFunction) -> ThickTestFunction:
    if psi.point != phi.point:
        raise PointMismatchError(
            f"multiplier at {psi.point} cannot act on a function at {phi.point}"
        )
    return ThickTestFunction(psi.body * phi.body, phi.point, phi.radius)


def translate(f, shift):
    """f(x - shift): the graph moves right by shift, the thick point with it."""
    return f._with(f.body, f.point + exact(shift))


def dilate(f: ThickTestFunction, c) -> ThickTestFunction:
    """f(x / c); the thick point moves to c*a and the support scales by |c|."""
    c = exact(c)
    if c == 0:
        raise ValueError("dilation factor must be nonzero")
    return ThickTestFunction(f.body.dilate(c), c * f.point, float(abs(c)) * f.radius)


def _dilate_pair(p: SpherePair, j: int, c: Rational) -> SpherePair:
    """The coefficient of r^j after y -> y / c: scaled by |c|^(-j), sides
    swapped when c < 0."""
    s = exact(Fraction(abs(c)) ** -j)  # an int power with j > 0 would be a float
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
    for _ in range(s + 1):
        e = current.expansion.truncate(q - 1)
        for r in rs:
            for w in (1, -1):
                got = current.body.value(w * r)
                ref = xp.evaluate(e, w, r)
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
    e = current.expansion.truncate(through_order)
    out = 0.0
    for w in (1, -1):
        got = current.body.value(w * r)
        ref = xp.evaluate(e, w, r)
        out = max(out, abs(got - ref) * r ** (-through_order))
    return out
