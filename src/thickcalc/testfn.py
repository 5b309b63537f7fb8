"""Test functions with one thick point, as canonical sums of terms.

A test function is smooth away from its thick point, compactly supported,
and carries the expansion of its local behaviour.  It is one record
``ThickTestFunction(terms, point, radius)``: a sum of terms

    pair(w) * r^j * prod_i plateau^(k_i)(R_i)

in the local coordinate y = x - point (r = |y|, w = sign y), zero from
|y| >= radius on.  ``pair(w) * r^j`` covers x^j, |x|^j, the unit step and
signed powers; ``plateau^(k)(R)`` is the k-th derivative of a smooth cutoff
that is identically 1 on |y| <= R/2 and 0 on |y| >= R.  Like terms merge in
exact arithmetic, zero terms drop out, and so does a cutoff at least twice as
wide as another factor of its term (it is 1 there), so the terms are closed
under sums, scalar multiples, products, dilations and symbolic
differentiation (the Leibniz rule), derivatives are exact objects and never
numeric, and their size grows polynomially in the order.  Inside the
smallest factor radius over 2 every cutoff is 1 and every cutoff derivative
is 0, so there the function equals its expansion identically, and the
expansion is read off the terms (``ThickTestFunction.expansion``): that
identity is what makes the downstream pairing formulas testable with tight
tolerances.

A multiplier is one monomial pair(w) * r^j without compact support, the record
(order, pair, point): it raises each term's order by j and multiplies its
pair (``multiply_by``), and its products, derivative and multiples are monomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from typing import Tuple

from .errors import NonFiniteError, PointMismatchError
from . import expansion as xp
from .expansion import ZERO_EXPANSION, Expansion, partial_sum
from .quadrature import fsum
from .sphere import ONE_PAIR, FrozenRecord, Rational, SpherePair, ZERO_PAIR, exact, parity_pair


# -- smooth step profile -----------------------------------------------------
#
# S(t) = g(t) / (g(t) + g(1-t)) with g(t) = exp(-1/t): 0 for t <= 0, 1 for
# t >= 1, strictly increasing in between.  Derivatives are computed with
# truncated Taylor (jet) arithmetic, so they are exact up to rounding.


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
    # the jets of -1/t and -1/(1-t) are geometric, with ratios -1/t and
    # 1/(1-t); _jet_recip of t or 1-t gives the same values
    a, b = [-(1.0 / t)], [-(1.0 / (1.0 - t))]
    for _ in range(n):
        a.append(a[0] * a[-1])
        b.append(-b[0] * b[-1])
    g1 = _jet_exp(a)
    if g1[0] == 0.0:  # exp(-1/t) underflowed, so S^(n) is 0; the jet would read inf * 0
        return 0.0
    g2 = _jet_exp(b)
    s = _jet_mul(g1, _jet_recip([x + y for x, y in zip(g1, g2)]))
    return s[n] * math.factorial(n)


# -- terms --------------------------------------------------------------------


def plateau_value(radius: float, n: int, r: float) -> float:
    """n-th derivative of the cutoff that is 1 on |y| <= radius/2 and 0 on
    |y| >= radius, at the local coordinate y = r > 0."""
    return smoothstep_deriv(2.0 - 2.0 * r / radius, n) * (-2.0 / radius) ** n


#: Plateau factors of a term: sorted (radius, derivative order) pairs, repeats
#: allowed, standing for the product of those cutoff derivatives.
Factors = Tuple[Tuple[float, int], ...]


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


def _canonical(out: dict) -> tuple:
    return tuple((f, j, p) for (f, j), p in sorted(out.items()) if not p.is_zero())


# -- the function types --------------------------------------------------------


def _point_value(e: Expansion) -> float:
    """The value at the thick point: the limit of both sides where they agree, else nan."""
    if e.is_zero() or e.start > 0:
        return 0.0
    if e.start == 0 and e.coefficient(0).is_even():
        return float(e.coefficient(0).plus)
    return math.nan


class ThickTestFunction(FrozenRecord):
    """The sum of pair(w) * r^j * prod_i plateau^(k_i)(R_i) over its terms, in
    the local coordinate y = x - point, zero from |y| >= radius on.

    ``terms`` holds (factors, j, pair) sorted by (factors, j), one term per
    key and no zero pair, so equal sums built different ways compare equal.
    The radius is kept as built, as a cancelling sum may shrink the terms'.
    The ``_`` slots are lazy caches, not fields.
    """

    __slots__ = ("terms", "point", "radius", "_groups", "_expansion", "_exact_radius")

    def __init__(self, terms: Tuple[Tuple[Factors, int, SpherePair], ...], point, radius):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "point", exact(point))
        object.__setattr__(self, "radius", float(radius))
        object.__setattr__(self, "_groups", None)
        object.__setattr__(self, "_expansion", None)
        object.__setattr__(self, "_exact_radius", None)

    def radial(self, r: float) -> Tuple[float, float]:
        """(value at y = r, value at y = -r) for r > 0.  Each cutoff factor is
        evaluated once for both sides: its n-th derivative at -r is (-1)^n
        times the one at r."""
        if self._groups is None:
            # (factors, nonzero float coefficients (j, c) at y > 0, the same at y < 0)
            groups = []
            for factors, terms in groupby(self.terms, key=lambda t: t[0]):
                terms = list(terms)
                plus = [(j, float(p.plus)) for _, j, p in terms if p.plus]
                minus = [(j, float(p.minus)) for _, j, p in terms if p.minus]
                groups.append((factors, plus, minus))
            object.__setattr__(self, "_groups", groups)
        plus, minus = [], []
        for factors, cp, cm in self._groups:
            a, b = partial_sum(cp, r), partial_sum(cm, r)
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
        return fsum(plus), fsum(minus)

    @property
    def expansion(self) -> Expansion:
        """The function near the thick point: the sum of pair(w) * r^j over the
        terms whose factors are all plain cutoffs."""
        if self._expansion is None:
            out = {}
            for factors, j, p in self.terms:
                if not any(n for _, n in factors):
                    out[j] = out[j] + p if j in out else p
            e = ZERO_EXPANSION
            if out:
                lo = min(out)
                e = Expansion(lo, tuple(out.get(j, ZERO_PAIR) for j in range(lo, max(out) + 1)))
            object.__setattr__(self, "_expansion", e)
        return self._expansion

    @property
    def exact_radius(self) -> float:
        """The function equals its expansion for 0 < r < this radius: the
        smallest factor radius over 2, or inf when no term has a factor."""
        if self._exact_radius is None:
            radius = min((factors[0][0] for factors, _, _ in self.terms if factors),
                         default=math.inf) / 2
            object.__setattr__(self, "_exact_radius", radius)
        return self._exact_radius

    def evaluate(self, x) -> float:
        y = x - self.point
        if abs(y) >= self.radius:
            return 0.0
        if not y:
            return _point_value(self.expansion)
        y = float(y)
        return self.radial(abs(y))[0 if y > 0 else 1]

    @property
    def is_ordinary(self) -> bool:
        """Smooth across the thick point by construction: every term looks
        like a one-variable power c*x^j with j >= 0."""
        return all(j >= 0 and p.minus == (-p.plus if j % 2 else p.plus)
                   for _, j, p in self.terms)

    def derivative(self) -> "ThickTestFunction":
        """Leibniz rule: the power drops one order, or one factor gains one."""
        out = {}
        for factors, j, p in self.terms:
            if j:
                _accumulate(out, factors, j - 1, SpherePair(j * p.plus, -j * p.minus))
            for i, (radius, n) in enumerate(factors):
                raised = factors[:i] + ((radius, n + 1),) + factors[i + 1:]
                _accumulate(out, tuple(sorted(raised)), j, p)
        return ThickTestFunction(_canonical(out), self.point, self.radius)

    def __add__(self, other: "ThickTestFunction") -> "ThickTestFunction":
        if self.point != other.point:
            raise PointMismatchError("cannot add functions at different thick points")
        out = {}
        for factors, j, p in self.terms + other.terms:
            _accumulate(out, factors, j, p)
        return ThickTestFunction(_canonical(out), self.point, max(self.radius, other.radius))

    def __mul__(self, other):
        if not isinstance(other, ThickTestFunction):
            return NotImplemented
        if self.point != other.point:
            raise PointMismatchError("cannot multiply functions at different thick points")
        out = {}
        for f1, j1, p1 in self.terms:
            for f2, j2, p2 in other.terms:
                p = p2 if p1 == ONE_PAIR else p1 if p2 == ONE_PAIR else p1 * p2
                _accumulate(out, tuple(sorted(f1 + f2)), j1 + j2, p)
        return ThickTestFunction(_canonical(out), self.point, min(self.radius, other.radius))

    def scale(self, k) -> "ThickTestFunction":
        k = exact(k)
        if k == 1:
            return self
        terms = () if k == 0 else tuple((f, j, p * k) for f, j, p in self.terms)
        return ThickTestFunction(terms, self.point, self.radius)

    def dilate(self, c) -> "ThickTestFunction":
        """x -> self(x / c): the thick point moves to c*a and the support
        scales by |c|.  The k-th derivative of a cutoff picks up c^k, because
        the profile is scale-invariant.  A cutoff radius that leaves the
        positive floats is a NonFiniteError."""
        c = exact(c)
        if c == 0:
            raise ValueError("dilation factor must be nonzero")
        out = {}
        for factors, j, p in self.terms:
            scaled = tuple(sorted((float(abs(c)) * radius, n) for radius, n in factors))
            if not all(0 < radius < math.inf for radius, _ in scaled):
                raise NonFiniteError(f"dilation by {float(c):g} takes a cutoff radius "
                                     "out of the float range")
            _accumulate(out, scaled, j, _dilate_pair(p, j, c) * c ** sum(n for _, n in factors))
        return ThickTestFunction(_canonical(out), c * self.point, float(abs(c)) * self.radius)


class Multiplier(FrozenRecord):
    """The monomial pair(w) * r^order: smooth off the thick point, no compact
    support.  A zero pair has order 0, so equal multipliers are equal records."""

    __slots__ = ("order", "pair", "point")

    def __init__(self, order: int, pair, point=0):
        pair = pair if isinstance(pair, SpherePair) else SpherePair(*pair)
        object.__setattr__(self, "order", 0 if pair.is_zero() else order)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "point", exact(point))

    @property
    def expansion(self) -> Expansion:
        return Expansion(self.order, (self.pair,))

    def scale(self, k) -> "Multiplier":
        return Multiplier(self.order, self.pair * k, self.point)

    def evaluate(self, x) -> float:
        y, e = x - self.point, self.expansion
        return xp.evaluate(e, 1 if y > 0 else -1, float(abs(y))) if y else _point_value(e)

    def __mul__(self, other):
        """The product with a multiplier or a test function; it commutes."""
        if isinstance(other, (Multiplier, ThickTestFunction)):
            return multiply_by(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def is_one(self) -> bool:
        return self.order == 0 and self.pair == ONE_PAIR

    def is_zero(self) -> bool:
        return self.pair.is_zero()


# -- constructors ---------------------------------------------------------------


def plateau_bump(radius, point=0) -> ThickTestFunction:
    """Smooth cutoff: 1 on |x-a| <= radius/2, 0 beyond |x-a| >= radius."""
    return thick_monomial(0, ONE_PAIR, radius, point)


def thick_monomial(order: int, pair, radius, point=0) -> ThickTestFunction:
    """pair(w) * r^order times the plateau cutoff; order may be negative."""
    return _cut_off(((order, pair if isinstance(pair, SpherePair) else SpherePair(*pair)),),
                    radius, point)


def from_polynomial(coeffs, radius, point=0) -> ThickTestFunction:
    """p(x - a) times the plateau cutoff."""
    return _cut_off(((j, parity_pair(c, j)) for j, c in enumerate(coeffs)), radius, point)


def _cut_off(terms, radius, point) -> ThickTestFunction:
    """The sum of pair(w) * r^j over the (j, pair) of ``terms``, times the
    plateau cutoff of ``radius``; the radius is checked before ``terms`` is read."""
    if not 0 < radius < math.inf:
        raise ValueError("support radius must be positive and finite")
    cutoff = ((float(radius), 0),)
    return ThickTestFunction(tuple((cutoff, j, p) for j, p in terms if not p.is_zero()),
                             point, radius)


def heaviside_multiplier(point=0) -> Multiplier:
    return Multiplier(0, (1, 0), point)


def power_multiplier(order: int, point=0) -> Multiplier:
    """The one-variable power (x - a)^order as a multiplier."""
    return Multiplier(order, parity_pair(1, order), point)


# -- operations ------------------------------------------------------------------


def derivative(f):
    """Symbolic derivative; works on both test functions and multipliers."""
    if isinstance(f, Multiplier):
        j, p = f.order, f.pair
        return Multiplier(j - 1, SpherePair(j * p.plus, -j * p.minus), f.point)
    return f.derivative()


def multiply_by(psi: Multiplier, phi):
    """psi * phi: for a multiplier phi the product monomial, for a test function
    each term rises by psi's order, its pair times psi's."""
    if psi.point != phi.point:
        raise PointMismatchError(
            f"multiplier at {psi.point} cannot act on a function at {phi.point}"
        )
    j, p = psi.order, psi.pair
    if isinstance(phi, Multiplier):
        return Multiplier(j + phi.order, p * phi.pair, phi.point)
    terms = ((f, k + j, q if p == ONE_PAIR else p * q) for f, k, q in phi.terms)
    return ThickTestFunction(tuple(t for t in terms if not t[2].is_zero()), phi.point, phi.radius)


def translate(f: ThickTestFunction, shift) -> ThickTestFunction:
    """f(x - shift): the graph moves right by shift, the thick point with it."""
    return ThickTestFunction(f.terms, f.point + exact(shift), f.radius)


#: f(x / c), for ``dilate(f, c)``
dilate = ThickTestFunction.dilate


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
            for w, got in zip((1, -1), current.radial(r)):
                ref = xp.evaluate(e, w, r)
                worst = max(worst, abs(got - ref) * r ** (-q))
        current = derivative(current)
    return worst

