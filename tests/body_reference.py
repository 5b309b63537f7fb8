"""Reference form of a test function that the tests compare the program against.

A test function used to be stored as ``ThickTestFunction(body, point, radius)``
around a ``Body``: a frozen dataclass of the sorted terms that did the sums,
products, scalings, derivatives and dilations, and read off the expansion, the
exact radius and the two-sided values.  A multiplier used to be a ``Body`` with
one term and no plateau factor, pair(w) * r^order, or no term for the zero
multiplier (``monomial_body``).  ``testfn.ThickTestFunction`` and
``testfn.Multiplier`` now hold their terms themselves; this is the old body,
so they can be checked to give the same terms and values, bit for bit.  Not a
test module: pytest does not collect it.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Tuple

from thickcalc.expansion import ZERO_EXPANSION, Expansion, partial_sum
from thickcalc.quadrature import fsum
from thickcalc.sphere import ONE_PAIR, SpherePair, ZERO_PAIR, exact, parity_pair
from thickcalc.testfn import _dilate_pair, plateau_value


@dataclass(frozen=True)
class Body:
    """The sum of pair(w) * r^j * prod_i plateau^(k_i)(R_i) over its terms."""

    terms: tuple = ()

    @cached_property
    def _groups(self):
        groups = []
        for factors, terms in groupby(self.terms, key=lambda t: t[0]):
            terms = list(terms)
            plus = [(j, float(p.plus)) for _, j, p in terms if p.plus]
            minus = [(j, float(p.minus)) for _, j, p in terms if p.minus]
            groups.append((factors, plus, minus))
        return groups

    def radial(self, r: float) -> Tuple[float, float]:
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

    @cached_property
    def expansion(self) -> Expansion:
        out = {}
        for factors, j, p in self.terms:
            if not any(n for _, n in factors):
                out[j] = out[j] + p if j in out else p
        if not out:
            return ZERO_EXPANSION
        lo = min(out)
        return Expansion(lo, tuple(out.get(j, ZERO_PAIR) for j in range(lo, max(out) + 1)))

    @cached_property
    def exact_radius(self) -> float:
        return min((factors[0][0] for factors, _, _ in self.terms if factors),
                   default=math.inf) / 2

    def derivative(self) -> "Body":
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
            return Body()
        if k == 1:
            return self
        return Body(tuple((f, j, p * k) for f, j, p in self.terms))

    def dilate(self, c) -> "Body":
        c = exact(c)
        out = {}
        for factors, j, p in self.terms:
            scaled = tuple(sorted((float(abs(c)) * radius, n) for radius, n in factors))
            _accumulate(out, scaled, j, _dilate_pair(p, j, c) * c ** sum(n for _, n in factors))
        return _canonical(out)


def _accumulate(out: dict, factors, j: int, p: SpherePair) -> None:
    if factors and factors[-1][0] >= 2 * factors[0][0]:
        wide = [n for rho, n in factors if rho >= 2 * factors[0][0]]
        if any(wide):
            return
        factors = factors[:len(factors) - len(wide)]
    key = (factors, j)
    out[key] = out[key] + p if key in out else p


def _canonical(out: dict) -> Body:
    return Body(tuple((f, j, p) for (f, j), p in sorted(out.items()) if not p.is_zero()))


def cut_off(terms, radius) -> Body:
    """The body ``_cut_off(terms, radius, point)`` was stored as."""
    cutoff = ((float(radius), 0),)
    return Body(tuple((cutoff, j, p) for j, p in terms if not p.is_zero()))


def bump_body(radius) -> Body:
    return cut_off(((0, ONE_PAIR),), radius)


def mono_body(order: int, pair, radius) -> Body:
    return cut_off(((order, SpherePair(*pair)),), radius)


def poly_body(coeffs, radius) -> Body:
    return cut_off(((j, parity_pair(c, j)) for j, c in enumerate(coeffs)), radius)


def multiplied(psi, body: Body) -> Body:
    """The body ``multiply_by(psi, phi)`` gave for the body of phi."""
    j, p = psi.order, psi.pair
    terms = ((f, k + j, q if p == ONE_PAIR else p * q) for f, k, q in body.terms)
    return Body(tuple(t for t in terms if not t[2].is_zero()))


def monomial_body(order: int, pair) -> Body:
    """The body that ``Multiplier(order, pair)`` was stored as."""
    pair = pair if isinstance(pair, SpherePair) else SpherePair(*pair)
    return _canonical({((), order): pair})


def body_of(psi) -> Body:
    """The multiplier record ``psi`` in that form."""
    return monomial_body(psi.order, psi.pair)
