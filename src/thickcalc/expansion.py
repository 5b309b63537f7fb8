"""Algebra of truncated expansions sum_j a_j(w) r^j around the thick point.

Each expansion stores a dense run of SpherePair coefficients starting at an
integer order, plus bookkeeping for how far the coefficients can be trusted:

* ``exact=True`` means the represented function equals the stored finite sum
  identically on some punctured neighbourhood of the point, so every order
  beyond the stored ones is genuinely zero and the trust window is infinite.
* ``exact=False`` means only the stored orders are reliable; ``order`` records
  the highest trustworthy one.

Canonical form strips leading zero pairs, so ``start`` is the true leading
order and the zero expansion is the unique empty one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Tuple

from .errors import InsufficientOrderError
from .sphere import SpherePair, ZERO_PAIR, as_fraction, parity_pair


@dataclass(frozen=True)
class Expansion:
    start: int
    coeffs: Tuple[SpherePair, ...]
    exact: bool = False
    order: Optional[int] = None  # highest trustworthy order; None = all orders

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        start = self.start
        order = self.order
        if self.exact:
            order = None
            # exact truncations are minimal: strip zeros on both ends
            while coeffs and coeffs[-1].is_zero():
                coeffs = coeffs[:-1]
        else:
            if order is None:
                order = start + len(coeffs) - 1 if coeffs else start - 1
            if coeffs and order != start + len(coeffs) - 1:
                raise ValueError("order must match the stored coefficient range")
        while coeffs and coeffs[0].is_zero():
            coeffs = coeffs[1:]
            start += 1
        if not coeffs:
            start = 0
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "order", order)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def top(self) -> Optional[int]:
        """Highest stored order, or None for the zero expansion."""
        if not self.coeffs:
            return None
        return self.start + len(self.coeffs) - 1

    @property
    def window(self) -> float:
        """Highest trustworthy order as a number (inf when exact)."""
        return float("inf") if self.order is None else self.order

    def coefficient(self, j: int) -> SpherePair:
        """Coefficient at order j; zero outside the stored run, error beyond
        the trust window of a non-exact expansion."""
        if self.order is not None and j > self.order:
            raise InsufficientOrderError(
                f"order {j} requested but expansion is only trustworthy through {self.order}"
            )
        if not self.coeffs or j < self.start or j > self.top:
            return ZERO_PAIR
        return self.coeffs[j - self.start]

    def terms(self) -> Iterator[Tuple[int, SpherePair]]:
        for i, c in enumerate(self.coeffs):
            yield self.start + i, c

    def truncate(self, max_order: int) -> "Expansion":
        """Drop every stored order above max_order (window shrinks accordingly)."""
        if self.exact and (self.is_zero() or max_order >= self.top):
            return self
        kept = tuple(c for j, c in self.terms() if j <= max_order)
        new_order = max_order if self.exact else min(self.order, max_order)
        return Expansion(self.start, kept, exact=False, order=new_order)

    def __str__(self):
        return render(self)


ZERO_EXPANSION = Expansion(0, (), exact=True)


def expansion_of(start: int, pairs: Iterable, exact: bool = False,
                 order: Optional[int] = None) -> Expansion:
    """Convenience constructor accepting raw (plus, minus) tuples."""
    coeffs = tuple(p if isinstance(p, SpherePair) else SpherePair(*p) for p in pairs)
    return Expansion(start, coeffs, exact=exact, order=order)


# -- arithmetic ------------------------------------------------------------


def add(e1: Expansion, e2: Expansion) -> Expansion:
    if e1.is_zero() and e1.exact:
        return e2
    if e2.is_zero() and e2.exact:
        return e1
    exact = e1.exact and e2.exact
    window = min(e1.window, e2.window)
    starts = [e.start for e in (e1, e2) if not e.is_zero()]
    if not starts:
        return Expansion(0, (), exact=exact,
                         order=None if exact else int(window))
    lo = min(starts)
    if exact:
        hi = max(e.top for e in (e1, e2) if not e.is_zero())
    else:
        hi = int(window)
    if hi < lo:
        return Expansion(0, (), exact=False, order=hi)
    pairs = tuple(_safe_coeff(e1, j) + _safe_coeff(e2, j) for j in range(lo, hi + 1))
    return Expansion(lo, pairs, exact=exact, order=None if exact else hi)


def _safe_coeff(e: Expansion, j: int) -> SpherePair:
    # like coefficient() but without the window guard; callers stay in range
    if not e.coeffs or j < e.start or j > e.top:
        return ZERO_PAIR
    return e.coeffs[j - e.start]


def multiply(e1: Expansion, e2: Expansion) -> Expansion:
    if (e1.is_zero() and e1.exact) or (e2.is_zero() and e2.exact):
        return ZERO_EXPANSION
    exact = e1.exact and e2.exact
    if e1.is_zero() or e2.is_zero():
        # product of an o(r^W) tail with something of leading order m
        bounds = []
        for z, other in ((e1, e2), (e2, e1)):
            if z.is_zero() and z.order is not None:
                m = other.start if not other.is_zero() else 0
                bounds.append(z.order + m)
        return Expansion(0, (), exact=False, order=min(bounds))
    lo = e1.start + e2.start
    if exact:
        hi = e1.top + e2.top
    else:
        hi = int(min(e1.start + e2.window, e2.start + e1.window))
    if hi < lo:
        return Expansion(0, (), exact=False, order=hi)
    pairs = []
    for k in range(lo, hi + 1):
        acc = ZERO_PAIR
        for i, a in e1.terms():
            j = k - i
            if j < e2.start or j > e2.top:
                continue
            acc = acc + a * _safe_coeff(e2, j)
        pairs.append(acc)
    return Expansion(lo, tuple(pairs), exact=exact, order=None if exact else hi)


def differentiate(e: Expansion) -> Expansion:
    """Term-by-term derivative: a_j r^j maps to (j*a_j(1), -j*a_j(-1)) r^(j-1)."""
    if e.is_zero():
        return Expansion(0, (), exact=e.exact,
                         order=None if e.exact else e.order - 1)
    pairs = tuple(SpherePair(j * c.plus, -j * c.minus) for j, c in e.terms())
    return Expansion(e.start - 1, pairs, exact=e.exact,
                     order=None if e.exact else e.order - 1)


def from_taylor(coeffs: Iterable, exact: bool = False) -> Expansion:
    """One-variable Taylor data c_0..c_N to the two-sided form: even orders
    keep the constant, odd orders flip sign on the negative side."""
    cs = [as_fraction(c) for c in coeffs]
    pairs = tuple(parity_pair(c, j) for j, c in enumerate(cs))
    return Expansion(0, pairs, exact=exact,
                     order=None if exact else len(cs) - 1)


def evaluate(e: Expansion, w: int, r: float, top: Optional[int] = None) -> float:
    """Float value of the stored truncation through order ``top`` (all stored
    orders by default) at the sphere point w, radius r > 0."""
    if r <= 0:
        raise ValueError("radius must be positive")
    # termwise with r**j so that it cancels bit-exactly against monomial terms
    return math.fsum(float(c.at(w)) * r ** j for j, c in e.terms() if top is None or j <= top)


# -- textual form ----------------------------------------------------------


def _fmt(x: Fraction) -> str:
    return str(x)


def render(e: Expansion) -> str:
    """Terms ``(p|q)·r^j`` joined by `` + ``; the zero expansion prints as 0."""
    if e.is_zero():
        return "0"
    return " + ".join(f"({_fmt(c.plus)}|{_fmt(c.minus)})·r^{j}" for j, c in e.terms())


_TERM_RE = re.compile(
    r"^\(\s*(?P<plus>-?\d+(?:/\d+)?)\s*\|\s*(?P<minus>-?\d+(?:/\d+)?)\s*\)"
    r"·r\^(?P<order>-?\d+)$"
)


def parse_expansion(text: str, exact: bool = False) -> Expansion:
    """Parse the render() format back into an Expansion."""
    text = text.strip()
    if text == "0":
        return ZERO_EXPANSION if exact else Expansion(0, (), exact=False, order=-1)
    terms = {}
    for chunk in text.split(" + "):
        m = _TERM_RE.match(chunk.strip())
        if m is None:
            raise ValueError(f"cannot parse expansion term {chunk!r}")
        j = int(m.group("order"))
        terms[j] = SpherePair(Fraction(m.group("plus")), Fraction(m.group("minus")))
    lo, hi = min(terms), max(terms)
    pairs = tuple(terms.get(j, ZERO_PAIR) for j in range(lo, hi + 1))
    return Expansion(lo, pairs, exact=exact, order=None if exact else hi)
