"""Finite expansions sum_j a_j(w) r^j around the thick point.

An expansion stores a dense run of SpherePair coefficients starting at an
integer order.  It is the local form of a test function: a test function
equals its expansion identically on a punctured neighbourhood of the point,
where every cutoff is 1, and ``testfn.ThickTestFunction.expansion`` reads it
off the terms, so the expansion of a sum or a product is read off the sum or
product of functions and this module has no add or multiply.  Every order
beyond the stored ones is zero.  Here are the record, its term-by-term
derivative, its value and its text form.

Canonical form strips zero pairs from both ends, so ``start`` is the true
leading order and the zero expansion is the unique empty one.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional, Tuple

from .quadrature import fsum
from .sphere import FrozenRecord, SpherePair, ZERO_PAIR, number_text, parity_pair


class Expansion(FrozenRecord):
    __slots__ = ("start", "coeffs")

    def __init__(self, start: int, coeffs: Tuple[SpherePair, ...]):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        while coeffs and coeffs[0].is_zero():
            coeffs = coeffs[1:]
            start += 1
        if not coeffs:
            start = 0
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "coeffs", coeffs)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def top(self) -> Optional[int]:
        """Highest stored order, or None for the zero expansion."""
        if not self.coeffs:
            return None
        return self.start + len(self.coeffs) - 1

    def coefficient(self, j: int) -> SpherePair:
        """Coefficient at order j; zero outside the stored run."""
        if not self.coeffs or j < self.start or j > self.top:
            return ZERO_PAIR
        return self.coeffs[j - self.start]

    def terms(self) -> Iterator[Tuple[int, SpherePair]]:
        for i, c in enumerate(self.coeffs):
            yield self.start + i, c

    def truncate(self, max_order: int) -> "Expansion":
        """The sum of the terms through order max_order."""
        kept = self.coeffs[:max(0, max_order - self.start + 1)]
        return self if len(kept) == len(self.coeffs) else Expansion(self.start, kept)


ZERO_EXPANSION = Expansion(0, ())


# -- calculus and evaluation -------------------------------------------------


def differentiate(e: Expansion) -> Expansion:
    """Term-by-term derivative: a_j r^j maps to (j*a_j(1), -j*a_j(-1)) r^(j-1)."""
    return Expansion(e.start - 1,
                     tuple(SpherePair(j * c.plus, -j * c.minus) for j, c in e.terms()))


def from_taylor(coeffs: Iterable) -> Expansion:
    """One-variable Taylor data c_0..c_N to the two-sided form: even orders
    keep the constant, odd orders flip sign on the negative side."""
    return Expansion(0, tuple(parity_pair(c, j) for j, c in enumerate(coeffs)))


def partial_sum(coeffs, r: float) -> float:
    """The sum of c * r**j over the float pairs (j, c).  A test function and
    the near field both sum here, so a term on the inner plateau cancels
    bit-exactly against the expansion term subtracted from it."""
    if len(coeffs) == 1:
        return coeffs[0][1] * r ** coeffs[0][0]
    return fsum([c * r ** j for j, c in coeffs])


def evaluate(e: Expansion, w: int, r: float) -> float:
    """Float value of the sum at the sphere point w, radius r > 0."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return partial_sum([(j, float(c.at(w))) for j, c in e.terms()], r)


# -- textual form ----------------------------------------------------------


def render(e: Expansion) -> str:
    """Terms ``(p|q)·r^j`` joined by `` + ``, zero pairs inside the stored
    run included; no term prints as 0."""
    return " + ".join(f"({number_text(c.plus)}|{number_text(c.minus)})·r^{number_text(j)}"
                      for j, c in e.terms()) or "0"


_TERM_RE = re.compile(
    r"^\(\s*(?P<plus>-?\d+(?:/\d+)?)\s*\|\s*(?P<minus>-?\d+(?:/\d+)?)\s*\)"
    r"·r\^(?P<order>-?\d+)$"
)


def parse_expansion(text: str, exact: bool = True) -> Expansion:
    """Parse the render() format back into an Expansion.

    ``exact`` is accepted and ignored: every expansion is exact, and callers
    written when an expansion could be known only through some order still
    pass ``exact=True``."""
    text = text.strip()
    if text == "0":
        return ZERO_EXPANSION
    terms = {}
    for chunk in text.split(" + "):
        m = _TERM_RE.match(chunk.strip())
        if m is None:
            raise ValueError(f"cannot parse expansion term {chunk!r}")
        j = int(m.group("order"))
        terms[j] = SpherePair(m.group("plus"), m.group("minus"))
    lo, hi = min(terms), max(terms)
    return Expansion(lo, tuple(terms.get(j, ZERO_PAIR) for j in range(lo, hi + 1)))
