"""Reference expansion algebra that the tests compare the program against.

The program reads the expansion of a sum or a product off its terms
(``testfn.ThickTestFunction.expansion``); these are the same operations done
directly on the coefficient pairs, and a direct measure of how far a function
is from its truncated expansion.  Not a test module: pytest does not collect it.
"""

from typing import Iterable

from thickcalc.expansion import ZERO_EXPANSION, Expansion, evaluate
from thickcalc.sphere import ZERO_PAIR, SpherePair
from thickcalc.testfn import ThickTestFunction, derivative


def expansion_of(start: int, pairs: Iterable) -> Expansion:
    """Convenience constructor accepting raw (plus, minus) tuples."""
    return Expansion(start, tuple(p if isinstance(p, SpherePair) else SpherePair(*p)
                                  for p in pairs))


def add(e1: Expansion, e2: Expansion) -> Expansion:
    if e1.is_zero():
        return e2
    if e2.is_zero():
        return e1
    lo, hi = min(e1.start, e2.start), max(e1.top, e2.top)
    return Expansion(lo, tuple(e1.coefficient(j) + e2.coefficient(j) for j in range(lo, hi + 1)))


def multiply(e1: Expansion, e2: Expansion) -> Expansion:
    if e1.is_zero() or e2.is_zero():
        return ZERO_EXPANSION
    pairs = [ZERO_PAIR] * (len(e1.coeffs) + len(e2.coeffs) - 1)
    for i, a in enumerate(e1.coeffs):
        for k, b in enumerate(e2.coeffs):
            pairs[i + k] = pairs[i + k] + a * b
    return Expansion(e1.start + e2.start, tuple(pairs))


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
    for w, got in zip((1, -1), current.radial(r)):
        ref = evaluate(e, w, r)
        out = max(out, abs(got - ref) * r ** (-through_order))
    return out
