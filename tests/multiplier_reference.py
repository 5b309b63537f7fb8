"""Reference form of a multiplier that the tests compare the program against.

A multiplier used to be stored as a test-function ``Body`` with one term and
no plateau factor, pair(w) * r^order, or no term for the zero multiplier.
Its product with a test function or with another multiplier, its derivative
and its scalar multiples were then those of ``Body`` (``*``, ``derivative``,
``scale``), so ``testfn.Multiplier`` can be checked to give the same bodies,
bit for bit.  Not a test module: pytest does not collect it.
"""

from thickcalc.sphere import SpherePair
from thickcalc.testfn import Body, _canonical


def monomial_body(order: int, pair) -> Body:
    """The body that ``monomial_multiplier(order, pair)`` was stored as."""
    pair = pair if isinstance(pair, SpherePair) else SpherePair(*pair)
    return _canonical({((), order): pair})


def body_of(psi) -> Body:
    """The multiplier record ``psi`` in that form."""
    return monomial_body(psi.order, psi.pair)
