"""Exception types shared across the package."""


class ThickCalcError(Exception):
    """Base class for all library errors."""


class PointMismatchError(ThickCalcError):
    """Two objects anchored at different thick points were combined."""


class QuadratureError(ThickCalcError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class NonFiniteError(ThickCalcError):
    """A float or exact number overflowed, or a value is not finite."""


class MisclassifiedPowerError(ThickCalcError):
    """A power routed to the non-integer branch produced an integer exponent.

    Raised when lambda + j + 1 == 0 shows up outside the integer branch;
    it means the caller passed an integer-valued power as a float instead
    of an exact int or Fraction.
    """


class FitConditionError(ThickCalcError):
    """The finite-part least-squares fit is too ill-conditioned to trust: its
    condition bound ||R||_F ||R^-1||_F, between the 2-norm condition and n
    times it, is above 1e14.  That refuses more than a 2-norm gate only where
    the 2-norm condition is within 1e14 and the bound is not; ``check all``'s
    28 fits have bounds below 4e12, within 1.41 times their condition."""


class OrdinaryFunctionRequiredError(ThickCalcError):
    """A projected distribution was paired with a genuinely thick test function."""


class DslError(ThickCalcError):
    """Syntax or binding error in the expression DSL, with a position; a
    program file's parser sets ``line``, the line (from 1) it was found on."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
        self.line = None
