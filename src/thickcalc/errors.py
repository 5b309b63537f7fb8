"""Exception types shared across the package."""


class ThickCalcError(Exception):
    """Base class for all library errors."""


class PointMismatchError(ThickCalcError):
    """Two objects anchored at different thick points were combined."""


class InsufficientOrderError(ThickCalcError):
    """An expansion coefficient beyond the trustworthy window was requested."""


class QuadratureError(ThickCalcError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class NonFiniteError(ThickCalcError):
    """An evaluation overflowed or produced a value that is not finite."""


class MisclassifiedPowerError(ThickCalcError):
    """A power routed to the non-integer branch produced an integer exponent.

    Raised when lambda + j + 1 == 0 shows up outside the integer branch;
    it means the caller passed an integer-valued power as a float instead
    of an exact int or Fraction.
    """


class FitConditionError(ThickCalcError):
    """The finite-part least-squares fit is too ill-conditioned to trust."""


class OrdinaryFunctionRequiredError(ThickCalcError):
    """A projected distribution was paired with a genuinely thick test function."""


class DslError(ThickCalcError):
    """Syntax or binding error in the expression DSL, with a position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
