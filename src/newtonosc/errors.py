"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed phase input; .position is the offending character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class NegativeExponentError(ParseError):
    """Exponents in phase input must be nonnegative integers."""


class EmptyPolygonError(ValueError):
    """The zero polynomial has no Newton polygon."""


class WrongRegionError(ValueError):
    """Monomial size formulas only apply on gap blocks."""


class ResolutionError(RuntimeError):
    """The requested frequency cannot be resolved within the grid cap."""


class NoConvergenceError(RuntimeError):
    """The norm solver reached max_iter before its residual met tol.

    Carries the last two Ritz estimates of the norm for diagnosis.
    """

    def __init__(self, message: str, quotients):
        super().__init__(message)
        self.quotients = tuple(quotients)


class DomainError(ValueError):
    """Argument outside the function's domain."""


class InsufficientSamplesError(ValueError):
    """A decay fit needs at least four valid samples."""
