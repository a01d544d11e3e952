"""Exception types shared across the package."""


class MarkovShiftError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MarkovShiftError):
    """Matrix or vector dimensions do not fit the operation."""


class DomainError(MarkovShiftError):
    """A value lies outside the domain an operation is defined on."""


class InadmissibleWordError(DomainError):
    """A word violates the transition matrix it is read against."""


class PreconditionError(MarkovShiftError):
    """A documented precondition of an operation does not hold."""


class UnsupportedError(MarkovShiftError):
    """The instance is outside the size class an operation supports."""


class UndecidedError(MarkovShiftError):
    """A decision procedure could not decide an instance.

    Every decision in the package is exact, so no library path raises
    this.  It stays exported because the benchmark names it as the
    failure it tolerates.
    """


class VerificationError(MarkovShiftError):
    """An internal recomputation check failed.

    This signals a bug in the construction that raised it, never bad input.
    """


class ParseError(MarkovShiftError):
    """An input file could not be parsed; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
