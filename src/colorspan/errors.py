"""Exception types shared across the package."""


class ColorspanError(Exception):
    """Base class for every error raised by this package."""


class InvalidInstanceError(ColorspanError, ValueError):
    """An input violates a documented precondition or format rule."""


class ParseError(InvalidInstanceError):
    """A text input failed to parse.

    The message starts with the 1-based number of the offending line when
    one can be attributed, so command-line error messages point at the
    bad input.
    """

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")


class BudgetExceededError(ColorspanError):
    """An exhaustive enumeration would exceed its state budget."""


class EquivalenceViolationError(ColorspanError):
    """Feasibility bits disagree across a reduction chain.

    The reductions preserve feasibility exactly, so this error always
    indicates an implementation bug rather than a property of the input.
    """
