"""Shared exception types."""


class PwrotError(Exception):
    """Base class for all package errors."""


class ParameterError(PwrotError, ValueError):
    """Invalid construction parameters (bad rotation fraction, bad input text)."""


class DomainError(PwrotError, ArithmeticError):
    """Operation applied outside its mathematical domain (0 inverse, non-real sign)."""


class WrongContextError(PwrotError, ValueError):
    """Operands belong to different field contexts, or a context-specific
    operation was invoked on the wrong field."""


class CriticalLineError(PwrotError):
    """An orbit touched the discontinuity line where a symbolic word is required.

    ``index`` is the first iterate index with vanishing imaginary part.
    """

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"orbit touches the critical line at index {index}")


class BudgetExceededError(PwrotError):
    """An exact-return search ran out of its iteration budget."""

    def __init__(self, budget, message=None):
        self.budget = budget
        super().__init__(message or f"no exact return within budget {budget}")


class InternalInconsistencyError(PwrotError):
    """A condition that is mathematically impossible for valid inputs occurred."""
