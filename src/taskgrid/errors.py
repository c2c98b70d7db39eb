"""Exception types shared across the package."""


class TaskgridError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TaskgridError):
    """A scenario file or constructed object violates a structural rule.

    The message identifies the offending field or element, e.g.
    ``tasks[3].id: must be an integer or a string``.
    """


class DomainError(TaskgridError):
    """An operation was called with inputs outside its domain."""


class BudgetExceededError(TaskgridError):
    """An enumeration or expansion grew past the caller's budget."""

    def __init__(self, message, size=None):
        super().__init__(message)
        self.size = size


class InapplicableError(TaskgridError):
    """A bound or check was requested for a game outside its preconditions."""


class ConvergenceError(TaskgridError):
    """A computed distribution failed its exactness check.

    The log-linear stationary law is the Gibbs law only while the learning
    kernel's utilities satisfy the potential identity; this names the robot
    and the plan where they do not.
    """
