"""Exception types shared across the package."""


class UsageError(ValueError):
    """Invalid arguments or configuration. The CLI maps this to exit code 2."""


class CapacityError(UsageError):
    """A refinement level whose step count exceeds 64-bit integer range, or whose
    work would take more than ``grid.MAX_TASK_BYTES`` of memory."""


class NumericalError(RuntimeError):
    """Numerical failure (singular solve, non-finite state). CLI exit code 3."""
