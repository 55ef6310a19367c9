"""Exception types shared across the package, and its one integer check."""

import operator


class UsageError(ValueError):
    """Invalid arguments or configuration. The CLI maps this to exit code 2."""


class CapacityError(UsageError):
    """A refinement level whose step count exceeds 64-bit integer range, or whose
    work would take more than ``grid.MAX_TASK_BYTES`` of memory."""


class NumericalError(RuntimeError):
    """Numerical failure (singular solve, non-finite state). CLI exit code 3."""


def as_index(value, what: str) -> int:
    """``value`` as an int if it is one (a numpy integer too); a float or any
    other value is a ``UsageError`` that names ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise UsageError(f"{what} must be an integer, got {value!r}") from None
