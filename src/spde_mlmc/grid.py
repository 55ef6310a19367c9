"""Dyadic space-time refinement hierarchy on (0, 1) and exact P1 prolongation.

Level ``l`` has mesh width ``h = 2**-l``, interior nodes ``x_i = i*h``
(homogeneous Dirichlet boundary), and the time step is coupled to the mesh
as ``dt = h**2`` so that one spatial refinement quarters the step count.
The terminal time is fixed at T = 1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, UsageError, as_index

#: Largest supported level: steps = 2**(2*l) must stay within int64.
MAX_LEVEL = 31

#: Largest memory one task may take: one ``det-conv`` level, or the chunks of
#: one estimator level in flight at once. Checked before any work starts.
MAX_TASK_BYTES = 2 * 2**30


@dataclass(frozen=True)
class LevelGeometry:
    """One level of the coupled space-time hierarchy. Immutable."""

    level: int
    mesh_width: float
    time_step: float
    dofs: int
    steps: int

    @property
    def nodes(self) -> np.ndarray:
        """Interior node coordinates i*h, i = 1..dofs."""
        return np.arange(1, self.dofs + 1, dtype=np.float64) * self.mesh_width


def make_level(level: int) -> LevelGeometry:
    """Build the geometry of refinement level ``level``.

    Level 0 is valid but degenerate: its interior-node space is empty
    (dofs = 0), so simulation hierarchies start at level 1. A level that is
    not an integer (numpy integers are) is a ``UsageError``.
    """
    level = as_index(level, "a level")
    if level < 0:
        raise UsageError(f"level must be nonnegative, got {level}")
    if level > MAX_LEVEL:
        raise CapacityError(
            f"level {level} exceeds capacity: 2**(2*{level}) steps overflow int64"
        )
    h = 2.0 ** (-level)
    return LevelGeometry(
        level=level,
        mesh_width=h,
        time_step=h * h,
        dofs=2**level - 1,
        steps=2 ** (2 * level),
    )


@dataclass(frozen=True)
class NodalField:
    """Coefficients of a P1 function at the interior nodes of a level.

    Represents an element of L2(0, 1); boundary values are implicitly zero.
    """

    level: LevelGeometry
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.level.dofs,):
            raise UsageError(
                f"field length {vals.shape} does not match dofs {self.level.dofs} "
                f"of level {self.level.level}"
            )
        if vals.size and not np.all(np.isfinite(vals)):
            raise UsageError("field contains non-finite entries")
        object.__setattr__(self, "values", vals)


def prolong_to(field: NodalField, target_level: int) -> NodalField:
    """Exact injection of a P1 function into the nested space of
    ``target_level``, one ``prolong_values`` per level."""
    target = make_level(target_level)
    if target.level < field.level.level:
        raise UsageError(
            f"cannot prolong level {field.level.level} down to {target_level}"
        )
    values = field.values
    for _ in range(target.level - field.level.level):
        values = prolong_values(values)
    return NodalField(target, values)


def prolong_values(values: np.ndarray) -> np.ndarray:
    """Prolongation of the P1 function with coarse nodal values ``values`` to
    the next finer level: shared nodes are copied, and each new midpoint is
    the average of its two coarse neighbours (boundary values are zero).
    Batched over trailing axes: ``values`` has shape (dofs_coarse,) or
    (dofs_coarse, n); the result has 2*dofs_coarse + 1 rows.
    """
    pad_shape = (1,) + values.shape[1:]
    zeros = np.zeros(pad_shape)
    padded = np.concatenate([zeros, values, zeros], axis=0)
    out = np.empty((2 * values.shape[0] + 1,) + values.shape[1:])
    out[1::2] = values
    out[0::2] = 0.5 * (padded[:-1] + padded[1:])
    return out
