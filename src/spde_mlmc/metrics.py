"""Exact-mean evaluation, RMS error estimators, and rate-slope fitting.

The mean of the solution has the closed form exp(-pi^2 t) sin(pi x), so
estimator quality is measured as the root mean square deviation from it at
the nodal points of a dyadic reference grid (2**r + 1 points including both
boundary points, where estimator and mean both vanish).
"""

import math

import numpy as np

from .errors import CapacityError, UsageError
from .grid import MAX_TASK_BYTES, LevelGeometry, NodalField, prolong_to

#: Memory of ``rms_error`` per reference point, an upper bound: it peaks at 6.00
#: doubles per point (tracemalloc, r = 16, 20 and 22), so the cap admits r <= 25.
RMS_BYTES_PER_POINT = 7 * 8


def exact_mean(t: float, level: LevelGeometry) -> NodalField:
    """Nodal values of exp(-pi^2 t) sin(pi x) at time ``t``."""
    if not 0.0 <= t <= 1.0:
        raise UsageError(f"time {t} outside [0, 1]")
    return NodalField(level, exact_mean_values(t, level.nodes))


def exact_mean_values(t: float, x: np.ndarray) -> np.ndarray:
    return math.exp(-math.pi**2 * t) * np.sin(np.pi * np.asarray(x, dtype=np.float64))


def reference_points(m: int) -> int:
    """Validate an evaluation grid size m = 2**r + 1 and return r; a grid whose
    ``rms_error`` would take more than ``MAX_TASK_BYTES`` is a CapacityError."""
    r = (m - 1).bit_length() - 1
    if m < 2 or 2**r + 1 != m:
        raise UsageError(f"evaluation grid size must be 2**r + 1, got {m}")
    if RMS_BYTES_PER_POINT * m > MAX_TASK_BYTES:
        raise CapacityError(f"a reference grid of m = {m} points needs about "
                            f"{RMS_BYTES_PER_POINT * m} bytes, above the {MAX_TASK_BYTES} cap")
    return r


def rms_error(estimate: NodalField, m: int) -> float:
    """RMS deviation of an estimator field from the exact mean at T = 1.

    The field is evaluated at the m nodal points of the reference grid by
    exact prolongation (linear interpolation on nested dyadic grids); both
    boundary points are included in the average.
    """
    r = reference_points(m)
    if r < estimate.level.level:
        raise UsageError(
            f"reference grid 2**{r}+1 is coarser than the estimate level "
            f"{estimate.level.level}"
        )
    lifted = prolong_to(estimate, r)
    values = np.zeros(m)
    values[1:-1] = lifted.values
    x = np.linspace(0.0, 1.0, m)
    exact = exact_mean_values(1.0, x)
    exact[0] = exact[-1] = 0.0  # Dirichlet boundary, exact in spite of sin(pi*1.0)
    diff = exact - values
    return float(np.sqrt(np.mean(diff**2)))


def rms_aggregate(values) -> float:
    """Root of the mean of squares over replicates."""
    vals = [float(v) for v in values]
    if not vals:
        raise UsageError("aggregate RMS of an empty list")
    return math.sqrt(sum(v * v for v in vals) / len(vals))


def fit_slope(points) -> float:
    """Least-squares slope of y against x (callers pass log2-scaled data)."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise UsageError("slope fit needs at least two points")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        raise UsageError("slope fit needs distinct x values")
    return float((xc @ y) / denom)
