"""Multilevel Monte Carlo for the stochastic heat equation on (0, 1).

The package simulates dX = (AX + F(X)) dt + dW with additive space-time
white noise, discretised by P1 finite elements in space and a semi-implicit
Euler-Maruyama scheme in time on a dyadic hierarchy with dt = h^2, and
compares sample schedules derived from weak versus strong convergence rates.
"""

from .errors import CapacityError, NumericalError, UsageError
from .fem import initial_field, mass_norm_sq, run_deterministic
from .grid import LevelGeometry, NodalField, make_level, prolong_to
from .metrics import (
    exact_mean,
    exact_mean_values,
    fit_slope,
    rms_aggregate,
    rms_error,
)
from .mlmc import (
    LevelStat,
    MlmcResult,
    SampleSchedule,
    WorkPrediction,
    build_schedule,
    mlmc_estimate,
    pair_op_work,
    pair_variances,
    predict_work,
    sample_pair,
)
from .noise import kl_modes, path_stream

__version__ = "0.1.0"
