"""Monte Carlo and multilevel Monte Carlo estimation over coupled paths.

The estimator telescopes over mesh levels lmin..L: the base term is a plain
Monte Carlo mean of the level-lmin solution (the hierarchy starts at the
first level with a nonempty interior-node space), and each higher level
contributes the mean of coupled fine/coarse differences driven by the same
Wiener increments.

Sample counts come from a-priori schedules: either the generic rule
``N_0 = ceil(a_L**-2)``, ``N_l = ceil(a_L**-2 * a_l**(2*eta) * l**(1+eps))``
for a user-supplied decay sequence, or its two dyadic specialisations
("strong": a_l = h_l**gamma with eta = 1, "weak": a_l = h_l**(2*gamma) with
eta = 1/2), plus a singlelevel baseline ``N = ceil(h_L**(-4*gamma))``.

Paths are simulated in chunks of ``CHUNK_SIZE`` by the modal engine of
``fem.StepOperator``: per path, the increments of each slab of ``SLAB_STEPS``
fine steps are drawn once, into one slab buffer that the chunk reuses, and
enter the fine path, and summed in fours the coarse one, as one blocked
weighted sum per sine mode; the terminal coefficients are transformed to
nodal values once, at T = 1, by ``fem.sine_transform``.

All sampling is counter-based and reduced in a fixed order (level-major,
chunk-major), so results are bitwise independent of the worker count.
``check_capacity`` admits a whole study, every schedule of it, before any
path is simulated: it rejects a base level below 1 or above a schedule's top
level, fewer than one replicate or worker, levels whose chunks would need
more than ``grid.MAX_TASK_BYTES``, and stream coordinates beyond the Philox
key fields. ``pair_variances`` admits its level the same way.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapacityError, NumericalError, UsageError
from .fem import (BLOCK, SLAB_STEPS, DriftSpec, ZERO_DRIFT, mass_norm_sq, sine_transform,
                  step_operator)
from .grid import MAX_TASK_BYTES, LevelGeometry, NodalField, make_level, prolong_to, prolong_values
from .noise import KIND_PATH, coarsen_rows, draw_increment_rows, kl_modes, path_stream, stream_key

#: Paths simulated per batch. Fixed so that reductions are identical no
#: matter how chunks are distributed over workers.
CHUNK_SIZE = 64

#: Doubles per dof and path that a chunk's states and terminal transforms
#: take: over its slabs and tables, one cold 64-pair chunk at levels 5..8 with
#: 1, 3, 19 or dofs KL modes, with and without a drift, peaked at up to 11.93
#: (tracemalloc; level 5, one mode, a drift).
STATE_DOUBLES = 12

#: Bytes a chunk holds whatever its size: its Philox streams and Python
#: objects. Over its slabs, states and tables, one cold 64-pair chunk at
#: levels 1..8 with 1, 3, 19 or dofs KL modes, with and without a drift,
#: peaked at up to 43,640 bytes (tracemalloc; level 1, a drift).
CHUNK_OVERHEAD_BYTES = 2**16

SCHEDULE_MODES = ("singlelevel", "strong", "weak", "general")


def _ceil_count(value: float) -> int:
    """Ceiling with a guard against floating-point overshoot of integers."""
    c = math.ceil(value)
    if c - value > 1.0 - 1e-9:
        c -= 1
    return max(int(c), 1)


@dataclass(frozen=True)
class SampleSchedule:
    """Per-level sample counts with their provenance.

    For multilevel modes ``counts`` has L+1 entries indexed by level, where
    ``counts[0]`` plays the base-term role; for singlelevel mode it holds the
    single count at the top level.
    """

    top_level: int
    counts: tuple
    mode: str
    gamma: float
    eps: float
    eta: Optional[float]
    a: tuple

    def count_for(self, level: int, lmin: int) -> int:
        if self.mode == "singlelevel":
            if level != self.top_level:
                raise UsageError("singlelevel schedule only defines the top level")
            return self.counts[0]
        if level == lmin:
            return self.counts[0]
        return self.counts[level]


def build_schedule(
    mode: str,
    top_level: int,
    gamma: float = 0.5,
    eps: float = 1.0,
    a: Optional[Sequence[float]] = None,
    eta: Optional[float] = None,
) -> SampleSchedule:
    """Sample counts for one estimator run.

    ``a`` and ``eta`` are only consumed in general mode; the dyadic modes
    derive them from ``gamma``.
    """
    if mode not in SCHEDULE_MODES:
        raise UsageError(f"unknown schedule mode {mode!r}")
    if top_level < 1:
        raise UsageError("top level must be at least 1")
    if not 0.0 < gamma < 1.0:
        raise UsageError(f"gamma must lie in (0, 1), got {gamma}")
    if eps < 0.0:
        raise UsageError(f"eps must be nonnegative, got {eps}")
    make_level(top_level)  # capacity check

    h = [2.0 ** (-l) for l in range(top_level + 1)]
    if mode == "singlelevel":
        n = _ceil_count(h[top_level] ** (-4.0 * gamma))
        return SampleSchedule(top_level, (n,), mode, gamma, eps, None,
                              (h[top_level] ** (2.0 * gamma),))

    if mode == "strong":
        seq = [h[l] ** gamma for l in range(top_level + 1)]
        eta_eff = 1.0
    elif mode == "weak":
        seq = [h[l] ** (2.0 * gamma) for l in range(top_level + 1)]
        eta_eff = 0.5
    else:
        if a is None or eta is None:
            raise UsageError("general mode needs the decay sequence a and eta")
        seq = [float(v) for v in a]
        if len(seq) != top_level + 1:
            raise UsageError(f"decay sequence must have {top_level + 1} entries")
        if any(v <= 0 for v in seq) or any(x < y for x, y in zip(seq, seq[1:])):
            raise UsageError("decay sequence must be positive and nonincreasing")
        if not 0.0 <= eta <= 1.0:
            raise UsageError(f"eta must lie in [0, 1], got {eta}")
        eta_eff = float(eta)

    base = seq[top_level] ** -2.0
    counts = [_ceil_count(base)]
    for l in range(1, top_level + 1):
        counts.append(_ceil_count(base * seq[l] ** (2.0 * eta_eff) * l ** (1.0 + eps)))
    return SampleSchedule(top_level, tuple(counts), mode, gamma, eps, eta_eff, tuple(seq))


@dataclass(frozen=True)
class FunctionalSpec:
    """What to estimate: the solution itself, its squared L2 norm, or a
    user-supplied scalar functional of the nodal field."""

    kind: str
    func: Optional[Callable[[NodalField], float]] = None


IDENTITY = FunctionalSpec("identity")
SQUARED_NORM = FunctionalSpec("squared_norm")


def _functional_values(spec: FunctionalSpec, level: LevelGeometry, states: np.ndarray):
    """The functional of each column of ``states`` (dofs, b) on ``level``:
    the states themselves for identity, else an array of b values."""
    if spec.kind == "identity":
        return states
    if spec.kind == "squared_norm":
        return mass_norm_sq(level, states)
    if spec.kind == "custom":
        if spec.func is None:
            raise UsageError("custom functional without a callable")
        return np.array([float(spec.func(NodalField(level, x))) for x in states.T])
    raise UsageError(f"unknown functional kind {spec.kind!r}")


def _simulate_chunk(pair_level, lmin, start, count, replicate, master_seed,
                    kl_rule, drift, zero_noise):
    """Simulate ``count`` coupled paths with sample indices start..start+count-1.

    Returns (fine, coarse) nodal state matrices at T = 1 with one column per
    path; coarse is None at the base level. Paths run in sine-mode
    coordinates (see ``StepOperator``) from the initial data sin(pi*x), the
    first sine vector. Without drift each path takes one weighted sum per slab
    of its increments, drawn into one slab buffer that the chunk reuses. A
    drift is stepped batched over the chunk in blocks of
    SLAB_STEPS // CHUNK_SIZE = 16 steps, each path's rows drawn into its part
    of one (count, 16, J) buffer, which also fills one slab.
    """
    fine = make_level(pair_level)
    has_coarse = pair_level > lmin
    jf = kl_modes(fine, kl_rule)
    op_f = step_operator(fine, jf)
    cf = np.zeros((fine.dofs, count))
    cf[0] = 1.0
    if has_coarse:
        coarse = make_level(pair_level - 1)
        jc = kl_modes(coarse, kl_rule)
        op_c = step_operator(coarse, jc)
        cc = np.zeros((coarse.dofs, count))
        cc[0] = 1.0

    dt = fine.time_step
    size = SLAB_STEPS if drift.func is None else SLAB_STEPS // CHUNK_SIZE
    blocks = [min(size, fine.steps - done) for done in range(0, fine.steps, size)]
    if drift.func is None and zero_noise:
        cf = op_f.rho[:, None] ** fine.steps * cf
        if has_coarse:
            cc = op_c.rho[:, None] ** coarse.steps * cc
    elif drift.func is None:
        buffer = np.empty((blocks[0], jf))
        for b in range(count):
            stream = path_stream(master_seed, pair_level, replicate, start + b)
            for nsteps in blocks:
                rows = draw_increment_rows(stream, nsteps, jf, dt, out=buffer[:nsteps])
                cf[:, b] = op_f.step(rows, cf[:, b])
                if has_coarse:
                    cc[:, b] = op_c.step(coarsen_rows(rows, jc), cc[:, b])
    else:
        streams = [] if zero_noise else [
            path_stream(master_seed, pair_level, replicate, start + b) for b in range(count)]
        buffer = np.zeros((count, blocks[0], jf))  # stays zero without noise
        for nsteps in blocks:
            for b, stream in enumerate(streams):
                draw_increment_rows(stream, nsteps, jf, dt, out=buffer[b, :nsteps])
            rows = buffer[:, :nsteps].transpose(1, 2, 0)
            cf = op_f.step(rows, cf, drift)
            if has_coarse:
                cc = op_c.step(coarsen_rows(rows, jc), cc, drift)
            _check_finite(cf, cc if has_coarse else None, pair_level, replicate, start, count)
    xf = sine_transform(cf)
    xc = sine_transform(cc) if has_coarse else None
    _check_finite(xf, xc, pair_level, replicate, start, count)
    return xf, xc


def _check_finite(fine, coarse, pair_level, replicate, start, count):
    if not np.isfinite(fine).all() or (coarse is not None and not np.isfinite(coarse).all()):
        raise NumericalError(
            f"non-finite state at level {pair_level}, replicate {replicate}, "
            f"samples {start}..{start + count - 1}")


def _check_stream_capacity(master_seed, replicate, counts):
    """Fail before any simulation if a (level, samples) pair in ``counts``
    needs stream coordinates beyond the Philox key fields."""
    for level, n in counts:
        try:
            stream_key(master_seed, KIND_PATH, level, replicate, n - 1)
        except UsageError as exc:
            raise UsageError(f"level {level} with {n} samples, replicate {replicate}: "
                             f"{exc}") from exc


def check_chunk_memory(levels, kl_rule, workers: int = 1):
    """Fail before any simulation if the chunks of a level in ``levels``, on
    ``workers`` threads, would need more than ``MAX_TASK_BYTES``. Each thread
    holds 2 slabs of s*J doubles, J the KL modes and s = min(SLAB_STEPS,
    CHUNK_SIZE*steps) (a drift chunk draws 16 steps of all its paths into
    one slab), ``STATE_DOUBLES * dofs * CHUNK_SIZE`` doubles of states and
    terminal transforms, and ``CHUNK_OVERHEAD_BYTES``; the threads share the
    step tables, 2*BLOCK*J doubles for every level 1..l, so the bound of a
    level does not depend on which levels ran before it.
    """
    if workers < 1:
        raise UsageError(f"workers must be at least 1, got {workers}")
    for level in sorted(levels):
        fine = make_level(level)
        per_thread = (2 * min(SLAB_STEPS, CHUNK_SIZE * fine.steps) * kl_modes(fine, kl_rule)
                      + STATE_DOUBLES * fine.dofs * CHUNK_SIZE)
        tables = 2 * BLOCK * sum(kl_modes(make_level(m), kl_rule) for m in range(1, level + 1))
        need = 8 * (workers * per_thread + tables) + workers * CHUNK_OVERHEAD_BYTES
        if need > MAX_TASK_BYTES:
            raise CapacityError(f"level {level} chunks need about {need} bytes on {workers} "
                                f"worker(s), above the {MAX_TASK_BYTES}-byte cap")


def check_capacity(schedules, lmin, master_seed, replicates, kl_rule, workers: int = 1):
    """Admit a study before any path is simulated: ``replicates`` replicates
    of each schedule in ``schedules`` from the base level ``lmin``.

    Checks the base level against every schedule, then the chunk memory of
    every level the study runs, then the stream key of each level's last
    sample in the last replicate. Returns the levels of each schedule, its
    base level first.
    """
    if lmin < 1:
        raise UsageError("the base level must be at least 1 (level 0 is empty)")
    if replicates < 1:
        raise UsageError(f"a study needs at least one replicate, got {replicates}")
    plan = []
    for schedule in schedules:
        top = schedule.top_level
        if lmin > top:
            raise UsageError(f"base level {lmin} exceeds the top level {top}")
        plan.append([top] if schedule.mode == "singlelevel" else list(range(lmin, top + 1)))
    check_chunk_memory(set().union(*plan), kl_rule, workers)
    for schedule, levels in zip(schedules, plan):
        _check_stream_capacity(master_seed, replicates - 1,
                               [(level, schedule.count_for(level, levels[0])) for level in levels])
    return plan


def _check_pair_level(pair_level, lmin):
    if lmin < 1:
        raise UsageError("the base level must be at least 1 (level 0 is empty)")
    if pair_level < lmin:
        raise UsageError(f"pair level {pair_level} below the base level {lmin}")


def sample_pair(
    pair_level: int,
    lmin: int,
    master_seed: int,
    sample: int,
    replicate: int = 0,
    kl_rule: Optional[int] = None,
    drift: DriftSpec = ZERO_DRIFT,
    zero_noise: bool = False,
):
    """One coupled sample: the fine path at ``pair_level`` and, above the base
    level, the coarse path driven by the aggregated fine increments.

    Identical stream coordinates reproduce the pair bitwise.
    """
    _check_pair_level(pair_level, lmin)
    xf, xc = _simulate_chunk(pair_level, lmin, sample, 1, replicate, master_seed,
                             kl_rule, drift, zero_noise)
    fine = NodalField(make_level(pair_level), xf[:, 0])
    if xc is None:
        return fine, None
    return fine, NodalField(make_level(pair_level - 1), xc[:, 0])


def _level_values(functional: FunctionalSpec, pair_level: int, xf, xc):
    """Functional of the fine paths less that of their coarse partners, states
    prolonged to the fine grid first; the fine values alone at the base level."""
    fine = _functional_values(functional, make_level(pair_level), xf)
    if xc is None:
        return fine
    coarse = _functional_values(functional, make_level(pair_level - 1), xc)
    return fine - (prolong_values(coarse) if coarse.ndim == 2 else coarse)


def _moments(values: np.ndarray, level: LevelGeometry):
    """Partial sums of one chunk: the sum of its samples and the sum of their
    squared norms, L2 on ``level`` for states (dofs, b), squares for scalars (b,)."""
    if values.ndim == 1:
        return float(np.sum(values)), float(np.sum(values**2))
    return values.sum(axis=1), float(np.sum(mass_norm_sq(level, values)))


def _level_task(args):
    """Chunk partial sums of a functional's level differences.

    ``args`` holds the arguments of ``_simulate_chunk`` followed by the
    functional.
    """
    *chunk, functional = args
    xf, xc = _simulate_chunk(*chunk)
    return _moments(_level_values(functional, chunk[0], xf, xc), make_level(chunk[0]))


def _pair_moment_task(args):
    """Chunk partial sums of the coupled differences and of the fine paths;
    ``args`` holds the arguments of ``_simulate_chunk``."""
    xf, xc = _simulate_chunk(*args)
    fine = make_level(args[0])
    return _moments(_level_values(IDENTITY, args[0], xf, xc), fine) + _moments(xf, fine)


@contextmanager
def _pool(workers: int):
    """A thread pool for more than one worker; None runs tasks inline.

    Threads draw and step in parallel because Philox fills and numpy array
    arithmetic release the GIL; Python callables (a custom functional, a
    drift) run one at a time.
    """
    if workers < 2:
        yield None
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool


def _level_sums(task, pool, level: int, lmin: int, n: int, *args):
    """Run ``task`` over the chunks of ``n`` samples at ``level``, on ``pool``
    or inline, and add up the partial sums it returns in chunk order.

    A chunk's task tuple is (level, lmin, start, count, *args). Returns the
    list of sums and the wall time of the tasks.
    """
    tasks = [(level, lmin, s, min(CHUNK_SIZE, n - s), *args) for s in range(0, n, CHUNK_SIZE)]
    started = time.perf_counter()
    partials = list(pool.map(task, tasks)) if pool is not None else [task(t) for t in tasks]
    wall = time.perf_counter() - started
    sums = [0.0] * len(partials[0])
    for partial in partials:
        sums = [total + value for total, value in zip(sums, partial)]
    return sums, wall


def _mean_and_variance(total, sq, n: int, level: LevelGeometry):
    """Sample mean and unbiased variance of ``n`` samples from their sum and
    the sum of their squared norms (L2 on ``level`` for states)."""
    mean = total / n
    norm_sq = mass_norm_sq(level, mean) if np.ndim(mean) else mean * mean
    return mean, 0.0 if n < 2 else max(0.0, (sq - n * norm_sq) / (n - 1))


def pair_variances(pair_level, lmin, n, master_seed, kl_rule=None,
                   zero_noise=False, workers=1):
    """Sample variances of the coupled level difference and of the fine path.

    Both are Hilbert-space variances (mean squared L2 distance from the
    sample mean) estimated from ``n`` coupled pairs; the coarse member is
    prolonged to the fine grid before differencing. At the base level the
    difference degenerates to the path itself. Fails before any simulation
    on a pair level below the base level, fewer than two pairs, too many
    pairs for the stream key, or chunks over ``MAX_TASK_BYTES``.
    """
    _check_pair_level(pair_level, lmin)
    if n < 2:
        raise UsageError("variance estimation needs at least two pairs")
    _check_stream_capacity(master_seed, 0, [(pair_level, n)])
    check_chunk_memory([pair_level], kl_rule, workers=workers)
    with _pool(workers) as pool:
        (diff_sum, diff_sq, fine_sum, fine_sq), _wall = _level_sums(
            _pair_moment_task, pool, pair_level, lmin, n,
            0, master_seed, kl_rule, ZERO_DRIFT, zero_noise)
    fine = make_level(pair_level)
    return (_mean_and_variance(diff_sum, diff_sq, n, fine)[1],
            _mean_and_variance(fine_sum, fine_sq, n, fine)[1])


def pair_op_work(pair_level: int, lmin: int) -> int:
    """Abstract per-sample cost: dofs*steps for every path simulated."""
    fine = make_level(pair_level)
    w = fine.dofs * fine.steps
    if pair_level > lmin:
        coarse = make_level(pair_level - 1)
        w += coarse.dofs * coarse.steps
    return w


@dataclass(frozen=True)
class LevelStat:
    """Per-level statistics of one estimator run."""

    level: int
    samples: int
    mean_contribution: object  # ndarray at the level's dofs, or float
    variance: float
    op_work: int
    wall_seconds: float


@dataclass(frozen=True)
class MlmcResult:
    estimate: object  # NodalField on the top level (identity mode) or float
    level_stats: tuple
    total_op_work: int
    summation_op_work: int
    wall_seconds: float
    schedule: SampleSchedule
    lmin: int
    master_seed: int
    replicate: int


def mlmc_estimate(
    top_level: int,
    lmin: int,
    schedule: SampleSchedule,
    functional: FunctionalSpec = IDENTITY,
    master_seed: int = 0,
    replicate: int = 0,
    kl_rule: Optional[int] = None,
    drift: DriftSpec = ZERO_DRIFT,
    zero_noise: bool = False,
    workers: int = 1,
) -> MlmcResult:
    """Run the multilevel (or singlelevel) estimator for one replicate.

    Parameters
    ----------
    top_level : finest mesh level L; must match ``schedule.top_level``.
    lmin : base level of the hierarchy (1 by default in the CLI); the term
        below it is zero, so the base level is estimated on its own.
    schedule : per-level sample counts from :func:`build_schedule`.
    functional : what to average; identity yields a nodal field on level L.
    master_seed, replicate : stream coordinates. Distinct replicates are
        independent; a fixed pair reproduces the result bitwise.
    kl_rule : fixed KL truncation for every level, or None for J = dofs.
    workers : thread count for chunk simulation. Results do not depend on
        it; chunk boundaries and the reduction order are fixed.
    """
    if schedule.top_level != top_level:
        raise UsageError("schedule was built for a different top level")
    (levels,) = check_capacity([schedule], lmin, master_seed, replicate + 1, kl_rule, workers)
    base = levels[0]
    identity = functional.kind == "identity"
    t_total = time.perf_counter()
    stats = []
    estimate = 0.0
    with _pool(workers) as pool:
        for level in levels:
            n = schedule.count_for(level, base)
            (total, sq), wall = _level_sums(_level_task, pool, level, base, n, replicate,
                                            master_seed, kl_rule, drift, zero_noise,
                                            functional)
            geometry = make_level(level)
            mean, variance = _mean_and_variance(total, sq, n, geometry)
            stats.append(LevelStat(
                level=level,
                samples=n,
                mean_contribution=mean,
                variance=variance,
                op_work=n * pair_op_work(level, base),
                wall_seconds=wall,
            ))
            if identity:
                mean = prolong_to(NodalField(geometry, mean), top_level).values
            estimate = estimate + mean

    top = make_level(top_level)
    # Summing the per-level means on the top grid touches dofs(L) entries per level.
    summation_work = len(levels) * top.dofs
    return MlmcResult(
        estimate=NodalField(top, estimate) if identity else float(estimate),
        level_stats=tuple(stats),
        total_op_work=sum(s.op_work for s in stats) + summation_work,
        summation_op_work=summation_work,
        wall_seconds=time.perf_counter() - t_total,
        schedule=schedule,
        lmin=base,
        master_seed=master_seed,
        replicate=replicate,
    )


@dataclass(frozen=True)
class WorkPrediction:
    """Theoretical work of a schedule plus its asymptotic complexity."""

    per_level: tuple           # N_l * cost * h_l**-(d+2), schedule index order
    summation: float           # sum_cost * h_L**-delta
    total: float
    accuracy_exponent: float   # work ~ accuracy**exponent for the mode
    log_factor: bool           # whether a |log2 accuracy| factor multiplies it
    bound_exponent: float      # exponent of a_L in the schedule work bound
    bound_poly_power: Optional[float]  # power of L multiplying the bound
    error_constant: float      # C1 + sqrt(C3 + C2 * zeta(1 + eps)), unit C's
    kappa: float


def predict_work(
    schedule: SampleSchedule,
    d: int = 1,
    kappa: Optional[float] = None,
    delta: float = 0.0,
    cost: float = 1.0,
    sum_cost: float = 1.0,
) -> WorkPrediction:
    """Evaluate the work model for a schedule.

    The per-sample cost at level l is ``cost * h_l**-(d+2)`` (space times
    time), and adding up the level estimators costs ``sum_cost * h_L**-delta``.
    The accuracy exponents reproduce the complexity table: plain Monte Carlo
    scales as eps**-((d+2)/(2*gamma)+2), the strong-rate schedule as
    eps**-(d+2)/gamma with a log factor, and the weak-rate schedule as
    eps**-((d+2)/(2*gamma)+1) with a log factor.
    """
    if d < 0:
        raise UsageError("spatial work dimension d must be nonnegative")
    if delta < 0.0:
        raise UsageError("summation exponent delta must be nonnegative")
    gamma = schedule.gamma
    top = schedule.top_level
    h_top = 2.0 ** (-top)

    if schedule.mode == "singlelevel":
        per_level = (schedule.counts[0] * cost * h_top ** -(d + 2),)
    else:
        per_level = tuple(
            schedule.counts[l] * cost * (2.0 ** (-l)) ** -(d + 2)
            for l in range(top + 1)
        )
    summation = sum_cost * h_top**-delta

    if kappa is None:
        if schedule.mode == "strong":
            kappa = (d + 2) / gamma
        elif schedule.mode in ("weak", "singlelevel"):
            kappa = (d + 2) / (2.0 * gamma)
        else:
            raise UsageError("general mode needs an explicit kappa")
    if kappa <= 0.0:
        raise UsageError("kappa must be positive")

    eta = schedule.eta if schedule.eta is not None else 0.5
    if kappa < 2.0 * eta:
        bound_exponent = -max(2.0, delta)
        bound_poly_power = None
    else:
        bound_exponent = -(2.0 + kappa - 2.0 * eta)
        bound_poly_power = 2.0 + schedule.eps

    if schedule.mode == "singlelevel":
        accuracy_exponent = -((d + 2) / (2.0 * gamma) + 2.0)
        log_factor = False
    elif schedule.mode == "strong":
        accuracy_exponent = -(d + 2) / gamma
        log_factor = True
    elif schedule.mode == "weak":
        accuracy_exponent = -((d + 2) / (2.0 * gamma) + 1.0)
        log_factor = True
    else:
        accuracy_exponent = bound_exponent
        log_factor = False

    from scipy.special import zeta  # deferred: importing the package loads numpy only

    error_constant = (math.inf if schedule.eps == 0.0
                      else 1.0 + math.sqrt(1.0 + float(zeta(1.0 + schedule.eps, 1))))

    return WorkPrediction(
        per_level=per_level,
        summation=summation,
        total=float(sum(per_level) + summation),
        accuracy_exponent=accuracy_exponent,
        log_factor=log_factor,
        bound_exponent=bound_exponent,
        bound_poly_power=bound_poly_power,
        error_constant=error_constant,
        kappa=kappa,
    )
