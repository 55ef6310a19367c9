"""Monte Carlo and multilevel Monte Carlo estimation over coupled paths.

The estimator telescopes over mesh levels lmin..L: the base term is a plain
Monte Carlo mean of the level-lmin solution (the hierarchy starts at the
first level with a nonempty interior-node space), and each higher level
contributes the mean of coupled fine/coarse differences driven by the same
Wiener increments.

Sample counts follow ``N_0 = ceil(a_L**-2)``, ``N_l = ceil(a_L**-2 *
a_l**(2*eta) * l**(1+eps))``: "general" takes the decay sequence a_l and eta
as given, a named mode of rate power p = ``RATE_POWERS[mode]`` sets a_l =
h_l**(p*gamma) and eta = 1/p, and "singlelevel" runs ``ceil(a_L**-2)`` samples
of the top level alone. ``SampleSchedule.level_counts`` states a run's plan,
its (level, samples) from the base level up, and rejects a base level above
the top. ``predict_work`` takes every multilevel exponent from the one work
bound of the MLMC theorem (Giles, Oper. Res. 56 (2008)).

Paths are simulated in chunks of ``CHUNK_SIZE`` by ``fem.StepOperator`` in
the one stepping loop of ``_simulate_chunk``. A chunk's plan,
``_chunk_plan``, is the one place that decides its levels (the coarse member
above the base level), its block length and its group width; the loop, a
pair's cost ``pair_op_work``, a chunk's memory ``chunk_bytes`` (and so
``check_capacity``) and the readers of a chunk's states, ``_level_task`` and
``sample_pair``, all take them from it. Rows of standard normals, drawn once
per block, drive the fine paths and their halved sums of four the coarse
ones: c_j <- rho_j c_j + beta_j z_j; beta_j carries h. Without noise or drift
a chunk steps nothing: its paths are ``fem.initial_decay`` times the initial
data. A chunk builds its own operators and drops them on return, so worker
threads share no mutable state. The functional and the drift are plain
values: the functional is ``"identity"``, ``"squared-norm"`` or a callable on a
``NodalField`` (a value that is not finite is a ``NumericalError``), the drift
None (F = 0) or a callable on nodal values that keeps their shape.

All sampling is counter-based and reduced in a fixed order (level-major,
chunk-major), so results are bitwise independent of the worker count.
``check_capacity`` is the one admission of estimator work, of one flat plan:
``mlmc_estimate`` and ``sample_pair`` call it on what they run,
``pair_variances`` on a whole variance study after its two-pair rule, and the
CLI on a whole ``run`` or ``compare`` study, before any path is simulated;
stream coordinates, levels, the base level, a fixed KL truncation and the
worker count must be integers. ``check_gamma`` alone bounds gamma.
One runner, ``_level_moments``, runs each level's chunks of the one chunk
task, ``_level_task``, at most two per worker in flight, and forms every mean
and variance from their sums into the level's ``LevelStat``, the one
per-level record that the estimators return.
"""

import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapacityError, NumericalError, UsageError, as_index
from .fem import BLOCK, SLAB_STEPS, StepOperator, initial_decay, mass_norm_sq, sine_transform
from .grid import MAX_TASK_BYTES, LevelGeometry, NodalField, make_level, prolong_to, prolong_values
from .noise import KIND_PATH, coarsen_rows, draw_increment_rows, kl_modes, path_stream, stream_key

#: Paths simulated per batch. Fixed so that reductions are identical no
#: matter how chunks are distributed over workers.
CHUNK_SIZE = 64

#: Doubles per dof and path that a chunk's states and terminal transforms
#: take: over its slabs and the tables of its operators, one 64-pair chunk at
#: levels 5..8 with 1, 3, 19 or dofs KL modes, with and without a drift (to
#: level 7), from base level 1 and at its own level, peaked at up to 13.11
#: (tracemalloc; level 5, one mode, a drift, base level 1;
#: ``CHUNK_OVERHEAD_BYTES`` covers the 17,600 bytes beyond 12).
STATE_DOUBLES = 12

#: Bytes a chunk holds whatever its size: its Philox streams and Python
#: objects. Over its slabs, states and the tables of its operators, one
#: 64-pair chunk at levels 1..8 with 1, 3, 19 or dofs KL modes, with and
#: without a drift (to level 7), from base level 1 and at its own level,
#: peaked at up to 44,304 bytes (tracemalloc; level 1, a drift).
CHUNK_OVERHEAD_BYTES = 2**16

#: Worker threads at most. A level's pool starts one OS thread per worker;
#: the memory admission counts no thread stack, and threads beyond the cores
#: add no speed. 256 exceeds the cores of common machines, and a count such as
#: 5,000 is rejected before it asks the OS for thousands of threads.
MAX_WORKERS = 256

#: Rate power p of each named schedule mode: decay a_l = h_l**(p*gamma),
#: variance order eta = 1/p and default kappa = (d+2)/(p*gamma).
RATE_POWERS = {"singlelevel": 2.0, "strong": 1.0, "weak": 2.0}

SCHEDULE_MODES = (*RATE_POWERS, "general")


def _ceil_count(value: float, level: int) -> int:
    """The sample count of ``level``: the ceiling of ``value`` with a guard
    against floating-point overshoot of integers."""
    if not math.isfinite(value):
        raise UsageError(f"the sample count of level {level} is not a finite float: {value}")
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
    eta: float

    def level_counts(self, lmin: int) -> list:
        """The plan of a run from the base level ``lmin``: (level, samples) of lmin..top,
        or of the top level alone for singlelevel. Fails on a base outside 1..top."""
        top = self.top_level
        check_base(lmin)
        if lmin > top:
            raise UsageError(f"the base level {lmin} exceeds the top level {top}")
        if self.mode == "singlelevel":
            return [(top, self.counts[0])]
        return [(l, self.counts[l if l > lmin else 0]) for l in range(lmin, top + 1)]

    def count_for(self, level: int, lmin: int) -> int:
        """The samples of ``level`` in the plan from ``lmin`` (``level_counts``)."""
        plan = dict(self.level_counts(lmin))
        if level not in plan:
            raise UsageError(f"level {level} is not in the plan from base level {lmin}")
        return plan[level]


def check_gamma(gamma: float) -> None:
    """Reject a rate parameter gamma outside (0, 1), NaN included."""
    if not 0.0 < gamma < 1.0:
        raise UsageError(f"gamma must lie in (0, 1), got {gamma}")


def build_schedule(
    mode: str,
    top_level: int,
    gamma: float = 0.5,
    eps: float = 1.0,
    a: Optional[Sequence[float]] = None,
    eta: Optional[float] = None,
) -> SampleSchedule:
    """Sample counts for one estimator run.

    ``a`` and ``eta`` are only consumed in general mode; a named mode derives
    them from ``gamma`` and its rate power. Fails on non-finite input and on
    a count that is not a finite float, naming its level.
    """
    if mode not in SCHEDULE_MODES:
        raise UsageError(f"unknown schedule mode {mode!r}")
    if top_level < 1:
        raise UsageError("top level must be at least 1")
    check_gamma(gamma)
    if not 0.0 <= eps < math.inf:
        raise UsageError(f"eps must be finite and nonnegative, got {eps}")
    make_level(top_level)  # capacity check

    if mode == "general":
        if a is None or eta is None:
            raise UsageError("general mode needs the decay sequence a and eta")
        seq = [float(v) for v in a]
        if len(seq) != top_level + 1:
            raise UsageError(f"decay sequence must have {top_level + 1} entries")
        if any(not 0.0 < v < math.inf for v in seq) or any(x < y for x, y in zip(seq, seq[1:])):
            raise UsageError("decay sequence must be finite, positive and nonincreasing")
        if not 0.0 <= eta <= 1.0:
            raise UsageError(f"eta must lie in [0, 1], got {eta}")
        eta = float(eta)
    else:
        power = RATE_POWERS[mode]
        seq = [(2.0 ** -l) ** (power * gamma) for l in range(top_level + 1)]
        eta = 1.0 / power
    if mode == "singlelevel":
        # a_L**-2 as h_L**(-2*p*gamma), one rounding
        n = _ceil_count((2.0 ** -top_level) ** (-2.0 * power * gamma), top_level)
        return SampleSchedule(top_level, (n,), mode, gamma, eps, eta)

    counts = []
    for l in range(top_level + 1):
        try:
            n = seq[top_level] ** -2.0
            n = n * seq[l] ** (2.0 * eta) * l ** (1.0 + eps) if l else n
        except OverflowError:
            n = math.inf
        counts.append(_ceil_count(n, l))
    return SampleSchedule(top_level, tuple(counts), mode, gamma, eps, eta)


def _functional_values(functional, level: LevelGeometry, states: np.ndarray):
    """The functional of each column of ``states`` (dofs, b) on ``level``:
    the states themselves for identity, else an array of b values. A custom
    functional's value that is not finite is a ``NumericalError``."""
    if functional == "identity":
        return states
    if functional == "squared-norm":
        return mass_norm_sq(level, states)
    values = np.array([float(functional(NodalField(level, x))) for x in states.T])
    if not np.isfinite(values).all():
        raise NumericalError(f"the functional is not finite on a path at level {level.level}")
    return values


def _chunk_plan(pair_level, lmin, count=1, drift=None):
    """What a chunk of ``count`` coupled paths at ``pair_level`` simulates, decided
    here alone: (levels, block, group). Its levels are the fine one and, above the
    base level ``lmin``, the coarse member one level down; its block min(steps,
    SLAB_STEPS) steps, min(steps, SLAB_STEPS // CHUNK_SIZE) with a ``drift`` (powers
    of two: they divide the steps); its group min(count, SLAB_STEPS // block) paths."""
    levels = [make_level(pair_level - k) for k in range(1 + (pair_level > lmin))]
    block = min(levels[0].steps, SLAB_STEPS if drift is None else SLAB_STEPS // CHUNK_SIZE)
    return levels, block, min(count, SLAB_STEPS // block)


def _simulate_chunk(pair_level, lmin, start, count, replicate, master_seed,
                    kl_rule, drift, zero_noise):
    """Simulate ``count`` coupled paths with sample indices start..start+count-1
    on the levels, blocks and groups of their ``_chunk_plan``.

    Returns (fine, coarse) nodal state matrices at T = 1 with one column per
    path; coarse is None at the base level. Paths run in sine-mode coordinates
    (see ``StepOperator``) from the initial data sin(pi*x), the first sine
    vector, and are rho_1**steps times it without noise or drift
    (``fem.initial_decay``): no step operator is built. Otherwise each path of a
    group draws a block into its row of one (group, block, J) buffer that the
    chunk reuses, and each operator steps the group once per block. Only the
    states at T = 1 are checked to be finite: a non-finite coefficient stays so.
    """
    levels, block, group = _chunk_plan(pair_level, lmin, count, drift)
    states = [np.zeros((level.dofs, count)) for level in levels]
    noise_free = drift is None and zero_noise
    for level, state in zip(levels, states):
        state[0] = initial_decay(level, level.steps) if noise_free else 1.0
    if not noise_free:
        ops = [StepOperator(level, kl_modes(level, kl_rule)) for level in levels]
        buffer = np.zeros((group, block, ops[0].modes))  # stays zero without noise
        for first in range(0, count, group):
            columns = [state[:, first:first + group] for state in states]  # last may be narrower
            streams = [path_stream(master_seed, pair_level, replicate, start + b)
                       for b in range(first, min(first + group, count)) if not zero_noise]
            rows = buffer[:columns[0].shape[1]].transpose(1, 2, 0)
            for _ in range(levels[0].steps // block):
                for stream, path_rows in zip(streams, buffer):
                    draw_increment_rows(stream, block, ops[0].modes, out=path_rows)
                for k, (op, column) in enumerate(zip(ops, columns)):
                    column[...] = op.step(coarsen_rows(rows, op.modes) if k else rows,
                                          column, drift)
    nodal = [sine_transform(state) for state in states]
    if not all(np.isfinite(state).all() for state in nodal):
        raise NumericalError(f"non-finite state at level {pair_level}, replicate "
                             f"{replicate}, samples {start}..{start + count - 1}")
    return nodal[0], nodal[1] if len(nodal) > 1 else None


def chunk_bytes(pair_level: int, lmin: int, kl_rule, zero_noise: bool = False, drift=None,
                paths=CHUNK_SIZE) -> int:
    """Bytes that one chunk of ``_simulate_chunk`` of ``paths`` paths at
    ``pair_level`` from the base level ``lmin`` holds on its thread, all
    dropped when it returns, counted from its ``_chunk_plan``:
    ``STATE_DOUBLES * dofs * paths`` doubles of states and terminal transforms
    and ``CHUNK_OVERHEAD_BYTES``; and, as it steps unless it has ``zero_noise``
    and no ``drift``, 2 slabs of group*block*J doubles, J the fine level's KL
    modes (its buffer and the coarsened rows), and 2*BLOCK*J doubles of tables
    for each step operator the plan builds.
    """
    levels, block, group = _chunk_plan(pair_level, lmin, paths, drift)
    modes = [kl_modes(level, kl_rule) for level in levels]
    doubles = STATE_DOUBLES * levels[0].dofs * paths
    if drift is not None or not zero_noise:
        doubles += 2 * group * block * modes[0] + 2 * BLOCK * sum(modes)
    return 8 * doubles + CHUNK_OVERHEAD_BYTES


def check_base(lmin: int) -> None:
    """Reject a base level that is not an integer of at least 1: level 0 has
    no interior node."""
    if as_index(lmin, "the base level") < 1:
        raise UsageError("the base level must be at least 1 (level 0 is empty)")


def check_capacity(plan, lmin, master_seed, replicates, kl_rule, workers: int = 1,
                   zero_noise: bool = False, drift=None):
    """Admit estimator work before any path is simulated: ``replicates``
    replicates of ``plan``, the (level, samples) pairs of a study's runs, from
    the base level ``lmin``. Checks the base level and that each level is an
    integer not below it, the replicates, that each level has a sample and
    that the chunks of every level that can be in flight at once,
    min(``workers``, ceil(n / CHUNK_SIZE)) for the level's largest sample
    count n in the plan, fit in ``MAX_TASK_BYTES`` (``chunk_bytes`` each, of
    chunks with the given ``zero_noise`` and ``drift``), at most
    ``MAX_WORKERS`` workers, and the stream key of each level's last sample
    in the last replicate.
    """
    check_base(lmin)
    if replicates < 1:
        raise UsageError(f"a study needs at least one replicate, got {replicates}")
    for level, _ in plan:
        if as_index(level, "a level") < lmin:
            raise UsageError(f"pair level {level} below the base level {lmin}")
    if as_index(workers, "workers") < 1:
        raise UsageError(f"workers must be at least 1, got {workers}")
    if workers > MAX_WORKERS:
        raise UsageError(f"workers must be at most {MAX_WORKERS}, got {workers}")
    largest = dict(sorted(plan))  # level: its largest n
    for level, n in largest.items():
        if n < 1:
            raise UsageError(f"level {level} has {n} samples; it needs at least one")
        chunks = min(workers, -(-n // CHUNK_SIZE))
        need = chunks * chunk_bytes(level, lmin, kl_rule, zero_noise, drift, min(n, CHUNK_SIZE))
        if need > MAX_TASK_BYTES:
            raise CapacityError(f"level {level} chunks need about {need} bytes, {chunks} on "
                                f"{workers} worker(s), above the {MAX_TASK_BYTES}-byte cap")
    for level, n in largest.items():
        try:
            stream_key(master_seed, KIND_PATH, level, replicates - 1, n - 1)
        except UsageError as exc:
            raise UsageError(f"level {level} with {n} samples, replicate {replicates - 1}: "
                             f"{exc}") from exc


def sample_pair(
    pair_level: int,
    lmin: int,
    master_seed: int,
    sample: int,
    replicate: int = 0,
    kl_rule: Optional[int] = None,
    drift: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    zero_noise: bool = False,
):
    """One coupled sample: the fine path at ``pair_level`` and, above the base
    level, the coarse path driven by the aggregated fine increments, on the levels
    of its ``_chunk_plan``. Identical stream coordinates reproduce the pair
    bitwise. Admitted as the one path it simulates, whatever its sample index."""
    if replicate < 0:
        raise UsageError(f"replicate index must be nonnegative, got {replicate}")
    check_capacity([(pair_level, 1)], lmin, master_seed, replicate + 1, kl_rule,
                   zero_noise=zero_noise, drift=drift)
    stream_key(master_seed, KIND_PATH, pair_level, replicate, sample)
    levels = _chunk_plan(pair_level, lmin)[0]
    states = _simulate_chunk(pair_level, lmin, sample, 1, replicate, master_seed,
                             kl_rule, drift, zero_noise)
    fine, *coarse = [NodalField(level, x[:, 0]) for level, x in zip(levels, states)]
    return fine, coarse[0] if coarse else None


def _moments(values: np.ndarray, level: LevelGeometry):
    """Partial sums of one chunk: the sum of its samples and the sum of their
    squared norms, L2 on ``level`` for states (dofs, b), squares for scalars (b,)."""
    if values.ndim == 1:
        return float(np.sum(values)), float(np.sum(values**2))
    return values.sum(axis=1), float(np.sum(mass_norm_sq(level, values)))


def _level_task(args):
    """The one chunk task on ``args``, the arguments of ``_simulate_chunk`` and a
    functional: ``_moments`` of its level differences, fine values less coarse ones
    on the levels of the ``_chunk_plan`` (states prolonged to the fine grid first;
    the fine values alone at the base level), then ``_moments`` of the fine values."""
    *chunk, functional = args
    levels = _chunk_plan(*chunk[:2])[0]
    fine, *coarse = [_functional_values(functional, level, x)
                     for level, x in zip(levels, _simulate_chunk(*chunk))]
    difference = fine
    if coarse:  # above the base level
        difference = fine - (prolong_values(coarse[0]) if coarse[0].ndim == 2 else coarse[0])
    return _moments(difference, levels[0]) + _moments(fine, levels[0])


# the benchmark's tracer (perfbench/tracing.py) rebinds this name too
_pair_moment_task = _level_task


def _window_map(pool, window: int, task, tasks):
    """Yield ``task`` of each tuple in ``tasks``, in order, with at most
    ``window`` of them submitted to ``pool`` and not yet yielded."""
    pending = deque()
    try:
        for args in tasks:
            pending.append(pool.submit(task, args))
            if len(pending) == window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def pair_op_work(pair_level: int, lmin: int) -> int:
    """Abstract per-sample cost: dofs*steps for every path of its ``_chunk_plan``."""
    return sum(level.dofs * level.steps for level in _chunk_plan(pair_level, lmin)[0])


@dataclass(frozen=True)
class LevelStat:
    """One level's record, built by ``_level_moments`` alone, which says what
    each field holds."""

    level: int
    samples: int
    mean_contribution: object  # ndarray at the level's dofs, or float
    variance: float
    level_variance: float
    op_work: int
    wall_seconds: float


def _level_moments(task, workers: int, level: int, lmin: int, n: int, *args) -> LevelStat:
    """Run ``task`` over the chunks of ``n`` samples at ``level``, each from
    the task tuple (level, lmin, start, count, *args), and form the level's
    ``LevelStat``.

    One worker runs the chunks inline; more run them on a thread pool opened
    for this level, at most two chunks per worker in flight. Threads draw and
    step in parallel because Philox fills and numpy arithmetic release the
    GIL; Python callables (a custom functional, a drift) run one at a time.
    Partial sums are added in chunk order as they arrive.

    The record holds the mean and variance of the level differences and the
    variance of the fine values (``level_variance``), from the two (sum, sum
    of squared norms) pairs of ``_level_task``, L2 on ``level`` for states;
    ``n * pair_op_work(level, lmin)``; and the wall time of the chunks. A
    variance is (sq - n |mean|**2) / (n - 1), or 0.0 for one sample or a
    difference within the sums' rounding, n * eps * sq (identical samples).
    """
    tasks = ((level, lmin, s, min(CHUNK_SIZE, n - s), *args) for s in range(0, n, CHUNK_SIZE))
    started = time.perf_counter()
    sums = None
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for partial_sums in (_window_map(pool, 2 * workers, task, tasks) if pool
                             else map(task, tasks)):
            sums = [total + value for total, value in zip(sums or [0.0] * len(partial_sums),
                                                          partial_sums)]
    wall = time.perf_counter() - started
    geometry = make_level(level)
    moments = []
    for total, sq in zip(sums[::2], sums[1::2]):
        mean = total / n
        spread = sq - n * (mass_norm_sq(geometry, mean) if np.ndim(mean) else mean * mean)
        rounding = n * np.finfo(float).eps * sq  # all that identical samples leave
        moments.append((mean, 0.0 if n < 2 or spread <= rounding else spread / (n - 1)))
    (mean, variance), (_fine_mean, level_variance) = moments
    return LevelStat(level, n, mean, variance, level_variance,
                     n * pair_op_work(level, lmin), wall)


def pair_variances(pair_levels, lmin, n, master_seed, kl_rule=None,
                   zero_noise=False, workers=1) -> tuple:
    """A variance study: the ``LevelStat`` of ``n`` coupled pairs in replicate 0 at each
    level of ``pair_levels``, in order. ``variance`` and ``level_variance`` are the
    Hilbert-space variances (mean squared L2 distance from the sample mean) of the level
    difference, the coarse member prolonged to the fine grid (the path itself at the base
    level), and of the fine path. The study's one admission, before any simulation:
    a pair count that is not an integer or below two fails, then what ``check_capacity``
    rejects of all its pairs.
    """
    if as_index(n, "the pair count") < 2:
        raise UsageError("variance estimation needs at least two pairs")
    plan = [(level, n) for level in pair_levels]
    check_capacity(plan, lmin, master_seed, 1, kl_rule, workers, zero_noise)
    return tuple(_level_moments(_level_task, workers, level, lmin, n, 0, master_seed, kl_rule,
                                None, zero_noise, "identity") for level, _ in plan)


@dataclass(frozen=True)
class MlmcResult:
    estimate: object  # NodalField on the top level (identity mode) or float
    level_stats: tuple
    total_op_work: int
    wall_seconds: float


def mlmc_estimate(
    schedule: SampleSchedule,
    lmin: int,
    functional="identity",
    master_seed: int = 0,
    replicate: int = 0,
    kl_rule: Optional[int] = None,
    drift: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    zero_noise: bool = False,
    workers: int = 1,
) -> MlmcResult:
    """Run the multilevel (or singlelevel) estimator for one replicate.

    Parameters
    ----------
    schedule : per-level sample counts from :func:`build_schedule`; its
        ``top_level`` is the finest mesh level L.
    lmin : base level of the hierarchy (1 by default in the CLI); the term
        below it is zero, so the base level is estimated on its own.
    functional : what to average: ``"identity"`` (the default) yields a nodal
        field on level L, ``"squared-norm"`` the squared L2(0,1) norm, and a
        callable taking a ``NodalField`` and returning a float a custom scalar
        (a value that is not finite is a ``NumericalError`` naming its level).
    master_seed, replicate : stream coordinates, integers. Distinct replicates
        are independent; a fixed pair reproduces the result bitwise.
    kl_rule : fixed KL truncation for every level, or None for J = dofs.
    drift : the drift F, None (the default) for F = 0, or a callable mapping
        nodal values of shape (dofs,) or (dofs, b) to values of that shape
        (another shape is a ``UsageError``). It must be vectorised and globally
        Lipschitz (documented, not checked).
    zero_noise : diagnostic: zero every increment, so each level runs the
        noiseless scheme.
    workers : thread count for chunk simulation. Results do not depend on
        it; chunk boundaries and the reduction order are fixed.

    Fails before any simulation on an unknown functional, a base level that
    ``level_counts`` rejects, a negative ``replicate`` or what
    ``check_capacity`` rejects.
    """
    if not (callable(functional)
            or isinstance(functional, str) and functional in ("identity", "squared-norm")):
        raise UsageError(f"unknown functional {functional!r}: expected 'identity', "
                         "'squared-norm' or a callable")
    top_level = schedule.top_level
    plan = schedule.level_counts(lmin)
    if replicate < 0:
        raise UsageError(f"replicate index must be nonnegative, got {replicate}")
    check_capacity(plan, lmin, master_seed, replicate + 1, kl_rule, workers, zero_noise, drift)
    base = plan[0][0]
    identity = functional == "identity"
    t_total = time.perf_counter()
    stats = []
    estimate = 0.0
    for level, n in plan:
        stats.append(_level_moments(_level_task, workers, level, base, n, replicate,
                                    master_seed, kl_rule, drift, zero_noise, functional))
        mean = stats[-1].mean_contribution
        if identity:
            mean = prolong_to(NodalField(make_level(level), mean), top_level).values
        estimate = estimate + mean

    top = make_level(top_level)
    # Summing the per-level means on the top grid touches dofs(L) entries per level.
    return MlmcResult(
        estimate=NodalField(top, estimate) if identity else float(estimate),
        level_stats=tuple(stats),
        total_op_work=sum(s.op_work for s in stats) + len(plan) * top.dofs,
        wall_seconds=time.perf_counter() - t_total,
    )


@dataclass(frozen=True)
class WorkPrediction:
    """Theoretical work of a schedule plus its asymptotic complexity."""

    per_level: tuple           # N_l * h_l**-(d+2), schedule index order
    summation: float           # h_L**-delta
    total: float
    accuracy_exponent: float   # work ~ accuracy**exponent * |log2 accuracy|**log_factor
    log_factor: Optional[float]  # the power of that log factor, None without one
    error_constant: float      # C1 + sqrt(C3 + C2 * zeta(1 + eps)), unit C's


def predict_work(
    schedule: SampleSchedule,
    d: int = 1,
    kappa: Optional[float] = None,
    delta: float = 0.0,
) -> WorkPrediction:
    """Evaluate the work model for a schedule.

    The per-sample cost at level l is ``h_l**-(d+2)`` (space times time), and
    adding up the level estimators costs ``h_L**-delta``. ``kappa`` defaults
    to (d+2)/(p*gamma) for a named mode of rate power p. Work grows as
    accuracy**``accuracy_exponent`` * |log2 accuracy|**``log_factor``: plain
    Monte Carlo (singlelevel) as -(kappa+2) with no log factor; a multilevel
    schedule as its work bound, -max(2, delta) with none for kappa < 2*eta,
    else -(kappa + 2*(1-eta)) with the power 2+eps (strong: -(d+2)/gamma,
    weak: -((d+2)/(2*gamma)+1)).
    Fails on a negative or non-finite ``d``, ``delta`` or ``kappa``, or a zero ``kappa``.
    """
    if not 0 <= d < math.inf:
        raise UsageError(f"spatial work dimension d must be finite and nonnegative, got {d}")
    if not 0.0 <= delta < math.inf:
        raise UsageError(f"summation exponent delta must be finite and nonnegative, got {delta}")
    first = schedule.top_level + 1 - len(schedule.counts)  # 0, or L for singlelevel
    per_level = tuple(n * (2.0 ** (-l)) ** -(d + 2) for l, n in enumerate(schedule.counts, first))
    summation = (2.0 ** (-schedule.top_level)) ** -delta

    if kappa is None:
        if schedule.mode == "general":
            raise UsageError("general mode needs an explicit kappa")
        kappa = (d + 2) / (RATE_POWERS[schedule.mode] * schedule.gamma)
    if not 0.0 < kappa < math.inf:
        raise UsageError(f"kappa must be finite and positive, got {kappa}")

    if schedule.mode == "singlelevel":
        accuracy_exponent, log_factor = -(kappa + 2.0), None
    elif kappa < 2.0 * schedule.eta:
        accuracy_exponent, log_factor = -max(2.0, delta), None
    else:
        accuracy_exponent = -(kappa + 2.0 * (1.0 - schedule.eta))
        log_factor = 2.0 + schedule.eps

    # zeta(s): the terms k < n = 1000 and the Euler-Maclaurin tail, about 1e-15 relative
    s, n = 1.0 + schedule.eps, 1000.0
    zeta = (float(np.sum(np.arange(1.0, n) ** -s)) + n ** (1.0 - s) / (s - 1.0)
            + n ** -s / 2.0 + s * n ** (-s - 1.0) / 12.0) if s > 1.0 else math.inf
    error_constant = 1.0 + math.sqrt(1.0 + zeta)

    return WorkPrediction(
        per_level=per_level,
        summation=summation,
        total=float(sum(per_level) + summation),
        accuracy_exponent=accuracy_exponent,
        log_factor=log_factor,
        error_constant=error_constant,
    )
