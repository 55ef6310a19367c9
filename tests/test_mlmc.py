import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import zeta

import spde_mlmc
from spde_mlmc import (
    NodalField,
    NumericalError,
    UsageError,
    WorkPrediction,
    build_schedule,
    initial_field,
    kl_modes,
    make_level,
    mlmc_estimate,
    pair_op_work,
    predict_work,
    prolong_to,
    run_deterministic,
    sample_pair,
)
from spde_mlmc import fem
from spde_mlmc.fem import mass_norm_sq
from spde_mlmc.grid import prolong_values
from spde_mlmc.mlmc import _functional_values
from spde_mlmc.metrics import exact_mean, fit_slope
from spde_mlmc.noise import path_stream

from reference import (
    assemble,
    coarsen_block,
    dense,
    euler_step,
    mc_estimate,
    mode_moments,
    noise_load,
    pair_covariances,
    projection_matrix,
    sample_kl_block,
    squared_norm_mean,
)


def assert_same_level_stat(a, b):
    """Two level records agree in every field but the wall time, the mean
    bitwise."""
    assert (a.level, a.samples, a.variance, a.level_variance, a.op_work) == \
        (b.level, b.samples, b.variance, b.level_variance, b.op_work)
    assert np.array_equal(a.mean_contribution, b.mean_contribution)


# ---------------------------------------------------------------- schedules

def test_schedule_strong_example():
    s = build_schedule("strong", 3, gamma=0.5, eps=1.0)
    assert s.counts == (8, 4, 8, 9)


def test_schedule_weak_example():
    s = build_schedule("weak", 3, gamma=0.5, eps=1.0)
    assert s.counts == (64, 32, 64, 72)


def test_schedule_singlelevel_example():
    s = build_schedule("singlelevel", 3, gamma=0.5)
    assert s.counts == (64,)


@pytest.mark.parametrize("top", [1, 2, 3, 4, 5, 6])
def test_schedule_weak_dominates_strong(top):
    strong = build_schedule("strong", top, gamma=0.5, eps=1.0)
    weak = build_schedule("weak", top, gamma=0.5, eps=1.0)
    assert all(w >= s for w, s in zip(weak.counts, strong.counts))
    assert all(c >= 1 for c in weak.counts + strong.counts)


@pytest.mark.parametrize("mode,eta,power", [("strong", 1.0, 1.0), ("weak", 0.5, 2.0)])
def test_general_mode_reproduces_dyadic_modes(mode, eta, power):
    gamma, top = 0.5, 4
    a = [2.0 ** (-power * gamma * l) for l in range(top + 1)]
    general = build_schedule("general", top, gamma=gamma, eps=1.0, a=a, eta=eta)
    assert general.counts == build_schedule(mode, top, gamma=gamma, eps=1.0).counts


def test_schedule_validation():
    with pytest.raises(UsageError):
        build_schedule("strong", 0)
    with pytest.raises(UsageError):
        build_schedule("strong", 3, gamma=1.0)
    with pytest.raises(UsageError):
        build_schedule("strong", 3, eps=-0.1)
    with pytest.raises(UsageError):
        build_schedule("general", 3)
    with pytest.raises(UsageError):
        build_schedule("general", 3, a=[1, 2, 1, 1], eta=0.5)  # not decreasing
    with pytest.raises(UsageError):
        build_schedule("nonsense", 3)
    # non-finite input, and counts that overflow a float, name what is wrong
    for eps in (math.nan, math.inf):
        with pytest.raises(UsageError, match="eps must be finite"):
            build_schedule("weak", 3, eps=eps)
    for eps, level in ((1e308, 2), (1000.0, 3)):
        with pytest.raises(UsageError, match=f"sample count of level {level} is not a finite"):
            build_schedule("weak", 3, eps=eps)
    with pytest.raises(UsageError, match="finite, positive and nonincreasing"):
        build_schedule("general", 2, a=[1.0, math.nan, 0.25], eta=1.0)
    with pytest.raises(UsageError, match="sample count of level 0 is not a finite"):
        build_schedule("general", 2, a=[1.0, 1e-200, 1e-300], eta=1.0)


def _schedules(top):
    a = [2.0 ** -l for l in range(top + 1)]
    return [build_schedule(mode, top, a=a, eta=0.5) for mode in spde_mlmc.mlmc.SCHEDULE_MODES]


@pytest.mark.parametrize("top", [1, 2, 4])
def test_level_counts_is_a_runs_plan(top):
    # the plan of a run: increasing levels from the base up, the top alone for
    # singlelevel; a base above the top raises, and so does one below 1
    for schedule in _schedules(top):
        for lmin in range(1, top + 2):
            if lmin > top:
                with pytest.raises(UsageError, match=f"the base level {lmin} exceeds the "
                                                     f"top level {top}$"):
                    schedule.level_counts(lmin)
                continue
            plan = schedule.level_counts(lmin)
            assert [level for level, _, _ in plan] == (
                [top] if schedule.mode == "singlelevel" else list(range(lmin, top + 1)))
            assert all(schedule.count_for(level, lmin) == n for level, _, n in plan)
        for lmin in (0, -1, -top - 5):
            with pytest.raises(UsageError, match="base level must be at least 1"):
                schedule.level_counts(lmin)


def test_count_for_reads_the_plan():
    weak = build_schedule("weak", 3, gamma=0.5, eps=1.0)
    assert [weak.count_for(l, 1) for l in (1, 2, 3)] == [64, 64, 72]
    assert [weak.count_for(l, 2) for l in (2, 3)] == [64, 72]
    single = build_schedule("singlelevel", 3, gamma=0.5)
    assert single.count_for(3, 1) == 64
    for schedule, level, lmin in ((weak, 0, 1), (weak, 1, 2), (weak, 4, 1), (single, 2, 1)):
        with pytest.raises(UsageError, match=f"level {level} is not in the plan"):
            schedule.count_for(level, lmin)


# ------------------------------------------------------------- mc_estimate

def test_mc_constant_sampler():
    est, var = mc_estimate(lambda i: 3.25, 17)
    assert est == 3.25
    assert var == 0.0


def test_mc_linearity_under_same_stream():
    def sampler(i):
        return float(path_stream(5, 0, 0, i, kind=2).standard_normal())

    est, _ = mc_estimate(sampler, 64)
    est_scaled, _ = mc_estimate(lambda i: 4.0 * sampler(i), 64)
    assert est_scaled == pytest.approx(4.0 * est, rel=1e-12)


def test_mc_requires_samples():
    with pytest.raises(UsageError):
        mc_estimate(lambda i: 0.0, 0)


def test_mc_root_n_rate():
    # RMS error over repetitions of the mean of n standard Gaussians ~ n^-1/2
    reps = 200
    points = []
    for exp in range(4, 11):
        n = 2**exp
        errors = []
        for rep in range(reps):
            stream = path_stream(31, 0, rep, exp, kind=2)
            est, _ = mc_estimate(lambda i, s=stream: float(s.standard_normal()), n)
            errors.append(est * est)
        points.append((exp, 0.5 * math.log2(sum(errors) / reps)))
    slope = fit_slope(points)
    assert -0.6 <= slope <= -0.4


def test_mc_vector_samples():
    est, var = mc_estimate(lambda i: np.array([1.0, 2.0]), 5)
    np.testing.assert_array_equal(est, [1.0, 2.0])
    assert var == 0.0


# -------------------------------------------------------------- functionals

def test_apply_functional_examples():
    level = make_level(1)
    states = np.array([[1.0, 0.0]])
    assert _functional_values("identity", level, states) is states
    norms = _functional_values("squared-norm", level, states)
    assert norms[0] == pytest.approx(1.0 / 3.0)
    assert norms[1] == 0.0


def test_squared_norm_flip_invariant():
    level = make_level(3)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(level.dofs)
    assert mass_norm_sq(level, v) == pytest.approx(mass_norm_sq(level, v[::-1]), rel=1e-12)


def test_custom_functional():
    level = make_level(2)
    values = _functional_values(lambda f: float(f.values.max()), level,
                                np.array([[1.0], [5.0], [2.0]]))
    assert values[0] == 5.0


# -------------------------------------------------------------- sample_pair

def test_sample_pair_deterministic():
    a_fine, a_coarse = sample_pair(4, 1, master_seed=9, sample=3, replicate=2)
    b_fine, b_coarse = sample_pair(4, 1, master_seed=9, sample=3, replicate=2)
    assert np.array_equal(a_fine.values, b_fine.values)
    assert np.array_equal(a_coarse.values, b_coarse.values)


def test_sample_pair_base_level_has_no_coarse():
    fine, coarse = sample_pair(1, 1, master_seed=9, sample=0)
    assert fine.level.level == 1
    assert coarse is None


def test_sample_pair_zero_noise_is_deterministic_solution():
    fine, coarse = sample_pair(3, 1, master_seed=0, sample=0, zero_noise=True)
    np.testing.assert_allclose(fine.values, run_deterministic(make_level(3)).values,
                               atol=1e-13)
    np.testing.assert_allclose(coarse.values, run_deterministic(make_level(2)).values,
                               atol=1e-13)


@pytest.mark.parametrize("level_index", range(2, 9))
def test_zero_noise_chunk_equals_the_deterministic_solution(level_index):
    # both form rho_1**steps as exp(steps log rho_1), from one set of factors
    fine, _ = sample_pair(level_index, level_index, master_seed=0, sample=0, zero_noise=True)
    det = run_deterministic(make_level(level_index)).values
    assert np.max(np.abs(fine.values - det)) <= 1e-14 * np.max(np.abs(det))


@pytest.mark.parametrize("kl_rule", [None, 3, 40])
@pytest.mark.parametrize("coarse", [False, True], ids=["base-is-pair-level", "base-1"])
def test_linear_drift_without_noise_scales_the_first_mode_exactly(coarse, kl_rule):
    # with F(u) = c u every drifted step multiplies the first sine mode by
    # rho_1 (1 + c dt), rho_1 = lm_1/(lm_1 + dt lk_1) from the P1 eigenvalues
    # lm_1 = h (2 + cos(pi h))/3 and lk_1 = 2 (1 - cos(pi h))/h
    c = -3.0
    for pair_level in range(1, 7):
        base = 1 if coarse else pair_level
        paths = sample_pair(pair_level, base, 0, 0, kl_rule=kl_rule,
                            drift=lambda u: c * u, zero_noise=True)
        for path in paths:
            if path is None:
                continue
            level = path.level
            h, dt = level.mesh_width, level.time_step
            lm = h * (2.0 + math.cos(math.pi * h)) / 3.0
            lk = 2.0 * (1.0 - math.cos(math.pi * h)) / h
            factor = (lm / (lm + dt * lk) * (1.0 + c * dt)) ** level.steps
            exact = factor * np.sin(np.pi * level.nodes)
            assert np.max(np.abs(path.values - exact)) <= 1e-11 * np.max(np.abs(exact))
        assert (paths[1] is None) == (base == pair_level)


def test_zero_noise_chunk_stays_exact_at_level_16():
    # 4**16 steps: a rounded rho raised to that power would be off by 7e-12
    level = make_level(16)
    fine, _ = sample_pair(16, 16, master_seed=0, sample=0, zero_noise=True)
    det = run_deterministic(level).values
    assert np.max(np.abs(fine.values - det)) <= 1e-14 * np.max(np.abs(det))
    assert math.sqrt(mass_norm_sq(level, fine.values - exact_mean(1.0, level).values)) <= 1e-12


def test_zero_noise_chunk_builds_no_step_operator(monkeypatch):
    # without noise or a drift a path is rho**steps times the initial data;
    # the chunk forms it from the step factors alone, holding no step tables
    from spde_mlmc import mlmc

    def no_operator(*_args):
        raise AssertionError("a zero-noise chunk built a step operator")

    monkeypatch.setattr(mlmc, "StepOperator", no_operator)
    fine, coarse = sample_pair(8, 1, 0, 0, zero_noise=True)
    for field in (fine, coarse):
        det = run_deterministic(field.level).values
        assert np.max(np.abs(field.values - det)) <= 1e-14 * np.max(np.abs(det))


@pytest.mark.parametrize("sample", [0, 63])
def test_one_zero_noise_path_at_level_19_is_admitted(sample):
    # the budget counts the paths a chunk holds: one path at level 19 holds
    # about 50 MB of states where a 64-path chunk would hold 3.2 GB; a pair
    # is one path at any sample index
    fine, _ = sample_pair(19, 19, 0, sample, zero_noise=True)
    det = run_deterministic(fine.level).values
    assert np.max(np.abs(fine.values - det)) <= 1e-14 * np.max(np.abs(det))


def test_sample_pair_below_base_rejected():
    with pytest.raises(UsageError):
        sample_pair(1, 2, master_seed=0, sample=0)


def _stepwise_path(level, block, drift):
    """Nodal Euler steps driven by the loads of ``block``: the reference engine."""
    proj = projection_matrix(level, block.modes)
    mass, stiffness = assemble(level)
    state = initial_field(level)
    for k in range(level.steps):
        state = euler_step(level, mass, stiffness, state, drift, noise_load(block, k, proj))
    return state.values


def _stepwise_pair(pair_level, master_seed, sample, kl_rule=None, drift=None):
    fine_level, coarse_level = make_level(pair_level), make_level(pair_level - 1)
    block = sample_kl_block(path_stream(master_seed, pair_level, 0, sample), fine_level,
                            kl_modes(fine_level, kl_rule))
    coarse = coarsen_block(block, kl_modes(coarse_level, kl_rule))
    return _stepwise_path(fine_level, block, drift), _stepwise_path(coarse_level, coarse, drift)


def test_sample_pair_matches_stepwise_reconstruction():
    # rebuild both members of a pair from the public block/load/step ops
    fine, coarse = sample_pair(2, 1, master_seed=64, sample=9)
    ref_fine, ref_coarse = _stepwise_pair(2, 64, 9)
    np.testing.assert_allclose(ref_fine, fine.values, atol=1e-13)
    np.testing.assert_allclose(ref_coarse, coarse.values, atol=1e-13)


@pytest.mark.parametrize("kl_rule", [None, 2 * 7 + 5])
def test_sample_pair_with_drift_matches_stepwise_reconstruction(kl_rule):
    drift = lambda v: -v
    fine, coarse = sample_pair(3, 1, master_seed=65, sample=4, kl_rule=kl_rule, drift=drift)
    ref_fine, ref_coarse = _stepwise_pair(3, 65, 4, kl_rule=kl_rule, drift=drift)
    np.testing.assert_allclose(ref_fine, fine.values, atol=1e-13)
    np.testing.assert_allclose(ref_coarse, coarse.values, atol=1e-13)


@pytest.mark.parametrize("kl_rule", [1, 7, 2 * 7 + 5])  # level 3 has 7 dofs
def test_sample_pair_kl_truncation_matches_stepwise_reconstruction(kl_rule):
    # fewer modes than dofs, as many, and enough to alias onto the sine
    # vectors of both levels with both signs and through vanishing modes
    fine, coarse = sample_pair(3, 1, master_seed=66, sample=2, kl_rule=kl_rule)
    ref_fine, ref_coarse = _stepwise_pair(3, 66, 2, kl_rule=kl_rule)
    np.testing.assert_allclose(ref_fine, fine.values, atol=1e-13)
    np.testing.assert_allclose(ref_coarse, coarse.values, atol=1e-13)


@pytest.mark.parametrize("level,kl_rule", [(5, None), (3, 2 * 7 + 5)])
def test_drift_blocks_match_one_block_bitwise(monkeypatch, level, kl_rule):
    # with a drift a chunk's block is min(steps, SLAB_STEPS // CHUNK_SIZE), 16
    # steps here, and its group the whole chunk; with CHUNK_SIZE 1 the block is
    # min(steps, SLAB_STEPS), one block per path here
    from spde_mlmc import mlmc

    drift = lambda v: -v + np.sin(v)
    blocked = sample_pair(level, 1, master_seed=67, sample=1, kl_rule=kl_rule, drift=drift)
    monkeypatch.setattr(mlmc, "CHUNK_SIZE", 1)
    whole = sample_pair(level, 1, master_seed=67, sample=1, kl_rule=kl_rule, drift=drift)
    for a, b in zip(blocked, whole):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("kl_rule", [None, 3, 19])  # 19 KL modes alias below level 5
@pytest.mark.parametrize("level,drift", [
    pytest.param(level, drift, id=f"L{level}-{name}")
    for level in range(1, 6)
    for name, drift in (("drift0", None), ("drift1", lambda v: -v + np.sin(v)))
    if level < 5 or drift is None])  # a level-5 drift chunk takes seconds
def test_chunk_width_never_changes_a_path(level, drift, kl_rule):
    # a chunk steps groups of a slab's worth of paths: 64 at levels 1-2, 16 at
    # level 3, 4 at level 4 and 1 at level 5 without a drift, the whole chunk
    # with one; 17 and 49 paths leave a narrower last group (1 after 16 at
    # level 3, 1 after 12 x 4 at level 4). Either way column b of the chunk is
    # the path that sample b gives alone, with and without noise
    from spde_mlmc import mlmc

    for zero_noise in (False, True):
        pairs = [sample_pair(level, 1, 68, b, kl_rule=kl_rule, drift=drift,
                             zero_noise=zero_noise) for b in range(mlmc.CHUNK_SIZE)]
        for width in (17, 49, mlmc.CHUNK_SIZE):
            xf, xc = mlmc._simulate_chunk(level, 1, 0, width, 0, 68, kl_rule, drift, zero_noise)
            for b, (fine, coarse) in enumerate(pairs[:width]):
                assert np.array_equal(xf[:, b], fine.values), (zero_noise, width, b)
                assert (xc is None) == (coarse is None)
                assert xc is None or np.array_equal(xc[:, b], coarse.values), (zero_noise,
                                                                              width, b)


@pytest.mark.parametrize("drift", [None, lambda v: -v], ids=["drift0", "drift1"])
def test_step_calls_per_group(monkeypatch, drift):
    # without a drift a group holds a slab's worth of paths, so a 64-path
    # chunk steps each operator once per group: 1 call at levels 1-2, 4 at
    # level 3, 16 at level 4 and 64 at level 5; with a drift the group is the
    # whole chunk, stepped once per block of 16 steps
    from spde_mlmc import mlmc

    calls = []
    step = fem.StepOperator.step

    def counted(self, *args, **kwargs):
        calls.append(self.level.level)
        return step(self, *args, **kwargs)

    monkeypatch.setattr(fem.StepOperator, "step", counted)
    expected = ({1: 1, 2: 1, 3: 4, 4: 16, 5: 64} if drift is None
                else {level: 4**level // 16 for level in (2, 3, 4)})
    for level, per_operator in expected.items():
        calls.clear()
        mlmc._simulate_chunk(level, 1, 0, mlmc.CHUNK_SIZE, 0, 69, None, drift, False)
        operators = [level] + ([level - 1] if level > 1 else [])
        assert sorted(calls) == sorted(operators * per_operator), level


@pytest.mark.parametrize("kl_rule", [None, 1, 3, 19])
@pytest.mark.parametrize("drift", [None, lambda v: -v], ids=["drift0", "drift1"])
def test_chunk_memory_peak_within_budget(drift, kl_rule):
    # one 64-pair chunk at levels 1..4 and 6 against what chunk_bytes budgets:
    # two slabs of its plan's group x block rows, STATE_DOUBLES doubles per dof
    # and path for the states and their terminal transforms, the tables of the
    # step operators its plan builds and the fixed CHUNK_OVERHEAD_BYTES; with
    # few KL modes the states outweigh the slabs, and below level 5 the
    # overhead and a drift chunk's slab of 16 steps of every path do
    _assert_chunk_peaks_within_budget(kl_rule, drift, False)


@pytest.mark.parametrize("kl_rule", [None, 1, 3, 19, 10**6])
def test_zero_noise_chunk_memory_peak_within_budget(kl_rule):
    # without a drift a zero-noise chunk neither draws nor steps and is
    # budgeted no slab and no step table, whatever its KL modes; one path of
    # it runs at levels where 64 would not fit the cap
    _assert_chunk_peaks_within_budget(kl_rule, None, True)
    _assert_chunk_peaks_within_budget(kl_rule, None, True, levels=(12, 16, 19), widths=(1,))


def test_chunk_budget_counts_what_the_plan_builds():
    # a chunk at its base level is budgeted no coarse step tables, and a drift
    # chunk of one path the slab of its one 16-step block, not 1024 rows
    from spde_mlmc import mlmc

    coarse_tables = 8 * 2 * fem.BLOCK * 3  # level 2 has 3 KL modes
    assert mlmc.chunk_bytes(3, 3, None) == mlmc.chunk_bytes(3, 1, None) - coarse_tables
    assert mlmc.chunk_bytes(3, 3, None, drift=lambda v: -v) == 8 * (
        mlmc.STATE_DOUBLES * 7 * 64 + 2 * 64 * 16 * 7 + 2 * fem.BLOCK * 7) + mlmc.CHUNK_OVERHEAD_BYTES
    one_path = 8 * (mlmc.STATE_DOUBLES * 15 + 2 * 16 * 15 + 2 * fem.BLOCK * (15 + 7))
    assert mlmc.chunk_bytes(4, 1, None, drift=lambda v: -v, paths=1) == (
        one_path + mlmc.CHUNK_OVERHEAD_BYTES)
    # without a drift a one-path chunk at level 4 is one block of 256 steps
    assert mlmc.chunk_bytes(4, 1, None, paths=1) == mlmc.chunk_bytes(
        4, 1, None, drift=lambda v: -v, paths=1) + 8 * 2 * (256 - 16) * 15


def _assert_chunk_peaks_within_budget(kl_rule, drift, zero_noise, levels=(1, 2, 3, 4, 6),
                                      widths=(1, 17, 64)):
    # a chunk of one path is budgeted one path's states and slab rows, 16
    # steps of them with a drift; one of 17 has a narrower last group at
    # levels 3 and 4; a chunk at its base level builds no coarse operator and
    # is budgeted no table for one
    from spde_mlmc import mlmc

    fem.sine_transform(np.ones(3))  # numpy imports numpy.fft on first use, not per chunk
    for l in levels:
        for paths in widths:
            for lmin in sorted({1, l}):
                tracemalloc.start()
                try:
                    mlmc._simulate_chunk(l, lmin, 0, paths, 0, 3, kl_rule, drift, zero_noise)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                budget = mlmc.chunk_bytes(l, lmin, kl_rule, zero_noise=zero_noise, drift=drift,
                                          paths=paths)
                assert peak <= budget, f"level {l} from base level {lmin}, {paths} path(s)"


def test_chunks_leave_nothing_behind():
    # each chunk builds its step operators and drops them when it returns:
    # 200 chunks with 200 different KL truncations hold nothing afterwards
    from spde_mlmc import mlmc

    mlmc._simulate_chunk(3, 1, 0, 1, 0, 0, None, None, False)  # first-use imports
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for kl_rule in range(1, 201):
            mlmc._simulate_chunk(3, 1, 0, 1, 0, 0, kl_rule, None, False)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - before <= 2**20


def test_non_finite_state_names_its_stream_coordinates():
    # only the states at T = 1 are checked; a drift steps the whole chunk as
    # one group, so a blow-up names all its samples
    from spde_mlmc import mlmc

    blowup = lambda v: np.full_like(v, np.inf)
    with np.errstate(all="ignore"), \
            pytest.raises(NumericalError, match=r"level 2, replicate 3, samples 5\.\.5"):
        sample_pair(2, 1, master_seed=1, sample=5, replicate=3, drift=blowup)
    with np.errstate(all="ignore"), \
            pytest.raises(NumericalError, match=r"level 2, replicate 3, samples 0\.\.63$"):
        mlmc._simulate_chunk(2, 1, 0, 64, 3, 1, None, blowup, False)


# ------------------------------------------------------------ mlmc_estimate

@pytest.mark.parametrize("top", [1, 2, 3, 4])
def test_zero_noise_telescopes_to_deterministic(top):
    schedule = build_schedule("strong", top, gamma=0.5, eps=1.0)
    result = mlmc_estimate(schedule, 1, master_seed=1, zero_noise=True)
    np.testing.assert_allclose(result.estimate.values,
                               run_deterministic(make_level(top)).values, atol=1e-10)


def test_estimate_is_sum_of_prolonged_contributions():
    schedule = build_schedule("weak", 3, gamma=0.5, eps=1.0)
    result = mlmc_estimate(schedule, 1, master_seed=4)
    total = np.zeros(make_level(3).dofs)
    for stat in result.level_stats:
        field = NodalField(make_level(stat.level), stat.mean_contribution)
        total += prolong_to(field, 3).values
    np.testing.assert_allclose(result.estimate.values, total, atol=1e-14)


def test_all_counts_one_is_valid():
    schedule = build_schedule("strong", 2, gamma=0.5, eps=1.0)
    ones = schedule.__class__(2, (1, 1, 1), "strong", 0.5, 1.0, 1.0)
    result = mlmc_estimate(ones, 1, master_seed=3)
    assert all(s.variance == 0.0 for s in result.level_stats)
    assert all(s.samples == 1 for s in result.level_stats)


def test_reproducible_bitwise():
    schedule = build_schedule("weak", 2, gamma=0.5, eps=1.0)
    a = mlmc_estimate(schedule, 1, master_seed=12, replicate=1)
    b = mlmc_estimate(schedule, 1, master_seed=12, replicate=1)
    assert np.array_equal(a.estimate.values, b.estimate.values)
    assert a.total_op_work == b.total_op_work
    c = mlmc_estimate(schedule, 1, master_seed=12, replicate=2)
    assert not np.array_equal(a.estimate.values, c.estimate.values)


def test_workers_do_not_change_results():
    schedule = build_schedule("weak", 3, gamma=0.5, eps=1.0)
    serial = mlmc_estimate(schedule, 1, master_seed=6)
    parallel = mlmc_estimate(schedule, 1, master_seed=6, workers=2)
    assert np.array_equal(serial.estimate.values, parallel.estimate.values)
    for a, b in zip(serial.level_stats, parallel.level_stats):
        assert a.variance == b.variance


def test_callables_with_workers_match_inline():
    # worker threads call Python callables in place; nothing is pickled
    schedule = build_schedule("weak", 3, gamma=0.5, eps=1.0)
    custom = lambda f: float(f.values[0])
    drift = lambda v: -v
    for kwargs in ({"functional": custom}, {"drift": drift}):
        serial = mlmc_estimate(schedule, 1, master_seed=1, **kwargs)
        threaded = mlmc_estimate(schedule, 1, master_seed=1, workers=2, **kwargs)
        assert np.array_equal(getattr(serial.estimate, "values", serial.estimate),
                              getattr(threaded.estimate, "values", threaded.estimate))
        for a, b in zip(serial.level_stats, threaded.level_stats):
            assert a.variance == b.variance


def test_thread_workers_on_cold_caches_match_inline():
    # more threads than cores build and step their own operators side by
    # side, interleaved finely by a short switch interval
    from spde_mlmc.mlmc import pair_variances

    (serial,) = pair_variances([4], 1, 300, 5)
    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: out.append(pair_variances([4], 1, 300, 5, workers=4)), daemon=True)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert len(out) == 1
    (threaded,) = out[0]
    assert_same_level_stat(threaded, serial)


def test_stream_capacity_checked_before_simulation(monkeypatch):
    from spde_mlmc import mlmc

    def no_simulation(*_args):
        raise AssertionError("a chunk ran before the capacity check")

    monkeypatch.setattr(mlmc, "_simulate_chunk", no_simulation)
    schedule = build_schedule("strong", 2, gamma=0.5, eps=1.0)
    with pytest.raises(UsageError, match="16 bits"):
        mlmc_estimate(schedule, 1, master_seed=0, replicate=2**16)
    too_many = dataclasses.replace(schedule, counts=(4, 4, 2**32 + 1))
    with pytest.raises(UsageError, match="32 bits"):
        mlmc_estimate(too_many, 1, master_seed=0)
    with pytest.raises(UsageError, match="32 bits"):
        mlmc.pair_variances([3], 1, 2**32 + 1, 0)


@pytest.mark.parametrize("call,named", [
    (lambda: mlmc_estimate(build_schedule("weak", 2), 1, master_seed=1.5),
     "a stream coordinate must be an integer, got 1.5"),
    (lambda: mlmc_estimate(build_schedule("weak", 2), 1, replicate=1.0),
     "a stream coordinate must be an integer, got 1.0"),
    (lambda: sample_pair(2, 1, 0, 0, replicate=1.0),
     "a stream coordinate must be an integer, got 1.0"),
    (lambda: sample_pair(2, 1, 0, 1.5), "a stream coordinate must be an integer, got 1.5"),
    (lambda: spde_mlmc.mlmc.pair_variances([3], 1, 64.0, 7),
     "the pair count must be an integer, got 64.0"),
    (lambda: spde_mlmc.mlmc.pair_variances([2], 1, 2.5, 7),
     "the pair count must be an integer, got 2.5"),
    (lambda: spde_mlmc.mlmc.pair_variances([2], 1, "8", 0),
     "the pair count must be an integer, got '8'"),
    (lambda: mlmc_estimate(build_schedule("weak", 2), 1, kl_rule=3.0),
     "mode truncation must be an integer, got 3.0"),
    (lambda: spde_mlmc.mlmc.pair_variances([3], 1, 8, 7, kl_rule=3.0),
     "mode truncation must be an integer, got 3.0"),
    (lambda: mlmc_estimate(build_schedule("weak", 2), 1, workers=2.0),
     "workers must be an integer, got 2.0"),
    (lambda: spde_mlmc.mlmc.pair_variances([3], 1, 8, 7, workers=2.0),
     "workers must be an integer, got 2.0"),
    (lambda: mlmc_estimate(build_schedule("weak", 2), 1.0),
     "the base level must be an integer, got 1.0"),
    (lambda: spde_mlmc.mlmc.pair_variances([3], 1.0, 8, 7),
     "the base level must be an integer, got 1.0"),
    (lambda: spde_mlmc.mlmc.pair_variances([3.0], 1, 8, 7),
     "a level must be an integer, got 3.0"),
    (lambda: spde_mlmc.mlmc.pair_variances([2, "3"], 1, 8, 7),
     "a level must be an integer, got '3'"),
    (lambda: sample_pair("3", 1, 0, 0), "a level must be an integer, got '3'"),
], ids=["seed", "estimate-replicate", "pair-replicate", "pair-sample", "pairs",
        "pairs-fraction", "pairs-text", "kl-rule",
        "pairs-kl-rule", "workers", "pairs-workers", "base-level", "pairs-base-level",
        "pair-level", "pair-level-text", "sample-pair-level-text"])
def test_non_integer_coordinates_rejected_before_the_first_chunk(monkeypatch, call, named):
    # a float seed ran bitwise as its floor; others ended in a TypeError of
    # the key's shifts, a slice, a range or a thread pool, or ran
    from spde_mlmc import mlmc

    def no_simulation(*_args):
        raise AssertionError("a chunk ran before the coordinates were checked")

    monkeypatch.setattr(mlmc, "_simulate_chunk", no_simulation)
    with pytest.raises(UsageError, match=re.escape(named)):
        call()


def test_numpy_integer_coordinates_are_accepted():
    # the integer check takes every integer type; the result is the int's
    schedule = build_schedule("weak", 2)
    plain = mlmc_estimate(schedule, 1, master_seed=3, kl_rule=3)
    numpy = mlmc_estimate(schedule, 1, master_seed=np.uint64(3), kl_rule=np.int32(3),
                          workers=np.int64(2), replicate=np.int16(0))
    assert np.array_equal(plain.estimate.values, numpy.estimate.values)
    assert kl_modes(make_level(3), np.int8(5)) == 5


@pytest.mark.parametrize("workers", [1, 2])
def test_drift_that_changes_the_shape_is_a_usage_error(workers):
    # a drift of shape (1, b) used to broadcast over every mode silently
    shrink = lambda v: -v[:1]
    with pytest.raises(UsageError, match=re.escape(
            "the drift maps nodal values of shape (7, 1) to shape (1, 1)")):
        sample_pair(3, 1, 0, 0, drift=shrink)
    with pytest.raises(UsageError, match=re.escape("(3, 64) to shape (1, 64)")):
        mlmc_estimate(build_schedule("weak", 3), 1, drift=shrink, workers=workers)
    with pytest.raises(UsageError, match=re.escape("(7,) to shape ()")):
        fem.StepOperator(make_level(3)).step(np.zeros((1, 7)), np.zeros(7), lambda v: 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("workers", [1, 2])
def test_non_finite_custom_functional_is_a_numerical_error(value, workers):
    # NaN gave a NaN estimate and NaN variances, inf a NaN estimate and a
    # RuntimeWarning; the level is named
    import warnings

    schedule = build_schedule("weak", 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="functional is not finite .* level 1$"):
            mlmc_estimate(schedule, 1, functional=lambda u: value, workers=workers)
        at_level_3 = lambda u: value if u.level.level == 3 else 0.0
        with pytest.raises(NumericalError, match="at level 3$"):
            mlmc_estimate(schedule, 1, functional=at_level_3, workers=workers)


@pytest.mark.parametrize("functional", ["squared_norm", "custom", None,
                                        pytest.param(np.array([1.0, 2.0]), id="array")])
def test_unknown_functional_rejected_before_the_first_chunk(monkeypatch, functional):
    from spde_mlmc import mlmc

    def no_simulation(*_args):
        raise AssertionError("a chunk ran before the functional was checked")

    monkeypatch.setattr(mlmc, "_simulate_chunk", no_simulation)
    schedule = build_schedule("weak", 2, gamma=0.5, eps=1.0)
    with pytest.raises(UsageError, match=re.escape(
            f"unknown functional {functional!r}: expected 'identity', 'squared-norm' "
            "or a callable")):
        mlmc_estimate(schedule, 1, functional=functional, master_seed=0)


def test_singlelevel_estimate():
    schedule = build_schedule("singlelevel", 2, gamma=0.5)
    result = mlmc_estimate(schedule, 1, master_seed=5)
    assert len(result.level_stats) == 1
    assert result.level_stats[0].level == 2
    assert result.level_stats[0].samples == schedule.counts[0]
    # the top level is its own base, whatever the run's base level
    schedule = build_schedule("singlelevel", 3, gamma=0.5)
    results = [mlmc_estimate(schedule, lmin, master_seed=5) for lmin in (1, 2, 3)]
    assert {(level, base) for lmin in (1, 2, 3)
            for level, base, _ in schedule.level_counts(lmin)} == {(3, 3)}
    for result in results[1:]:
        assert np.array_equal(result.estimate.values, results[0].estimate.values)
        assert result.total_op_work == results[0].total_op_work
        assert_same_level_stat(result.level_stats[0], results[0].level_stats[0])


def test_scalar_functional_estimate():
    schedule = build_schedule("strong", 2, gamma=0.5, eps=1.0)
    result = mlmc_estimate(schedule, 1, functional="squared-norm", master_seed=7)
    assert isinstance(result.estimate, float)
    zero_noise = mlmc_estimate(schedule, 1, functional="squared-norm",
                               master_seed=7, zero_noise=True)
    det = run_deterministic(make_level(2))
    assert zero_noise.estimate == pytest.approx(mass_norm_sq(det.level, det.values),
                                                abs=1e-12)


def test_schedule_level_mismatch_rejected():
    schedule = build_schedule("weak", 3, gamma=0.5, eps=1.0)
    with pytest.raises(UsageError):
        mlmc_estimate(schedule, 0, master_seed=0)
    # a base far below level 0 is rejected as such, not by indexing the counts
    for mode in ("weak", "singlelevel"):
        with pytest.raises(UsageError, match="base level must be at least 1"):
            mlmc_estimate(build_schedule(mode, 1), -5, master_seed=0)
    with pytest.raises(UsageError, match="the base level 4 exceeds the top level 3$"):
        mlmc_estimate(schedule, 4, master_seed=0)


def test_level_difference_variance_decays():
    # coupled-pair variance ~ h_l: fitted slope near -1 over a short ladder
    from spde_mlmc.mlmc import pair_variances

    points = []
    for stat in pair_variances(range(2, 6), 1, 400, 2024):
        assert 0.0 < stat.variance < stat.level_variance
        points.append((stat.level, math.log2(stat.variance)))
    assert -1.8 <= fit_slope(points) <= -0.5


#: The exact var_difference of the identity functional for F = 0 and J = dofs,
#: to 5 significant digits, levels 2..8: it halves per level from level 5.
EXACT_VAR_DIFFERENCE = {2: 1.5086e-2, 3: 7.7353e-3, 4: 3.8348e-3, 5: 1.9107e-3,
                        6: 9.5385e-4, 7: 4.7658e-4, 8: 2.3821e-4}


def test_closed_form_pair_law_gives_the_exact_variance_table():
    for level, expected in EXACT_VAR_DIFFERENCE.items():
        mass, difference, fine = pair_covariances(level)
        assert f"{np.trace(mass @ difference):.4e}" == f"{expected:.4e}", level
        assert 0.0 < np.trace(mass @ difference) < np.trace(mass @ fine)
        # var_level in O(dofs): the mass weights diagonalise tr(M cov_fine)
        law = mode_moments(level)[0]
        assert math.isclose(np.sum(law.weight * law.variance), np.trace(mass @ fine),
                            rel_tol=1e-12), level


def test_squared_norm_mean_agrees_with_the_exact_law():
    # E||u_L||^2 = sum_j w_j (Var c_j + mean_j^2); 2000 paths per level from
    # base = level, z from the sample variance. At seeds 1..20 the 40 z-scores
    # at levels 3 and 4 had mean 0.02, sd 1.11 and |z| <= 2.46 (seed 8); seed 1
    # gives +0.98 and +0.19
    from spde_mlmc import mlmc

    assert f"{squared_norm_mean(4):.6g}" == "0.0710928"
    n = 2000
    for level in (3, 4):
        (stat,) = mlmc._run_plan([(level, level, n)], 0, 1, None, None, False,
                                 "squared-norm", 1)
        z = (stat.mean_contribution - squared_norm_mean(level)) / math.sqrt(stat.variance / n)
        assert abs(z) <= 4.0, (level, z)


def test_pair_variances_agree_with_the_exact_law():
    # the sample variance of n Gaussian pairs has sd sqrt(2 tr((M S)^2) / (n - 1))
    # for covariance S; at seeds 1..20 the 160 z-scores of both variances at
    # levels 2..5 had mean 0.03, sd 1.00 and |z| <= 2.64 (1.71 at seed 1)
    from spde_mlmc.mlmc import pair_variances

    n = 1000
    for stat in pair_variances(range(2, 6), 1, n, 1):
        mass, difference, fine = pair_covariances(stat.level)
        for measured, covariance in ((stat.variance, difference), (stat.level_variance, fine)):
            product = mass @ covariance
            sd = math.sqrt(2.0 * np.trace(product @ product) / (n - 1))
            assert abs(measured - np.trace(product)) <= 4.0 * sd, (stat.level, measured)


@pytest.mark.parametrize("c", [-1.0, 1.0, 9.0])
def test_pair_variances_with_a_linear_drift_agree_with_the_exact_law(c):
    # F(u) = c u steps mode j with rho_j (1 + c dt), so the exact law is that of
    # F = 0 with that factor; z as in the F = 0 test. At seeds 1..20 the 120
    # z-scores of each c had sd 1.01 (c = -1), 1.01 (c = +1) and 1.19 (c = +9,
    # mean 0.19) and |z| <= 2.68 (seed 8, c = -1) and 3.12 (seed 18, c = +9);
    # seed 1 gives |z| <= 1.62, 1.80 and 2.30.
    # The level mean is (rho_1 (1 + c dt))^N sin(pi x) on the fine level less
    # the coarse mean prolonged; z per node, sd from diag(cov_difference) / n.
    # At seeds 1..20 the 500 such z of each c had sd 1.04 and |z| <= 3.02
    # (c = -1) and 3.07 (c = +1, both seed 10), and sd 0.99 and |z| <= 2.96
    # (c = +9, seed 19); seed 1 gives |z| <= 2.00, 1.97 and 1.51. At c = +-1
    # that mean is near 1e-4, so the band checks that the noise adds no bias,
    # not the drift's size, which the noise-free drift test checks. At c = +9
    # the bands see the drift's size: a drift scale of 2 dt / (dofs + 2) for
    # 2 dt / (dofs + 1) leaves c = +-1 inside both bands at seeds 1..3 but
    # reaches variance |z| 43-44 and mean |z| 23-25 at c = +9
    from spde_mlmc import mlmc

    n = 1000
    stats = mlmc._run_plan([(l, 1, n) for l in (2, 3, 4)], 0, 1, None, lambda v: c * v,
                           False, "identity", 1)
    assert [stat.level for stat in stats] == [2, 3, 4]
    for stat in stats:
        mass, difference, fine = pair_covariances(stat.level, c)
        for measured, covariance in ((stat.variance, difference), (stat.level_variance, fine)):
            product = mass @ covariance
            sd = math.sqrt(2.0 * np.trace(product @ product) / (n - 1))
            assert abs(measured - np.trace(product)) <= 4.0 * sd, (stat.level, measured)
        fine_law, coarse_law, _ = mode_moments(stat.level, c)
        fine_level, coarse_level = make_level(stat.level), make_level(stat.level - 1)
        exact = (fine_law.mean[0] * np.sin(np.pi * fine_level.nodes)
                 - prolong_values(coarse_law.mean[0] * np.sin(np.pi * coarse_level.nodes)))
        z = (stat.mean_contribution - exact) / np.sqrt(np.diag(difference) / n)
        assert np.max(np.abs(z)) <= 4.5, (stat.level, z)


def test_pair_variances_validation(monkeypatch):
    # a variance study is admitted once, before its first chunk: the two-pair
    # rule first, then one check_capacity call on every (level, lmin, n), so a
    # level that the cap rejects fails before the levels below it run
    from spde_mlmc import mlmc
    from spde_mlmc.errors import CapacityError

    admitted = []
    check = mlmc.check_capacity

    def recording_check(plan, *args, **kwargs):
        admitted.append(list(plan))
        return check(plan, *args, **kwargs)

    def no_simulation(*_args):
        raise AssertionError("a chunk ran before the study was admitted")

    monkeypatch.setattr(mlmc, "check_capacity", recording_check)
    monkeypatch.setattr(mlmc, "_simulate_chunk", no_simulation)
    for n in (0, -3, 1):
        with pytest.raises(UsageError, match="^variance estimation needs at least two pairs$"):
            mlmc.pair_variances([2, 20], 0, n, 0)
    assert admitted == []
    with pytest.raises(CapacityError, match="level 17 chunks"):
        mlmc.pair_variances(range(2, 18), 1, 8, 0)
    assert admitted == [[(l, 1, 8) for l in range(2, 18)]]


def test_pair_variances_returns_one_record_per_level_in_order():
    # a study's records are those of its levels run one by one
    from spde_mlmc import mlmc

    study = mlmc.pair_variances((4, 2, 3), 1, 70, 11, kl_rule=3)
    assert isinstance(study, tuple)
    assert [stat.level for stat in study] == [4, 2, 3]
    for stat in study:
        (alone,) = mlmc.pair_variances([stat.level], 1, 70, 11, kl_rule=3)
        assert_same_level_stat(stat, alone)


def test_library_admission_rejects_bad_base_level_workers_and_replicates(monkeypatch):
    # below the base level a pair is never coupled, so its "difference"
    # would silently be the fine path; no worker and no replicate run nothing
    from spde_mlmc import mlmc

    def no_simulation(*_args):
        raise AssertionError("a chunk ran before the admission check")

    monkeypatch.setattr(mlmc, "_simulate_chunk", no_simulation)
    with pytest.raises(UsageError, match="pair level 2 below the base level 3"):
        mlmc.pair_variances([2], 3, 4, 0)
    with pytest.raises(UsageError, match="base level must be at least 1"):
        mlmc.pair_variances([2], 0, 4, 0)
    for workers in (0, -3):
        with pytest.raises(UsageError, match="workers must be at least 1"):
            mlmc.check_capacity([(20, 1, 1)], 0, 1, None, workers=workers)
        with pytest.raises(UsageError, match="workers must be at least 1"):
            mlmc.pair_variances([2], 1, 4, 0, workers=workers)
        with pytest.raises(UsageError, match="workers must be at least 1"):
            mlmc_estimate(build_schedule("weak", 2), 1, workers=workers)
    # more workers than the bound are rejected before a pool asks for threads
    too_many = f"workers must be at most {mlmc.MAX_WORKERS}, got 5000"
    with pytest.raises(UsageError, match=too_many):
        mlmc.pair_variances([2], 1, 320000, 0, workers=5000)
    with pytest.raises(UsageError, match=too_many):
        mlmc_estimate(build_schedule("weak", 2), 1, workers=5000)
    with pytest.raises(UsageError, match="at least one replicate, got 0"):
        mlmc.check_capacity(build_schedule("weak", 2).level_counts(1), 0, 0, None)
    # the estimator and sample_pair admit replicates 0..replicate, so a
    # negative index fails as itself, not as a study of no replicates
    for replicate in (-1, -7):
        message = f"replicate index must be nonnegative, got {replicate}$"
        with pytest.raises(UsageError, match=message):
            mlmc_estimate(build_schedule("weak", 2), 1, replicate=replicate)
        with pytest.raises(UsageError, match=message):
            mlmc.sample_pair(2, 1, 0, 0, replicate=replicate)


def test_chunk_memory_checked_before_simulation(monkeypatch):
    from spde_mlmc import mlmc
    from spde_mlmc.errors import CapacityError

    def no_simulation(*_args):
        raise AssertionError("a chunk ran before the memory check")

    monkeypatch.setattr(mlmc, "_simulate_chunk", no_simulation)
    with pytest.raises(CapacityError, match="level 2 chunks"):
        mlmc.pair_variances([2], 1, 2, 0, kl_rule=10**8)
    with pytest.raises(CapacityError, match="level 1 chunks"):
        mlmc_estimate(build_schedule("weak", 2), 1, kl_rule=10**8)
    # a drift holds one slab of increments, as a run without one does: both
    # pass the check at level 16 on one worker and fail it at 17
    drift = lambda v: -v
    mlmc.check_capacity([(l, 1, 1) for l in range(1, 17)], 0, 1, None)
    with pytest.raises(AssertionError, match="a chunk ran"):
        mlmc_estimate(build_schedule("strong", 16), 1, drift=drift)
    for kwargs in ({}, {"drift": drift}):
        with pytest.raises(CapacityError, match="level 17 chunks"):
            mlmc_estimate(build_schedule("strong", 17), 1, **kwargs)


def test_admitted_levels_follow_the_chunk_budget():
    # the deepest level admitted on 1..20 workers at J = dofs, with enough
    # samples that every worker runs a chunk: noisy chunks hold two slabs and
    # their operators' tables, zero-noise chunks without a drift neither; a
    # fixed J of 1,000 admits 18 levels on one worker, where the states reach
    # the cap; a level at its own base (singlelevel) lacks only the coarse
    # operator's tables, which tip the cap at 45, 90, 180 and 181 workers alone
    from spde_mlmc import mlmc
    from spde_mlmc.errors import CapacityError

    def deepest(workers, zero_noise, kl_rule=None, own_base=False):
        level = 1
        while True:
            base = level + 1 if own_base else 1
            try:
                mlmc.check_capacity([(level + 1, base, workers * mlmc.CHUNK_SIZE)], 0, 1,
                                    kl_rule, workers, zero_noise=zero_noise)
            except CapacityError:
                return level
            level += 1

    workers = range(1, 21)
    noisy = [16, 15] + [14] * 3 + [13] * 6 + [12] * 9
    zero_noise = [18, 17, 16, 16, 16] + [15] * 5 + [14] * 10
    assert [deepest(w, False) for w in workers] == noisy
    assert [deepest(w, True) for w in workers] == zero_noise
    assert deepest(1, False, 1000) == 18
    deeper = {w: deepest(w, False, own_base=True) - deepest(w, False)
              for w in range(1, mlmc.MAX_WORKERS + 1)}
    assert {w for w, gain in deeper.items() if gain} == {45, 90, 180, 181}
    assert set(deeper.values()) == {0, 1}


@pytest.mark.parametrize("top,workers", [(10, 90), (11, 45)])
def test_singlelevel_top_admitted_at_its_own_base(top, workers):
    # a singlelevel chunk builds no coarse operator, and its admission counts
    # none: these fit the cap, which the same chunks from base level 1 exceed
    # (2,150,737,920 and 2,148,848,640 bytes); the weak top level is coupled
    from spde_mlmc import mlmc
    from spde_mlmc.errors import CapacityError

    single = build_schedule("singlelevel", top).level_counts(1)
    assert [(level, base) for level, base, _ in single] == [(top, top)]
    mlmc.check_capacity(single, 0, 1, None, workers=workers)
    with pytest.raises(CapacityError, match=f"level {top} chunks need about"):
        mlmc.check_capacity(build_schedule("weak", top).level_counts(1), 0, 1, None,
                            workers=workers)


def test_sample_pair_admitted_before_simulation(monkeypatch):
    # one pair at level 17 draws from chunk buffers that the memory cap rejects
    from spde_mlmc import mlmc
    from spde_mlmc.errors import CapacityError

    def no_simulation(*_args):
        raise AssertionError("a chunk ran before the admission check")

    monkeypatch.setattr(mlmc, "_simulate_chunk", no_simulation)
    with pytest.raises(CapacityError, match="level 17 chunks"):
        mlmc.sample_pair(17, 1, 0, 0)
    with pytest.raises(CapacityError, match="level 17 chunks"):
        mlmc.sample_pair(17, 17, 0, 0)
    # without noise or a drift a chunk draws nothing and is budgeted no slab
    with pytest.raises(AssertionError, match="a chunk ran"):
        mlmc.sample_pair(17, 17, 0, 0, zero_noise=True)
    with pytest.raises(UsageError, match="16 bits"):
        mlmc.sample_pair(2, 1, 0, 0, replicate=2**16)
    with pytest.raises(UsageError, match="32 bits"):
        mlmc.sample_pair(2, 1, 0, 2**32)


@pytest.mark.parametrize("workers", [1, 2])
def test_level_runner_bookkeeping_does_not_grow_with_samples(workers, monkeypatch):
    # 2**22 samples are 65,536 chunks: the runner makes their task tuples as
    # it goes and folds each partial sum as it arrives, with at most two
    # chunks per worker in flight; the record shows that each chunk ran once:
    # its mean averages the chunk starts, and its level variance, with zero
    # sums and the chunk sizes as sums of squares, is the samples run over
    # n - 1 (the starts alone miss a repeated chunk 0)
    from spde_mlmc import mlmc

    def stub(args):
        return np.full(3, float(args[2])), 1.0, 0.0, float(args[3])

    monkeypatch.setattr(mlmc, "_level_task", stub)
    n = 2**22
    tracemalloc.start()
    try:
        (stat,) = mlmc._run_plan([(2, 1, n)], 0, 1, None, None, False, "identity", workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(stat.mean_contribution, np.full(3, 64.0 * 65535 * 65536 / 2 / n))
    assert stat.level_variance == n / (n - 1)
    assert (stat.level, stat.samples, stat.op_work) == (2, n, n * pair_op_work(2, 1))
    assert peak <= 2**20


@pytest.mark.parametrize("workers", [1, 2])
def test_estimator_and_pair_variances_share_level_moments(workers):
    # mlmc_estimate and pair_variances return the one runner's records, so
    # each level record of an identity run equals pair_variances' record of
    # its level and samples in every field but the wall time, the mean bitwise
    from spde_mlmc import mlmc

    result = mlmc_estimate(build_schedule("weak", 4), 1, master_seed=3, workers=workers)
    assert [stat.level for stat in result.level_stats] == [1, 2, 3, 4]
    for stat in result.level_stats:
        (pair_stat,) = mlmc.pair_variances([stat.level], 1, stat.samples, 3, workers=workers)
        assert_same_level_stat(stat, pair_stat)


def test_level_task_sums_the_fine_values_of_a_scalar_functional():
    # the second pair of the one chunk task is the fine paths' functional:
    # over 130 pairs (three chunks, the last of two) its sums' mean and the
    # record's level variance (ddof=1) match those of the squared norms of
    # sample_pair's fine fields
    from spde_mlmc import mlmc

    n = 130
    norms = np.array([mass_norm_sq(make_level(3), sample_pair(3, 1, 5, s)[0].values)
                      for s in range(n)])
    chunk = (0, 5, None, None, False, "squared-norm")
    runs = [mlmc._run_plan([(3, 1, n)], 0, 5, None, None, False, "squared-norm", workers)[0]
            for workers in (1, 2)]
    assert_same_level_stat(runs[0], runs[1])
    fine_sum = sum(mlmc._level_task((3, 1, start, min(64, n - start), *chunk))[2]
                   for start in range(0, n, 64))
    assert fine_sum / n == pytest.approx(norms.mean(), rel=1e-12)
    assert runs[0].level_variance == pytest.approx(norms.var(ddof=1), rel=1e-12)


@pytest.mark.parametrize("functional", ["identity", "squared-norm"])
def test_level_record_is_a_function_of_the_chunk_ordered_sums(functional):
    # a level's record is _level_stat of its chunks' sums added in chunk order,
    # so sums folded in two passes (chunks 0-1, then chunk 2 continuing the
    # running sums) give the runner's record bitwise: 130 pairs are three
    # chunks, the last of two
    from spde_mlmc import mlmc

    def fold(sums, chunks):
        for chunk in chunks:
            sums = [total + value for total, value in zip(sums, chunk)]
        return sums

    n = 130
    for level in (1, 3):
        (stat,) = mlmc._run_plan([(level, 1, n)], 0, 5, None, None, False, functional, 1)
        chunks = [mlmc._level_task((level, 1, start, min(64, n - start), 0, 5, None, None,
                                    False, functional)) for start in range(0, n, 64)]
        sums = fold(fold([0.0] * 4, chunks[:2]), chunks[2:])
        assert_same_level_stat(mlmc._level_stat(level, 1, n, sums, 0.0), stat)


def test_run_plan_opens_one_pool_per_plan(monkeypatch):
    # two or more workers share one thread pool over the plan's levels; one
    # worker runs the chunks inline and opens none
    from spde_mlmc import mlmc

    opened = []

    class CountingPool(mlmc.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mlmc, "ThreadPoolExecutor", CountingPool)
    pooled = mlmc.pair_variances(range(2, 6), 1, 130, 1, workers=2)
    assert opened == [(2,)]
    inline = mlmc.pair_variances(range(2, 6), 1, 130, 1, workers=1)
    assert opened == [(2,)]
    for a, b in zip(pooled, inline, strict=True):
        assert_same_level_stat(a, b)


def test_level_law_invariant_across_roles():
    # the level-2 path has the same distribution whether sampled directly or
    # as the coarse member of a level-3 pair, because the truncation depends
    # on the level alone; compare first and second moments of the norm
    from spde_mlmc.fem import mass_norm_sq

    n = 600
    direct = np.array([
        mass_norm_sq(make_level(2), sample_pair(2, 2, master_seed=41, sample=s)[0].values)
        for s in range(n)
    ])
    as_coarse = np.array([
        mass_norm_sq(make_level(2), sample_pair(3, 1, master_seed=42, sample=s)[1].values)
        for s in range(n)
    ])
    assert direct.mean() == pytest.approx(as_coarse.mean(), rel=0.2)
    assert direct.var() == pytest.approx(as_coarse.var(), rel=0.5)


def test_unbiased_against_deterministic_mean():
    # with F = 0 the estimator mean is the deterministic solution
    top, reps = 2, 40
    schedule = build_schedule("weak", top, gamma=0.5, eps=1.0)
    estimates = []
    for rep in range(reps):
        result = mlmc_estimate(schedule, 1, master_seed=77, replicate=rep)
        estimates.append(result.estimate.values)
    estimates = np.array(estimates)
    mean = estimates.mean(axis=0)
    std_err = estimates.std(axis=0, ddof=1) / math.sqrt(reps)
    target = run_deterministic(make_level(top)).values
    assert np.all(np.abs(mean - target) <= 3.5 * std_err)


def test_mse_matches_variance_decomposition():
    # across replicates, E ||estimator - mean||^2 equals the sum of the
    # per-level variances divided by the sample counts
    top, reps = 2, 80
    schedule = build_schedule("weak", top, gamma=0.5, eps=1.0)
    results = [mlmc_estimate(schedule, 1, master_seed=31, replicate=r)
               for r in range(reps)]
    fields = np.array([r.estimate.values for r in results])
    mean = fields.mean(axis=0)
    mass, _ = assemble(make_level(top))
    deviations = fields - mean
    mse = float(np.mean(np.einsum("ri,ri->r", deviations,
                                  deviations @ dense(mass).T)))
    predicted = float(np.mean([
        sum(s.variance / s.samples for s in r.level_stats) for r in results
    ]))
    assert mse == pytest.approx(predicted, rel=0.35)


# -------------------------------------------------------------- work model

def test_pair_op_work_counts_both_paths():
    assert pair_op_work(1, 1) == 1 * 4
    assert pair_op_work(3, 1) == 7 * 64 + 3 * 16
    assert pair_op_work(3, 3) == 7 * 64


def test_per_sample_cost_grows_like_two_to_3l():
    points = [(l, math.log2(pair_op_work(l, 1))) for l in range(4, 10)]
    assert fit_slope(points) == pytest.approx(3.0, abs=0.1)


def test_predict_work_table_exponents():
    # complexity table at gamma = 1, d = 1
    sl = predict_work(build_schedule("singlelevel", 3, gamma=0.999999), d=1)
    strong = predict_work(build_schedule("strong", 3, gamma=0.999999, eps=1.0), d=1)
    weak = predict_work(build_schedule("weak", 3, gamma=0.999999, eps=1.0), d=1)
    assert sl.accuracy_exponent == pytest.approx(-3.5, abs=1e-5)
    assert sl.log_factor is None  # plain Monte Carlo: no MLMC bound, no log factor
    assert strong.accuracy_exponent == pytest.approx(-3.0, abs=1e-5)
    assert strong.log_factor == 3.0  # 2 + eps
    assert weak.accuracy_exponent == pytest.approx(-2.5, abs=1e-5)
    assert weak.log_factor == 3.0  # 2 + eps


def test_predict_work_evaluation():
    schedule = build_schedule("strong", 2, gamma=0.5, eps=1.0)
    pred = predict_work(schedule, d=1, delta=0.0)
    # counts (4, 2, 4): work = 4*1 + 2*8 + 4*64 = 276, summation cost 1
    assert pred.per_level == (4.0, 16.0, 256.0)
    assert pred.summation == 1.0
    assert pred.total == pytest.approx(277.0)


def test_predict_work_delta_zero_means_constant_summation():
    s = build_schedule("weak", 4, gamma=0.5, eps=1.0)
    assert predict_work(s, d=1, delta=0.0).summation == 1.0
    assert predict_work(s, d=1, delta=1.0).summation == 2.0**4


def test_predict_work_branches():
    # one statement of the complexity: work ~ accuracy**accuracy_exponent *
    # |log2 accuracy|**log_factor, log_factor None without a log factor
    assert [f.name for f in dataclasses.fields(WorkPrediction)] == [
        "per_level", "summation", "total", "accuracy_exponent", "log_factor",
        "error_constant"]
    low_kappa = build_schedule("general", 3, gamma=0.5, eps=0.5,
                               a=[1.0, 0.5, 0.25, 0.125], eta=1.0)

    def complexity(schedule, **model):
        pred = predict_work(schedule, d=1, **model)
        return pred.accuracy_exponent, pred.log_factor

    # kappa < 2 eta: -max(2, delta), no log factor
    assert complexity(low_kappa, kappa=0.5) == (-2.0, None)
    assert complexity(low_kappa, kappa=0.5, delta=3.0) == (-3.0, None)
    # kappa >= 2 eta: -(kappa + 2(1 - eta)) with the power 2 + eps
    assert complexity(low_kappa, kappa=3.0) == (-3.0, 2.5)
    # so is a named mode's, at its default kappa and at another
    weak = build_schedule("weak", 4, gamma=0.5, eps=0.5)
    assert complexity(weak) == (-4.0, 2.5)
    assert complexity(weak, kappa=0.5) == (-2.0, None)
    assert complexity(build_schedule("strong", 4, gamma=0.5, eps=0.5)) == (-6.0, 2.5)
    # singlelevel: -(kappa + 2) on both sides of 2 eta, never a log factor
    single = build_schedule("singlelevel", 4, gamma=0.5, eps=0.5)
    assert complexity(single) == (-5.0, None)
    assert complexity(single, kappa=0.5) == (-2.5, None)


@pytest.mark.parametrize("name,value", [
    ("d", math.nan), ("d", math.inf), ("d", -1),
    ("kappa", math.nan), ("kappa", math.inf), ("kappa", -math.inf), ("kappa", 0.0),
    ("delta", math.nan), ("delta", math.inf), ("delta", -1.0),
])
def test_predict_work_rejects_non_finite_model_inputs(name, value):
    # a NaN or infinite d, kappa or delta gave a NaN or infinite exponent or
    # total instead of failing
    with pytest.raises(UsageError, match=re.escape(f"{name} must be finite and ") + ".*"
                       + re.escape(f", got {value}") + "$"):
        predict_work(build_schedule("weak", 3, gamma=0.5), **{name: value})


def test_predict_work_zeta_constant():
    s = build_schedule("weak", 3, gamma=0.5, eps=1.0)
    pred = predict_work(s, d=1)
    # 1 + sqrt(1 + zeta(2)) with unit constants
    assert pred.error_constant == pytest.approx(1.0 + math.sqrt(1.0 + math.pi**2 / 6.0),
                                                rel=1e-12)
    border = build_schedule("weak", 3, gamma=0.5, eps=0.0)
    assert math.isinf(predict_work(border, d=1).error_constant)
    for eps in (1e-6, 1e-3, 0.1, 0.5, 3.0, 30.0):
        schedule = build_schedule("weak", 3, gamma=0.5, eps=eps)
        assert predict_work(schedule, d=1).error_constant == pytest.approx(
            1.0 + math.sqrt(1.0 + zeta(1.0 + eps, 1)), rel=1e-12)


def test_package_import_loads_no_scipy():
    # nor the process-pool machinery: workers are threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(spde_mlmc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, spde_mlmc; sys.exit(sorted({'scipy', 'multiprocessing', "
            "'concurrent.futures.process'} & set(sys.modules)) or None)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
