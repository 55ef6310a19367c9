import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import spde_mlmc
from spde_mlmc import (
    IDENTITY,
    SQUARED_NORM,
    FunctionalSpec,
    NodalField,
    NumericalError,
    UsageError,
    ZERO_DRIFT,
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
from spde_mlmc.fem import DriftSpec, mass_norm_sq
from spde_mlmc.mlmc import _functional_values
from spde_mlmc.metrics import fit_slope
from spde_mlmc.noise import path_stream

from reference import (
    assemble,
    coarsen_block,
    dense,
    euler_step,
    mc_estimate,
    noise_load,
    projection_matrix,
    sample_kl_block,
)


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
    assert _functional_values(IDENTITY, level, states) is states
    norms = _functional_values(SQUARED_NORM, level, states)
    assert norms[0] == pytest.approx(1.0 / 3.0)
    assert norms[1] == 0.0


def test_squared_norm_flip_invariant():
    level = make_level(3)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(level.dofs)
    assert mass_norm_sq(level, v) == pytest.approx(mass_norm_sq(level, v[::-1]), rel=1e-12)


def test_custom_functional():
    spec = FunctionalSpec("custom", func=lambda f: float(f.values.max()))
    level = make_level(2)
    assert _functional_values(spec, level, np.array([[1.0], [5.0], [2.0]]))[0] == 5.0


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


def _stepwise_pair(pair_level, master_seed, sample, kl_rule=None, drift=ZERO_DRIFT):
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
    drift = DriftSpec(lambda v: -v, name="linear")
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
    # the drift branch steps blocks of SLAB_STEPS // CHUNK_SIZE = 16 steps;
    # with CHUNK_SIZE 1 the block is a whole slab, one block per path here
    from spde_mlmc import mlmc

    drift = DriftSpec(lambda v: -v + np.sin(v), name="nonlinear")
    blocked = sample_pair(level, 1, master_seed=67, sample=1, kl_rule=kl_rule, drift=drift)
    monkeypatch.setattr(mlmc, "CHUNK_SIZE", 1)
    whole = sample_pair(level, 1, master_seed=67, sample=1, kl_rule=kl_rule, drift=drift)
    for a, b in zip(blocked, whole):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("kl_rule", [None, 1, 3, 19])
@pytest.mark.parametrize("drift", [ZERO_DRIFT, DriftSpec(lambda v: -v, name="linear")])
def test_chunk_memory_peak_within_budget(drift, kl_rule):
    # one cold 64-pair chunk at levels 1..4 and 6 against what
    # check_chunk_memory budgets on one worker: two slabs (one slab is
    # min(SLAB_STEPS, CHUNK_SIZE * steps) * J doubles), STATE_DOUBLES doubles
    # per dof and path for the states and their terminal transforms, the
    # fixed CHUNK_OVERHEAD_BYTES, and the step tables of levels 1..l; with few
    # KL modes the states outweigh the slabs, and below level 5 the overhead
    # and a drift chunk's slab of 16 steps of every path do
    from spde_mlmc import fem, mlmc

    fem.sine_transform(np.ones(3))  # numpy imports numpy.fft on first use, not per chunk
    for l in (1, 2, 3, 4, 6):
        level = make_level(l)
        slab_bytes = (8 * min(fem.SLAB_STEPS, mlmc.CHUNK_SIZE * level.steps)
                      * kl_modes(level, kl_rule))
        state_bytes = 8 * mlmc.STATE_DOUBLES * level.dofs * mlmc.CHUNK_SIZE
        tables_bytes = 8 * 2 * fem.BLOCK * sum(kl_modes(make_level(m), kl_rule)
                                               for m in range(1, l + 1))
        fem._step_operator.cache_clear()
        tracemalloc.start()
        try:
            mlmc._simulate_chunk(l, 1, 0, mlmc.CHUNK_SIZE, 0, 3, kl_rule, drift, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        budget = 2 * slab_bytes + state_bytes + mlmc.CHUNK_OVERHEAD_BYTES + tables_bytes
        assert peak <= budget, f"level {l}"


def test_non_finite_state_names_its_stream_coordinates():
    blowup = DriftSpec(lambda v: np.full_like(v, np.inf), name="inf")
    with np.errstate(all="ignore"), \
            pytest.raises(NumericalError, match=r"level 2, replicate 3, samples 5\.\.5"):
        sample_pair(2, 1, master_seed=1, sample=5, replicate=3, drift=blowup)


# ------------------------------------------------------------ mlmc_estimate

@pytest.mark.parametrize("top", [1, 2, 3, 4])
def test_zero_noise_telescopes_to_deterministic(top):
    schedule = build_schedule("strong", top, gamma=0.5, eps=1.0)
    result = mlmc_estimate(top, 1, schedule, master_seed=1, zero_noise=True)
    np.testing.assert_allclose(result.estimate.values,
                               run_deterministic(make_level(top)).values, atol=1e-10)


def test_estimate_is_sum_of_prolonged_contributions():
    schedule = build_schedule("weak", 3, gamma=0.5, eps=1.0)
    result = mlmc_estimate(3, 1, schedule, master_seed=4)
    total = np.zeros(make_level(3).dofs)
    for stat in result.level_stats:
        field = NodalField(make_level(stat.level), stat.mean_contribution)
        total += prolong_to(field, 3).values
    np.testing.assert_allclose(result.estimate.values, total, atol=1e-14)


def test_all_counts_one_is_valid():
    schedule = build_schedule("strong", 2, gamma=0.5, eps=1.0)
    ones = schedule.__class__(2, (1, 1, 1), "strong", 0.5, 1.0, 1.0, schedule.a)
    result = mlmc_estimate(2, 1, ones, master_seed=3)
    assert all(s.variance == 0.0 for s in result.level_stats)
    assert all(s.samples == 1 for s in result.level_stats)


def test_reproducible_bitwise():
    schedule = build_schedule("weak", 2, gamma=0.5, eps=1.0)
    a = mlmc_estimate(2, 1, schedule, master_seed=12, replicate=1)
    b = mlmc_estimate(2, 1, schedule, master_seed=12, replicate=1)
    assert np.array_equal(a.estimate.values, b.estimate.values)
    assert a.total_op_work == b.total_op_work
    c = mlmc_estimate(2, 1, schedule, master_seed=12, replicate=2)
    assert not np.array_equal(a.estimate.values, c.estimate.values)


def test_workers_do_not_change_results():
    schedule = build_schedule("weak", 3, gamma=0.5, eps=1.0)
    serial = mlmc_estimate(3, 1, schedule, master_seed=6)
    parallel = mlmc_estimate(3, 1, schedule, master_seed=6, workers=2)
    assert np.array_equal(serial.estimate.values, parallel.estimate.values)
    for a, b in zip(serial.level_stats, parallel.level_stats):
        assert a.variance == b.variance


def test_callables_with_workers_match_inline():
    # worker threads call Python callables in place; nothing is pickled
    schedule = build_schedule("weak", 3, gamma=0.5, eps=1.0)
    custom = FunctionalSpec("custom", func=lambda f: float(f.values[0]))
    drift = DriftSpec(lambda v: -v, name="linear")
    for kwargs in ({"functional": custom}, {"drift": drift}):
        serial = mlmc_estimate(3, 1, schedule, master_seed=1, **kwargs)
        threaded = mlmc_estimate(3, 1, schedule, master_seed=1, workers=2, **kwargs)
        assert np.array_equal(getattr(serial.estimate, "values", serial.estimate),
                              getattr(threaded.estimate, "values", threaded.estimate))
        for a, b in zip(serial.level_stats, threaded.level_stats):
            assert a.variance == b.variance


def test_thread_workers_on_cold_caches_match_inline():
    # more threads than cores race to build the cached step operators,
    # interleaved finely by a short switch interval
    from spde_mlmc import fem
    from spde_mlmc.mlmc import pair_variances

    serial = pair_variances(4, 1, 300, 5)
    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fem._step_operator.cache_clear()
        runner = threading.Thread(
            target=lambda: out.append(pair_variances(4, 1, 300, 5, workers=4)), daemon=True)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert out == [serial]


def test_stream_capacity_checked_before_simulation(monkeypatch):
    from spde_mlmc import mlmc

    def no_simulation(*_args):
        raise AssertionError("a chunk ran before the capacity check")

    monkeypatch.setattr(mlmc, "_simulate_chunk", no_simulation)
    schedule = build_schedule("strong", 2, gamma=0.5, eps=1.0)
    with pytest.raises(UsageError, match="16 bits"):
        mlmc_estimate(2, 1, schedule, master_seed=0, replicate=2**16)
    too_many = dataclasses.replace(schedule, counts=(4, 4, 2**32 + 1))
    with pytest.raises(UsageError, match="32 bits"):
        mlmc_estimate(2, 1, too_many, master_seed=0)
    with pytest.raises(UsageError, match="32 bits"):
        mlmc.pair_variances(3, 1, 2**32 + 1, 0)


def test_singlelevel_estimate():
    schedule = build_schedule("singlelevel", 2, gamma=0.5)
    result = mlmc_estimate(2, 1, schedule, master_seed=5)
    assert len(result.level_stats) == 1
    assert result.level_stats[0].level == 2
    assert result.level_stats[0].samples == schedule.counts[0]


def test_scalar_functional_estimate():
    schedule = build_schedule("strong", 2, gamma=0.5, eps=1.0)
    result = mlmc_estimate(2, 1, schedule, functional=SQUARED_NORM, master_seed=7)
    assert isinstance(result.estimate, float)
    zero_noise = mlmc_estimate(2, 1, schedule, functional=SQUARED_NORM,
                               master_seed=7, zero_noise=True)
    det = run_deterministic(make_level(2))
    assert zero_noise.estimate == pytest.approx(mass_norm_sq(det.level, det.values),
                                                abs=1e-12)


def test_schedule_level_mismatch_rejected():
    schedule = build_schedule("weak", 3, gamma=0.5, eps=1.0)
    with pytest.raises(UsageError):
        mlmc_estimate(4, 1, schedule, master_seed=0)
    with pytest.raises(UsageError):
        mlmc_estimate(3, 0, schedule, master_seed=0)


def test_level_difference_variance_decays():
    # coupled-pair variance ~ h_l: fitted slope near -1 over a short ladder
    from spde_mlmc.mlmc import pair_variances

    points = []
    for level_index in range(2, 6):
        var_diff, var_fine = pair_variances(level_index, 1, 400, 2024)
        assert 0.0 < var_diff < var_fine
        points.append((level_index, math.log2(var_diff)))
    assert -1.8 <= fit_slope(points) <= -0.5


def test_pair_variances_validation():
    from spde_mlmc.mlmc import pair_variances

    with pytest.raises(UsageError):
        pair_variances(2, 1, 1, 0)


def test_library_admission_rejects_bad_base_level_workers_and_replicates(monkeypatch):
    # below the base level a pair is never coupled, so its "difference"
    # would silently be the fine path; no worker and no replicate run nothing
    from spde_mlmc import mlmc

    def no_simulation(*_args):
        raise AssertionError("a chunk ran before the admission check")

    monkeypatch.setattr(mlmc, "_simulate_chunk", no_simulation)
    with pytest.raises(UsageError, match="pair level 2 below the base level 3"):
        mlmc.pair_variances(2, 3, 4, 0)
    with pytest.raises(UsageError, match="base level must be at least 1"):
        mlmc.pair_variances(2, 0, 4, 0)
    for workers in (0, -3):
        with pytest.raises(UsageError, match="workers must be at least 1"):
            mlmc.check_chunk_memory([20], None, workers=workers)
        with pytest.raises(UsageError, match="workers must be at least 1"):
            mlmc.pair_variances(2, 1, 4, 0, workers=workers)
        with pytest.raises(UsageError, match="workers must be at least 1"):
            mlmc_estimate(2, 1, build_schedule("weak", 2), workers=workers)
    with pytest.raises(UsageError, match="at least one replicate, got 0"):
        mlmc.check_capacity([build_schedule("weak", 2)], 1, 0, 0, None)


def test_chunk_memory_checked_before_simulation(monkeypatch):
    from spde_mlmc import mlmc
    from spde_mlmc.errors import CapacityError

    def no_simulation(*_args):
        raise AssertionError("a chunk ran before the memory check")

    monkeypatch.setattr(mlmc, "_simulate_chunk", no_simulation)
    with pytest.raises(CapacityError, match="level 2 chunks"):
        mlmc.pair_variances(2, 1, 2, 0, kl_rule=10**8)
    with pytest.raises(CapacityError, match="level 1 chunks"):
        mlmc_estimate(2, 1, build_schedule("weak", 2), kl_rule=10**8)
    # a drift holds one slab of increments, as a run without one does: both
    # pass the check at level 16 on one worker and fail it at 17
    drift = DriftSpec(lambda v: -v, name="linear")
    mlmc.check_chunk_memory(range(1, 17), None)
    with pytest.raises(AssertionError, match="a chunk ran"):
        mlmc_estimate(16, 1, build_schedule("strong", 16), drift=drift)
    for kwargs in ({}, {"drift": drift}):
        with pytest.raises(CapacityError, match="level 17 chunks"):
            mlmc_estimate(17, 1, build_schedule("strong", 17), **kwargs)


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
        result = mlmc_estimate(top, 1, schedule, master_seed=77, replicate=rep)
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
    results = [mlmc_estimate(top, 1, schedule, master_seed=31, replicate=r)
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
    assert not sl.log_factor
    assert strong.accuracy_exponent == pytest.approx(-3.0, abs=1e-5)
    assert strong.log_factor
    assert weak.accuracy_exponent == pytest.approx(-2.5, abs=1e-5)
    assert weak.log_factor


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
    low_kappa = build_schedule("general", 3, gamma=0.5, eps=1.0,
                               a=[1.0, 0.5, 0.25, 0.125], eta=1.0)
    pred = predict_work(low_kappa, d=1, kappa=0.5, delta=0.0)
    assert pred.bound_exponent == -2.0  # kappa < 2 eta branch
    assert pred.bound_poly_power is None
    pred2 = predict_work(low_kappa, d=1, kappa=3.0, delta=0.0)
    assert pred2.bound_exponent == pytest.approx(-(2.0 + 3.0 - 2.0))
    assert pred2.bound_poly_power == pytest.approx(3.0)
    # a general schedule's complexity is its bound, on both sides of 2 eta
    assert pred.accuracy_exponent == pred.bound_exponent
    assert pred2.accuracy_exponent == pred2.bound_exponent


def test_predict_work_zeta_constant():
    s = build_schedule("weak", 3, gamma=0.5, eps=1.0)
    pred = predict_work(s, d=1)
    # 1 + sqrt(1 + zeta(2)) with unit constants
    assert pred.error_constant == pytest.approx(1.0 + math.sqrt(1.0 + math.pi**2 / 6.0),
                                                rel=1e-12)
    border = build_schedule("weak", 3, gamma=0.5, eps=0.0)
    assert math.isinf(predict_work(border, d=1).error_constant)


def test_package_import_loads_no_scipy():
    # nor the process-pool machinery: workers are threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(spde_mlmc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, spde_mlmc; sys.exit(sorted({'scipy', 'multiprocessing', "
            "'concurrent.futures.process'} & set(sys.modules)) or None)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
