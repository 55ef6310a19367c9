import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spde_mlmc import (
    CapacityError,
    NodalField,
    UsageError,
    exact_mean,
    fit_slope,
    initial_field,
    make_level,
    rms_aggregate,
    rms_error,
)
from spde_mlmc.metrics import exact_mean_values, reference_points


def test_exact_mean_at_time_zero_is_initial_condition():
    level = make_level(4)
    np.testing.assert_allclose(exact_mean(0.0, level).values,
                               initial_field(level).values, atol=1e-15)


def test_exact_mean_terminal_midpoint():
    level = make_level(3)
    mid = exact_mean(1.0, level).values[level.dofs // 2]
    assert mid == pytest.approx(math.exp(-math.pi**2), rel=1e-12)
    assert mid == pytest.approx(5.1723e-5, abs=1e-9)


def test_exact_mean_separable_scaling():
    level = make_level(5)
    for t in (0.25, 0.5, 0.75):
        np.testing.assert_allclose(
            exact_mean(t, level).values,
            math.exp(-math.pi**2 * t) * exact_mean(0.0, level).values,
            rtol=1e-13,
        )


def test_exact_mean_time_bounds():
    with pytest.raises(UsageError):
        exact_mean(-0.5, make_level(2))


def test_reference_points():
    assert reference_points(33) == 5
    assert reference_points(3) == 1
    for bad in (0, 1, 34, 10):
        with pytest.raises(UsageError):
            reference_points(bad)


def test_reference_grid_over_the_memory_cap_rejected():
    # rms_error peaks at 6 doubles per point; 2**26 + 1 points pass 2 GiB
    assert reference_points(2**25 + 1) == 25
    with pytest.raises(CapacityError, match=r"m = 67108865 points needs about \d+ bytes"):
        reference_points(2**26 + 1)


def test_rms_error_zero_for_exact_nodal_values_on_matching_grid():
    level = make_level(5)
    estimate = exact_mean(1.0, level)
    assert rms_error(estimate, 2**5 + 1) == 0.0


def test_rms_error_of_exact_values_on_finer_grid_is_interpolation_error():
    level = make_level(3)
    err = rms_error(exact_mean(1.0, level), 2**5 + 1)
    assert 0.0 < err < 1e-5  # pure interpolation error of the smooth mean


def test_rms_error_zero_estimate_matches_direct_sum():
    level = make_level(3)
    zero = NodalField(level, np.zeros(level.dofs))
    m = 33
    x = np.linspace(0.0, 1.0, m)
    expected = math.sqrt(np.mean(exact_mean_values(1.0, x) ** 2))
    assert rms_error(zero, m) == pytest.approx(expected, rel=1e-12)


def test_rms_error_flip_invariant():
    level = make_level(4)
    rng = np.random.default_rng(17)
    v = rng.standard_normal(level.dofs)
    a = rms_error(NodalField(level, v), 33)
    b = rms_error(NodalField(level, v[::-1]), 33)
    assert a == pytest.approx(b, rel=1e-12)


def test_rms_error_rejects_coarse_reference_grid():
    level = make_level(5)
    with pytest.raises(UsageError):
        rms_error(exact_mean(1.0, level), 2**4 + 1)
    with pytest.raises(UsageError):
        rms_error(exact_mean(1.0, level), 34)


def test_rms_aggregate_examples():
    assert rms_aggregate([0.0, 0.0, 0.0]) == 0.0
    assert rms_aggregate([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
    assert rms_aggregate([2.5]) == 2.5
    with pytest.raises(UsageError):
        rms_aggregate([])


@given(st.permutations([0.5, 1.25, 2.0, 0.1]))
def test_rms_aggregate_permutation_invariant(perm):
    assert rms_aggregate(perm) == pytest.approx(rms_aggregate([0.5, 1.25, 2.0, 0.1]))


def test_rms_aggregate_monotone_in_each_entry():
    base = [1.0, 2.0, 3.0]
    bumped = [1.0, 2.5, 3.0]
    assert rms_aggregate(bumped) > rms_aggregate(base)


def test_fit_slope_exact_line():
    assert fit_slope([(0, 0), (1, -1), (2, -2)]) == pytest.approx(-1.0)
    assert fit_slope([(0, 1), (1, 1)]) == 0.0


def test_fit_slope_matches_normal_equations():
    rng = np.random.default_rng(23)
    x = rng.uniform(0, 10, 40)
    y = rng.standard_normal(40)
    a = np.vstack([x, np.ones_like(x)]).T
    ref = np.linalg.lstsq(a, y, rcond=None)[0][0]
    assert fit_slope(list(zip(x, y))) == pytest.approx(ref, abs=1e-12)


@given(st.floats(-1e3, 1e3))
def test_fit_slope_shift_invariant(c):
    pts = [(0.0, 1.0), (1.0, 0.25), (2.0, -0.5), (4.0, 2.0)]
    shifted = [(x, y + c) for x, y in pts]
    assert fit_slope(shifted) == pytest.approx(fit_slope(pts), abs=1e-9)


def test_fit_slope_degenerate_inputs():
    with pytest.raises(UsageError):
        fit_slope([(1.0, 2.0)])
    with pytest.raises(UsageError):
        fit_slope([(1.0, 2.0), (1.0, 3.0)])
