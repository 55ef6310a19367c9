import numpy as np
import pytest
from hypothesis import given, strategies as st

from spde_mlmc import (
    CapacityError,
    NodalField,
    UsageError,
    make_level,
    prolong_to,
)
from spde_mlmc.grid import MAX_LEVEL, prolong_values

from reference import assemble


@pytest.mark.parametrize(
    "level,h,dt,dofs,steps",
    [
        (3, 0.125, 1.0 / 64.0, 7, 64),
        (1, 0.5, 0.25, 1, 4),
        (0, 1.0, 1.0, 0, 1),
    ],
)
def test_make_level_examples(level, h, dt, dofs, steps):
    g = make_level(level)
    assert g.mesh_width == h
    assert g.time_step == dt
    assert g.dofs == dofs
    assert g.steps == steps


@pytest.mark.parametrize("level", range(0, 12))
def test_level_invariants(level):
    g = make_level(level)
    assert g.time_step == g.mesh_width**2
    assert g.steps * g.time_step == 1.0
    assert g.dofs == round(1.0 / g.mesh_width) - 1
    assert np.all(np.diff(g.nodes) > 0)


def test_make_level_capacity():
    make_level(MAX_LEVEL)  # at the boundary still fine
    with pytest.raises(CapacityError):
        make_level(MAX_LEVEL + 1)
    with pytest.raises(UsageError):
        make_level(-1)


def test_field_validation():
    g = make_level(2)
    with pytest.raises(UsageError):
        NodalField(g, np.zeros(5))
    with pytest.raises(UsageError):
        NodalField(g, np.array([1.0, np.nan, 0.0]))


def test_prolong_hat_peak():
    fine = prolong_to(NodalField(make_level(1), np.array([1.0])), 2)
    assert fine.level.level == 2
    np.testing.assert_allclose(fine.values, [0.5, 1.0, 0.5])


def test_prolong_zero():
    fine = prolong_to(NodalField(make_level(3), np.zeros(7)), 4)
    assert np.all(fine.values == 0.0)


def _mass_norm_sq(field):
    mass, _ = assemble(field.level)
    return field.values @ mass.matvec(field.values)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_prolong_preserves_l2_norm(level):
    rng = np.random.default_rng(level)
    coarse = NodalField(make_level(level), rng.standard_normal(2**level - 1))
    fine = prolong_to(coarse, level + 1)
    a, b = _mass_norm_sq(coarse), _mass_norm_sq(fine)
    assert b == pytest.approx(a, rel=1e-12)


@given(a=st.floats(-10, 10), b=st.floats(-10, 10))
def test_prolong_linearity(a, b):
    rng = np.random.default_rng(99)
    u = rng.standard_normal(7)
    v = rng.standard_normal(7)
    g = make_level(3)
    combined = prolong_to(NodalField(g, a * u + b * v), 4)
    separate = (a * prolong_to(NodalField(g, u), 4).values
                + b * prolong_to(NodalField(g, v), 4).values)
    np.testing.assert_allclose(combined.values, separate, atol=1e-12)


def test_double_prolong_matches_direct_interpolation():
    rng = np.random.default_rng(5)
    g = make_level(3)
    coarse = NodalField(g, rng.standard_normal(g.dofs))
    lifted = prolong_to(coarse, 5)
    # independent oracle: piecewise-linear interpolation of the P1 function
    x_coarse = np.concatenate(([0.0], g.nodes, [1.0]))
    y_coarse = np.concatenate(([0.0], coarse.values, [0.0]))
    fine_nodes = make_level(5).nodes
    np.testing.assert_allclose(
        lifted.values, np.interp(fine_nodes, x_coarse, y_coarse), atol=1e-14
    )


def test_prolong_to_rejects_downward():
    f = NodalField(make_level(3), np.zeros(7))
    with pytest.raises(UsageError):
        prolong_to(f, 2)


def test_prolong_values_batched_matches_single():
    rng = np.random.default_rng(1)
    batch = rng.standard_normal((7, 5))
    lifted = prolong_values(batch)
    for b in range(5):
        single = prolong_to(NodalField(make_level(3), batch[:, b]), 4)
        np.testing.assert_array_equal(lifted[:, b], single.values)


@pytest.mark.parametrize("level", [2.0, 2.5, "2", None])
def test_a_level_must_be_an_integer(level):
    # a float level once gave dofs 3.0 and steps 16.0, and failed only later,
    # as an IndexError deep in the deterministic solve
    with pytest.raises(UsageError, match=f"a level must be an integer, got {level!r}"):
        make_level(level)
    with pytest.raises(UsageError, match=f"a level must be an integer, got {level!r}"):
        prolong_to(NodalField(make_level(1), np.array([1.0])), level)


def test_numpy_integer_levels_are_accepted():
    g = make_level(np.int64(3))
    assert g == make_level(3)
    assert type(g.dofs) is int and type(g.steps) is int
    fine = prolong_to(NodalField(make_level(1), np.array([1.0])), np.int32(2))
    np.testing.assert_array_equal(fine.values, [0.5, 1.0, 0.5])


def test_prolong_to_checks_the_target_before_it_prolongs():
    # a target beyond MAX_LEVEL fails as such, not after 30 doublings
    with pytest.raises(CapacityError, match="level 40 exceeds capacity"):
        prolong_to(NodalField(make_level(1), np.array([1.0])), 40)
