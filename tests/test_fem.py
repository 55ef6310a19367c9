import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from spde_mlmc import (
    CapacityError,
    NodalField,
    NumericalError,
    UsageError,
    initial_field,
    make_level,
    run_deterministic,
)
from spde_mlmc import fem
from spde_mlmc.fem import BLOCK, StepOperator, mass_norm_sq, sine_transform
from spde_mlmc.metrics import exact_mean, fit_slope

from reference import (
    TridiagonalMatrix,
    assemble,
    dense,
    direct_block_step,
    euler_step,
    projection_matrix,
    thomas_solve,
)


def hat(level, i):
    """P1 basis function i (1-based) on a level, as a plain callable."""
    h = level.mesh_width
    xi = i * h

    def phi(x):
        return max(0.0, 1.0 - abs(x - xi) / h)

    return phi


def hat_derivative(level, i):
    h = level.mesh_width
    xi = i * h

    def dphi(x):
        if xi - h < x < xi:
            return 1.0 / h
        if xi < x < xi + h:
            return -1.0 / h
        return 0.0

    return dphi


@pytest.mark.parametrize("level_index", [1, 2, 3])
def test_assembly_against_quadrature(level_index):
    level = make_level(level_index)
    mass, stiffness = assemble(level)
    for i in range(1, level.dofs + 1):
        phi_i, dphi_i = hat(level, i), hat_derivative(level, i)
        for j in (i, i + 1):
            if j > level.dofs:
                continue
            phi_j, dphi_j = hat(level, j), hat_derivative(level, j)
            m_ref = quad(lambda x: phi_i(x) * phi_j(x), 0, 1, limit=200)[0]
            k_ref = quad(lambda x: dphi_i(x) * dphi_j(x), 0, 1, limit=200)[0]
            m_val = mass.diag[i - 1] if i == j else mass.sup[i - 1]
            k_val = stiffness.diag[i - 1] if i == j else stiffness.sup[i - 1]
            assert m_val == pytest.approx(m_ref, abs=1e-12)
            assert k_val == pytest.approx(k_ref, abs=1e-10)


def test_assembly_frozen_values():
    mass, stiffness = assemble(make_level(1))
    np.testing.assert_allclose(mass.diag, [1.0 / 3.0])
    np.testing.assert_allclose(stiffness.diag, [4.0])
    mass2, stiffness2 = assemble(make_level(2))
    np.testing.assert_allclose(mass2.diag, 1.0 / 6.0)
    np.testing.assert_allclose(mass2.sup, 1.0 / 24.0)
    np.testing.assert_allclose(stiffness2.diag, 8.0)
    np.testing.assert_allclose(stiffness2.sup, -4.0)


def test_stiffness_interior_row_sums_vanish():
    _, stiffness = assemble(make_level(5))
    dense_stiffness = dense(stiffness)
    sums = dense_stiffness.sum(axis=1)
    np.testing.assert_allclose(sums[1:-1], 0.0, atol=1e-12)


@pytest.mark.parametrize("level_index", range(1, 7))
def test_mass_norm_sq_matches_assembled_mass_bitwise(level_index):
    # the same products in the same order as the assembled band's matvec,
    # so every L2 norm the package reports keeps its last bit
    level = make_level(level_index)
    mass, _ = assemble(level)
    rng = np.random.default_rng(level_index)
    x = rng.standard_normal(level.dofs)
    assert mass_norm_sq(level, x) == x @ mass.matvec(x)
    batch = rng.standard_normal((level.dofs, 5))
    expected = np.einsum("ib,ib->b", batch, mass.matvec(batch))
    assert np.array_equal(mass_norm_sq(level, batch), expected)


def test_assembly_empty_space():
    with pytest.raises(UsageError):
        assemble(make_level(0))


def test_thomas_identity():
    m = TridiagonalMatrix(np.zeros(3), np.ones(4), np.zeros(3))
    rhs = np.array([1.0, -2.0, 3.0, 0.5])
    np.testing.assert_array_equal(thomas_solve(m, rhs), rhs)


def test_thomas_hand_checked():
    m = TridiagonalMatrix(np.array([-1.0]), np.array([2.0, 2.0]), np.array([-1.0]))
    np.testing.assert_allclose(thomas_solve(m, np.array([1.0, 1.0])), [1.0, 1.0])


def test_thomas_residual_random_system():
    rng = np.random.default_rng(42)
    n = 50
    sub = rng.uniform(-1, 1, n - 1)
    sup = rng.uniform(-1, 1, n - 1)
    diag = 3.0 + rng.uniform(0, 1, n)  # diagonally dominant
    m = TridiagonalMatrix(sub, diag, sup)
    rhs = rng.standard_normal(n)
    x = thomas_solve(m, rhs)
    residual = np.max(np.abs(m.matvec(x) - rhs))
    assert residual <= 1e-12 * np.max(np.abs(rhs))


def test_thomas_zero_pivot():
    m = TridiagonalMatrix(np.array([1.0]), np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(NumericalError):
        thomas_solve(m, np.array([1.0, 1.0]))


def test_initial_field_values():
    np.testing.assert_allclose(initial_field(make_level(1)).values, [1.0])
    np.testing.assert_allclose(
        initial_field(make_level(2)).values,
        [math.sin(math.pi / 4), 1.0, math.sin(3 * math.pi / 4)],
    )


@pytest.mark.parametrize("level_index", range(1, 7))
def test_initial_field_symmetric(level_index):
    v = initial_field(make_level(level_index)).values
    np.testing.assert_allclose(v, v[::-1], atol=1e-15)


def test_euler_step_zero_fixed_point():
    level = make_level(3)
    mass, stiffness = assemble(level)
    state = NodalField(level, np.zeros(7))
    out = euler_step(level, mass, stiffness, state, None, np.zeros(7))
    assert np.all(out.values == 0.0)


def test_euler_step_single_dof_value():
    level = make_level(1)
    mass, stiffness = assemble(level)
    out = euler_step(level, mass, stiffness, NodalField(level, np.array([1.0])),
                     None, np.zeros(1))
    assert out.values[0] == pytest.approx(0.25, abs=1e-15)


def test_euler_step_linearity_without_drift():
    level = make_level(4)
    mass, stiffness = assemble(level)
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((2, level.dofs))
    load_u, load_v = rng.standard_normal((2, level.dofs))

    def step(state, load):
        return euler_step(level, mass, stiffness, NodalField(level, state),
                          None, load).values

    combined = step(2.0 * u + 3.0 * v, 2.0 * load_u + 3.0 * load_v)
    np.testing.assert_allclose(
        combined, 2.0 * step(u, load_u) + 3.0 * step(v, load_v), atol=1e-12
    )


def test_euler_step_with_drift():
    # explicit drift enters as dt * M F(x_prev) on the right-hand side
    level = make_level(1)
    mass, stiffness = assemble(level)
    drift = lambda v: 2.0 * v
    out = euler_step(level, mass, stiffness, NodalField(level, np.array([1.0])),
                     drift, np.zeros(1))
    expected = ((1.0 / 3.0) * (1.0 + 0.25 * 2.0)) / (1.0 / 3.0 + 0.25 * 4.0)
    assert out.values[0] == pytest.approx(expected, rel=1e-14)


def test_deterministic_run_symmetric_and_monotone():
    previous_gap = None
    for level_index in range(3, 8):
        level = make_level(level_index)
        out = run_deterministic(level).values
        np.testing.assert_allclose(out, out[::-1], atol=1e-13)
        gap = out[level.dofs // 2] - math.exp(-math.pi**2)
        assert gap > 0.0
        if previous_gap is not None:
            assert gap < previous_gap
        previous_gap = gap


@pytest.mark.parametrize("level_index", range(1, 8))
def test_initial_decay_is_the_noise_free_step_of_the_first_mode(level_index):
    # fem forms rho_1**steps once: a noise-free block of the step operator
    # decays the first sine mode by exactly that factor
    level = make_level(level_index)
    op = StepOperator(level)
    for n in (1, 4, BLOCK, 1024):
        if n <= level.steps:
            coeffs = np.zeros(level.dofs)
            coeffs[0] = 1.0
            out = op.step(np.zeros((n, op.modes)), coeffs)
            assert out[0] == fem.initial_decay(level, n)
    log_rho = fem.mode_factors(level, 1, 1)[0][0]
    assert fem.initial_decay(level, level.steps) == np.exp(level.steps * log_rho)


def test_deterministic_run_memory_is_linear_in_dofs():
    # 4095 dofs: a dofs x dofs sine matrix alone would take 128 MiB
    level = make_level(12)
    tracemalloc.start()
    try:
        run_deterministic(level)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_deterministic_run_rejects_a_level_over_the_memory_cap(monkeypatch):
    # level 25 needs 88 bytes per dof, above the 2 GiB cap: it fails before
    # it allocates the initial field, as det-conv's up-front check does
    def no_field(_level):
        raise AssertionError("the level was allocated before the memory check")

    monkeypatch.setattr(fem, "initial_field", no_field)
    with pytest.raises(CapacityError, match="level 25 needs about 2952789928 bytes"):
        run_deterministic(make_level(25))
    fem.check_deterministic(make_level(24))


@pytest.mark.parametrize("level", [2.0, "2"])
def test_deterministic_run_of_a_non_integer_level_is_a_usage_error(level):
    # make_level(2.0) once built a level of 3.0 dofs, and this run then ended
    # in an IndexError of numpy's indexing
    with pytest.raises(UsageError, match="a level must be an integer"):
        run_deterministic(make_level(level))


def test_deterministic_convergence_order():
    points = []
    for level_index in range(3, 8):
        level = make_level(level_index)
        mass, _ = assemble(level)
        diff = run_deterministic(level).values - exact_mean(1.0, level).values
        err = math.sqrt(diff @ mass.matvec(diff))
        points.append((level_index, math.log2(err)))
    slope = fit_slope(points)
    assert -2.2 <= slope <= -1.7


@pytest.mark.parametrize("level_index", range(1, 13))
def test_sine_transform_matches_sine_matrix(level_index):
    level = make_level(level_index)
    n = level.dofs
    sines = np.sin(np.outer(level.nodes, np.arange(1, n + 1) * np.pi))
    rng = np.random.default_rng(level_index)

    def close(actual, expected):
        assert actual.shape == expected.shape
        assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected))

    for coeffs in (rng.standard_normal(n), rng.standard_normal((n, 64))):
        close(sine_transform(coeffs), sines @ coeffs)
        # S is symmetric and S S = (dofs + 1)/2 I
        close(sine_transform(sine_transform(coeffs)), (n + 1) / 2 * coeffs)


def test_norm_non_increasing_over_steps():
    level = make_level(3)
    op = StepOperator(level)
    coeffs = np.zeros(level.dofs)
    coeffs[0] = 1.0  # the initial data sin(pi*x)
    rows = np.zeros((1, level.dofs))
    norms = [math.sqrt(mass_norm_sq(level, sine_transform(coeffs)))]
    for _ in range(level.steps):
        coeffs = op.step(rows, coeffs)
        norms.append(math.sqrt(mass_norm_sq(level, sine_transform(coeffs))))
    assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))


def test_symmetric_loads_preserve_symmetry():
    level = make_level(4)
    mass, stiffness = assemble(level)
    rng = np.random.default_rng(6)
    state = initial_field(level)
    for _ in range(5):
        half = rng.standard_normal(level.dofs // 2)
        load = np.concatenate([half, rng.standard_normal(1), half[::-1]])
        state = euler_step(level, mass, stiffness, state, None, load)
        np.testing.assert_allclose(state.values, state.values[::-1], atol=1e-13)


def test_step_operator_matches_euler_step():
    # one weighted sum over a block of increment rows, batched over paths,
    # against nodal Euler steps driven by the projected loads; the engine
    # takes the increments over h, its unit rows
    level = make_level(4)
    mass, stiffness = assemble(level)
    op = StepOperator(level)
    proj = projection_matrix(level, level.dofs).matrix
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal((level.dofs, 6))
    rows = rng.standard_normal((5, level.dofs, 6))
    batched = sine_transform(op.step(rows / level.mesh_width, coeffs))
    for b in range(6):
        single = NodalField(level, sine_transform(coeffs[:, b]))
        for row in rows[:, :, b]:
            single = euler_step(level, mass, stiffness, single, None, row @ proj)
        np.testing.assert_allclose(batched[:, b], single.values, atol=1e-13)


@pytest.mark.parametrize("n", [1, 4, 16, 32, 64, 256, 1024])
@pytest.mark.parametrize("kl_rule", [None, 19, 300])  # level 5 has 31 dofs
def test_blocked_step_matches_direct_weights(n, kl_rule):
    # the two-stage sum against one multiply-then-sum over the direct table
    # of weights rho**(n-1-m) * beta, for one path and batched over three
    level = make_level(5)
    op = StepOperator(level, kl_rule)
    rng = np.random.default_rng(n)
    for shape in ((), (3,)):
        coeffs = rng.standard_normal((level.dofs, *shape))
        rows = rng.standard_normal((n, op.modes, *shape))
        expected = direct_block_step(op, rows, coeffs)
        actual = op.step(rows, coeffs.copy())
        assert actual.shape == expected.shape
        assert np.max(np.abs(actual - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [0, 48, 2048])
def test_blocked_step_rejects_other_block_lengths(n):
    level = make_level(5)
    op = StepOperator(level)
    with pytest.raises(UsageError, match=f"block of {n} steps"):
        op.step(np.zeros((n, op.modes)), np.zeros(level.dofs))


@pytest.mark.parametrize("level_index", [1, 7, 20])
def test_beta_is_the_unscaled_beta_times_h_bitwise(level_index):
    # beta_j = a_j h / d_j steps standard normal rows. The unscaled a_j / d_j,
    # formed here as mode_factors formed it when the rows were increments of
    # deviation h, times the power of two h gives the same bits, so every
    # product with a row rounds as before.
    level = make_level(level_index)
    h, dt, n = level.mesh_width, level.time_step, level.dofs
    for modes in (n, 2 * n + 5):  # the second folds KL modes beyond dofs
        j = np.arange(1, modes + 1)
        v = 2.0 * np.sin(j * np.pi * h / 2.0) ** 2
        denom = h * (1.0 - v[:n] / 3.0) + dt * (2.0 / h) * v[:n]
        r = j % (2 * (n + 1))
        sign = np.where(r <= n, 1.0, -1.0)
        sign[(r == 0) | (r == n + 1)] = 0.0
        _, target, beta = fem.mode_factors(level, n, modes)
        amplitude = np.sqrt(2.0) * 2.0 * v / (j**2 * np.pi**2 * h)
        unscaled = sign * amplitude / denom[target]
        assert beta.tobytes() == (unscaled * h).tobytes()


def test_step_operators_hold_two_block_tables():
    # with a fixed number of KL modes an operator's size does not grow with
    # the level's steps: it holds two BLOCK x modes tables plus O(dofs)
    modes = 300
    tracemalloc.start()
    try:
        for level_index in range(5, 10):
            before, _ = tracemalloc.get_traced_memory()
            op = StepOperator(make_level(level_index), modes)
            held, _ = tracemalloc.get_traced_memory()
            assert op.inner.shape == op.outer.shape == (fem.BLOCK, modes)
            assert held - before <= 8 * (2 * fem.BLOCK * modes + 4 * (op.level.dofs + modes))
            del op
    finally:
        tracemalloc.stop()


def test_building_a_step_operator_holds_little_beyond_its_tables():
    # the outer table is formed in place of the exponents: building the operator
    # of level 10 peaked at 2.47 of its tables' size, 4.35 when each stage made
    # a new array; chunk_bytes budgets the two tables and a one-path drift chunk
    # a slab of one table more, which the building can use before the slab exists
    level = make_level(10)
    StepOperator(make_level(3))  # first-use allocations of numpy
    tracemalloc.start()
    try:
        StepOperator(level)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * fem.BLOCK * level.dofs
