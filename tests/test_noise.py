import math

import numpy as np
import pytest
from scipy.integrate import quad

from spde_mlmc import UsageError, kl_modes, make_level, path_stream
from spde_mlmc.noise import coarsen_rows, draw_increment_rows

from reference import KLBlock, coarsen_block, noise_load, projection_matrix, sample_kl_block


def test_projection_frozen_value():
    proj = projection_matrix(make_level(1), 1)
    assert proj.matrix[0, 0] == pytest.approx(4.0 * math.sqrt(2.0) / math.pi**2, rel=1e-14)


def test_projection_against_quadrature():
    # oracle: adaptive quadrature of the hat function against sqrt(2) sin(j pi x)
    for level_index in range(1, 5):
        level = make_level(level_index)
        proj = projection_matrix(level, 31)
        h = level.mesh_width
        for j in range(1, 32):
            for i in range(1, level.dofs + 1):
                xi = i * h

                def integrand(x):
                    return (1.0 - abs(x - xi) / h) * math.sqrt(2.0) * math.sin(j * math.pi * x)

                ref = (quad(integrand, xi - h, xi, limit=100)[0]
                       + quad(integrand, xi, xi + h, limit=100)[0])
                assert proj.matrix[j - 1, i - 1] == pytest.approx(ref, abs=1e-10)


def test_projection_vanishing_entries():
    # sin(j pi x_i) = 0 whenever j * i is a multiple of 2**level
    level = make_level(3)
    proj = projection_matrix(level, 16)
    assert proj.matrix[7, 3] == pytest.approx(0.0, abs=1e-12)  # j=8, x=1/2
    assert proj.matrix[15, 0] == pytest.approx(0.0, abs=1e-12)  # j=16, x=1/8


def test_projection_crude_bound():
    level = make_level(4)
    proj = projection_matrix(level, 64)
    assert np.all(np.abs(proj.matrix) <= math.sqrt(2.0) * level.mesh_width + 1e-15)


def test_kl_modes_rule():
    assert kl_modes(make_level(4)) == 15
    assert kl_modes(make_level(1)) == 1
    assert kl_modes(make_level(4), rule=7) == 7
    with pytest.raises(UsageError):
        kl_modes(make_level(4), rule=0)


def test_block_determinism():
    level = make_level(3)
    a = sample_kl_block(path_stream(7, 3, 0, 5), level, 7)
    b = sample_kl_block(path_stream(7, 3, 0, 5), level, 7)
    assert np.array_equal(a.increments, b.increments)
    c = sample_kl_block(path_stream(7, 3, 0, 6), level, 7)
    assert not np.array_equal(a.increments, c.increments)


def test_block_moments():
    level = make_level(3)  # 64 steps
    total = []
    for sample in range(250):
        block = sample_kl_block(path_stream(123, 3, 0, sample), level, 7)
        total.append(block.increments.ravel())
    entries = np.concatenate(total)  # 112000 draws
    n = entries.size
    std_err = math.sqrt(level.time_step / n)
    assert abs(entries.mean()) <= 3.0 * std_err
    assert entries.var() == pytest.approx(level.time_step, rel=0.05)


def test_slabbed_draws_match_full_block():
    level = make_level(4)
    full = draw_increment_rows(path_stream(1, 4, 0, 0), level.steps, 15)
    stream = path_stream(1, 4, 0, 0)
    parts = [draw_increment_rows(stream, 64, 15) for _ in range(level.steps // 64)]
    assert np.array_equal(full, np.vstack(parts))
    # drawn into one reused buffer, as a chunk does, the rows are the same bits
    stream = path_stream(1, 4, 0, 0)
    buffer = np.empty((64, 15))
    for part in parts:
        assert draw_increment_rows(stream, 64, 15, out=buffer) is buffer
        assert np.array_equal(buffer, part)


def test_draw_is_a_bare_standard_normal_fill():
    # increment rows are standard normals at every level: no time-step scaling
    for level_index, modes in ((1, 1), (4, 15), (7, 40)):
        steps = make_level(level_index).steps
        expected = path_stream(3, level_index, 0, 2).standard_normal((steps, modes))
        rows = draw_increment_rows(path_stream(3, level_index, 0, 2), steps, modes)
        assert rows.tobytes() == expected.tobytes()


def test_coarsen_rows_of_ones_is_two():
    # half the four-step sum: four unit normals sum to variance 4, halved to 1
    np.testing.assert_array_equal(coarsen_rows(np.ones((8, 3)), 2), np.full((2, 2), 2.0))


def test_coarsen_all_ones():
    level = make_level(2)
    block = KLBlock(level, np.ones((3, level.steps)))
    coarse = coarsen_block(block, 1)
    assert coarse.level.level == 1
    np.testing.assert_array_equal(coarse.increments, np.full((1, 4), 4.0))


def test_coarsen_zero():
    level = make_level(2)
    coarse = coarsen_block(KLBlock(level, np.zeros((3, 16))), 3)
    assert np.all(coarse.increments == 0.0)


def test_coarsen_is_exact_four_step_sum():
    level = make_level(3)
    block = sample_kl_block(path_stream(2, 3, 0, 0), level, 7)
    coarse = coarsen_block(block, 3)
    f = block.increments[:3]
    expected = ((f[:, 0::4] + f[:, 1::4]) + f[:, 2::4]) + f[:, 3::4]
    assert np.array_equal(coarse.increments, expected)
    # the drift branch coarsens a (steps, modes, paths) view of a
    # (paths, steps, modes) buffer; one mode leaves the step axis innermost.
    # coarsen_rows halves the sum, keeping unit rows unit; the halving is exact
    paths = np.random.default_rng(3).standard_normal((5, 16, 7))
    for modes in (1, 3, 7):
        r = paths.transpose(1, 2, 0)[:, :modes]
        expected = 0.5 * (((r[0::4] + r[1::4]) + r[2::4]) + r[3::4])
        assert np.array_equal(coarsen_rows(r, modes), expected)


def test_coarsen_variance():
    level = make_level(2)
    entries = []
    for sample in range(400):
        block = sample_kl_block(path_stream(55, 2, 0, sample), level, 3)
        entries.append(coarsen_block(block, 3).increments.ravel())
    entries = np.concatenate(entries)
    coarse_dt = make_level(1).time_step
    assert entries.var() == pytest.approx(coarse_dt, rel=0.05)
    assert entries.var() == pytest.approx(4.0 * level.time_step, rel=0.05)


def test_coarsen_validation():
    level = make_level(2)
    block = KLBlock(level, np.zeros((3, 16)))
    with pytest.raises(UsageError):
        coarsen_block(block, 5)
    odd = KLBlock(make_level(1), np.zeros((1, 4)))
    coarsened = coarsen_block(odd, 1)  # 4 steps -> 1 step is fine
    assert coarsened.increments.shape == (1, 1)


def test_noise_load_examples():
    level = make_level(3)
    proj = projection_matrix(level, 7)
    zero = KLBlock(level, np.zeros((7, level.steps)))
    assert np.all(noise_load(zero, 0, proj) == 0.0)

    single = np.zeros((7, level.steps))
    single[4, 10] = 2.5
    block = KLBlock(level, single)
    np.testing.assert_allclose(noise_load(block, 10, proj), 2.5 * proj.matrix[4])
    assert np.all(noise_load(block, 9, proj) == 0.0)


def test_noise_load_matches_dense_product():
    level = make_level(3)
    proj = projection_matrix(level, 7)
    block = sample_kl_block(path_stream(3, 3, 0, 1), level, 7)
    for k in (0, 17, 63):
        dense = proj.matrix.T @ block.increments[:, k]
        np.testing.assert_allclose(noise_load(block, k, proj), dense, atol=1e-12)


def test_noise_load_validation():
    level = make_level(3)
    proj = projection_matrix(level, 7)
    block = sample_kl_block(path_stream(3, 3, 0, 1), level, 7)
    with pytest.raises(UsageError):
        noise_load(block, 64, proj)
    with pytest.raises(UsageError):
        noise_load(block, 0, projection_matrix(level, 5))


def test_stream_key_validation():
    with pytest.raises(UsageError):
        path_stream(-1, 0, 0, 0)
    with pytest.raises(UsageError):
        path_stream(0, 0, 0, 2**32)
