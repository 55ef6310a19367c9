"""Karhunen-Loeve sampling of the driving Wiener increments.

The noise is white in space: the expansion runs over the Dirichlet
eigenbasis e_j(x) = sqrt(2) sin(j*pi*x) with unit mode variances, truncated
at J(l) modes. By default J(l) = 2**l - 1 matches the spatial resolution, so
the truncation is a function of the level alone and level differences
telescope without bias.

Streams are counter-based: each sample path owns a Philox generator keyed by
(master_seed, stream kind, level, replicate, sample index), so any path can
be regenerated on any worker with identical output. Within a path the block
of increments is drawn in step-major order, which makes slab-wise streaming
of long paths produce bit-identical values to one monolithic draw.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .grid import LevelGeometry, make_level

#: Stream kinds keeping unrelated consumers of the same seed independent.
KIND_PATH = 1
KIND_SCALAR = 2


def stream_key(master_seed: int, kind: int, level: int, replicate: int, sample: int) -> np.ndarray:
    """Pack stream coordinates into a 128-bit Philox key."""
    if not 0 <= master_seed < 2**64:
        raise UsageError("master seed must fit in 64 bits")
    if not 0 <= sample < 2**32:
        raise UsageError("sample index must fit in 32 bits")
    if not 0 <= replicate < 2**16:
        raise UsageError("replicate index must fit in 16 bits")
    if not 0 <= level < 2**8 or not 0 <= kind < 2**8:
        raise UsageError("level and stream kind must fit in 8 bits")
    packed = (kind << 56) | (level << 48) | (replicate << 32) | sample
    return np.array([master_seed, packed], dtype=np.uint64)


def path_stream(master_seed: int, level: int, replicate: int, sample: int,
                kind: int = KIND_PATH) -> np.random.Generator:
    """Generator positioned deterministically by its stream coordinates."""
    return np.random.Generator(
        np.random.Philox(key=stream_key(master_seed, kind, level, replicate, sample))
    )


def kl_modes(level: LevelGeometry, rule: int | None = None) -> int:
    """Truncation level J for a mesh level: dofs by default, or a fixed J."""
    if rule is None:
        return max(level.dofs, 1)
    if rule < 1:
        raise UsageError("mode truncation must be at least 1")
    return rule


@dataclass(frozen=True)
class ProjectionMatrix:
    """Inner products (e_j, phi_i) of eigenfunctions against hat functions."""

    level: LevelGeometry
    matrix: np.ndarray  # shape (modes, dofs)

    @property
    def modes(self) -> int:
        return self.matrix.shape[0]


def load_amplitudes(level: LevelGeometry, modes: int) -> np.ndarray:
    """Amplitudes a_j, j = 1..modes, of the load rows: (e_j, phi_i) = a_j sin(j*pi*x_i),
    with a_j = sqrt(2) * 4 sin(j*pi*h/2)^2 / (j^2 pi^2 h)."""
    h = level.mesh_width
    j = np.arange(1, modes + 1, dtype=np.float64)
    return np.sqrt(2.0) * 4.0 * np.sin(j * np.pi * h / 2.0) ** 2 / (j**2 * np.pi**2 * h)


def projection_matrix(level: LevelGeometry, modes: int) -> ProjectionMatrix:
    """Closed-form load projections.

    Entry (j, i) is the integral of phi_i against sqrt(2) sin(j*pi*x):
    sqrt(2) * 4 sin(j*pi*h/2)^2 / (j^2 pi^2 h) * sin(j*pi*x_i).
    """
    if modes < 1:
        raise UsageError("need at least one mode")
    if level.dofs < 1:
        raise UsageError("projection needs at least one interior node")
    j = np.arange(1, modes + 1, dtype=np.float64)
    phases = np.sin(np.outer(j * np.pi, level.nodes))
    return ProjectionMatrix(level, load_amplitudes(level, modes)[:, None] * phases)


@dataclass(frozen=True)
class KLBlock:
    """Gaussian increments dW_{j,k} ~ N(0, dt) for one sample path.

    Rows index the J expansion modes, columns the time steps of the level.
    """

    level: LevelGeometry
    increments: np.ndarray  # shape (modes, steps)

    def __post_init__(self):
        if self.increments.shape[1] != self.level.steps:
            raise UsageError("increment columns do not match the level's steps")

    @property
    def modes(self) -> int:
        return self.increments.shape[0]


def mode_std(modes: int, decay: float = 0.0, time_step: float = 1.0) -> np.ndarray:
    """Standard deviations sqrt(q_j * dt) with the power-law hook q_j = j**-decay.

    The default decay of zero is the white-noise instance q_j = 1.
    """
    if decay < 0.0:
        raise UsageError("spectral decay must be nonnegative")
    j = np.arange(1, modes + 1, dtype=np.float64)
    return np.sqrt(time_step) * j ** (-0.5 * decay)


def draw_increment_rows(stream: np.random.Generator, nsteps: int, modes: int,
                        time_step: float, decay: float = 0.0) -> np.ndarray:
    """Draw ``nsteps`` consecutive increment rows of shape (nsteps, modes).

    Consecutive calls on the same stream continue the same block, so slabbed
    generation reproduces a single full draw bit for bit.
    """
    rows = stream.standard_normal((nsteps, modes))
    if decay == 0.0:
        return rows * np.sqrt(time_step)
    return rows * mode_std(modes, decay, time_step)


def sample_kl_block(stream: np.random.Generator, level: LevelGeometry, modes: int,
                    decay: float = 0.0) -> KLBlock:
    """Sample the full increment block of a path at ``level``."""
    rows = draw_increment_rows(stream, level.steps, modes, level.time_step, decay)
    return KLBlock(level, np.ascontiguousarray(rows.T))


def coarsen_rows(rows: np.ndarray, modes: int) -> np.ndarray:
    """Sum groups of four consecutive step rows, truncated to ``modes`` columns.

    The additions run in ascending step order so the result is reproducible
    bit for bit.
    """
    r = rows[:, :modes]
    return ((r[0::4] + r[1::4]) + r[2::4]) + r[3::4]


def coarsen_block(fine: KLBlock, modes: int) -> KLBlock:
    """Exactly coupled increments of the next coarser level.

    Each coarse increment is the sum of the four fine increments it spans,
    restricted to the coarse truncation, so its law is N(0, dt_coarse).
    """
    if modes > fine.modes:
        raise UsageError(f"coarse truncation {modes} exceeds fine modes {fine.modes}")
    if fine.level.steps % 4 != 0:
        raise UsageError("fine step count must be divisible by 4")
    coarse_level = make_level(fine.level.level - 1)
    rows = np.ascontiguousarray(fine.increments.T)
    coarse_rows = coarsen_rows(rows, modes)
    return KLBlock(coarse_level, np.ascontiguousarray(coarse_rows.T))


def noise_load(block: KLBlock, step: int, proj: ProjectionMatrix) -> np.ndarray:
    """Load vector (dW_k, phi_i) for one time step."""
    if proj.level.level != block.level.level:
        raise UsageError("projection and block belong to different levels")
    if proj.modes != block.modes:
        raise UsageError("projection and block disagree on mode count")
    if not 0 <= step < block.level.steps:
        raise UsageError(f"step {step} out of range for {block.level.steps} steps")
    return block.increments[:, step] @ proj.matrix
