"""Karhunen-Loeve sampling of the driving Wiener increments.

The noise is white in space: the expansion runs over the Dirichlet
eigenbasis e_j(x) = sqrt(2) sin(j*pi*x) with unit mode variances, truncated
at J(l) modes. By default J(l) = 2**l - 1 matches the spatial resolution, so
the truncation is a function of the level alone and level differences
telescope without bias. Rows hold standard normals at every level, a coarse
row the halved sum of its four fine rows: c_j <- rho_j c_j + beta_j z_j, z_j a
standard normal; beta_j carries h, formed with the loads by ``fem.mode_factors``.

Streams are counter-based: each sample path owns a Philox generator keyed by
(master_seed, stream kind, level, replicate, sample index), so any path can
be regenerated on any worker with identical output, in slabs or in one draw
(its rows are drawn in step-major order).
"""

import numpy as np

from .errors import UsageError, as_index
from .grid import LevelGeometry

#: Stream kind of the path increments. Other consumers of a seed pass another
#: kind, which keeps their streams independent of the paths.
KIND_PATH = 1


def stream_key(master_seed: int, kind: int, level: int, replicate: int, sample: int) -> np.ndarray:
    """Pack stream coordinates, integers each, into a 128-bit Philox key."""
    master_seed, kind, level, replicate, sample = (
        as_index(v, "a stream coordinate") for v in (master_seed, kind, level, replicate, sample))
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
    rule = as_index(rule, "mode truncation")
    if rule < 1:
        raise UsageError("mode truncation must be at least 1")
    return rule


def draw_increment_rows(stream: np.random.Generator, nsteps: int, modes: int,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Draw ``nsteps`` consecutive rows of standard normals, shape (nsteps, modes).

    Consecutive calls on the same stream continue the same block, so slabbed
    generation reproduces a single full draw bit for bit. ``out``, a
    C-contiguous float64 array of that shape, receives the rows in place of a
    new array; the values are the same bits either way.
    """
    if out is None:
        out = np.empty((nsteps, modes))
    stream.standard_normal(out=out)
    return out


def coarsen_rows(rows: np.ndarray, modes: int) -> np.ndarray:
    """Halved sums of four consecutive step rows, truncated to ``modes`` columns.

    The additions run in ascending step order and halving is exact, so the result
    is reproducible bit for bit; they accumulate in the one output array.
    """
    r = rows[:, :modes]
    coarse = r[0::4] + r[1::4]
    coarse += r[2::4]
    coarse += r[3::4]
    coarse *= 0.5
    return coarse
