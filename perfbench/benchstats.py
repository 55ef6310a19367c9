"""Arithmetic of the benchmark: span self times, the tail-percentile rule,
the op_work model and the per-level cost fit.

Nothing here imports spde_mlmc, so the rules can be tested on their own and
checked against the library's work model from the tests.
"""

import math
import statistics

#: Paths per chunk in the library (spde_mlmc.mlmc.CHUNK_SIZE); the benchmark
#: keeps its own copy so that chunk fill is measured, not assumed.
CHUNK_PATHS = 64

#: Percentiles tried for a tail latency, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def path_op_work(level: int) -> int:
    """dofs x steps of one path at ``level``: (2**l - 1) * 4**l."""
    return (2**level - 1) * 4**level


def pair_op_work(level: int, lmin: int) -> int:
    """Work of one coupled sample: the fine path plus, above the base level,
    the coarse path one level down."""
    work = path_op_work(level)
    if level > lmin:
        work += path_op_work(level - 1)
    return work


def level_rows_op_work(rows, reps: int) -> int:
    """op_work of a run or compare invocation from its level CSV rows.

    The level CSV lists each (mode, L, level) once, for the first replicate;
    every replicate repeats the same schedule, so the work done is ``reps``
    times the column sum.
    """
    return reps * sum(int(row["op_work"]) for row in rows)


def variance_op_work(levels, pairs: int, lmin: int) -> int:
    """op_work of a variance invocation: ``pairs`` coupled samples per level."""
    return pairs * sum(pair_op_work(level, lmin) for level in levels)


def self_times(spans) -> list:
    """Self time of each span: its duration minus that of its direct children.

    ``spans`` is a sequence of objects with ``parent`` (index or None),
    ``start`` and ``end``. Spans of one process nest, so the direct children
    of a span cover disjoint parts of its interval.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


def tail_percentile(samples, ladder=PERCENTILE_LADDER, min_beyond=MIN_BEYOND):
    """Highest ladder percentile with at least ``min_beyond`` samples above it.

    Returns (percentile, value, samples beyond it), or None when even the
    median has fewer than ``min_beyond`` samples beyond it.
    """
    values = sorted(samples)
    n = len(values)
    for pct in ladder:
        rank = max(1, math.ceil(n * pct / 100.0))
        if n - rank >= min_beyond:
            return pct, values[rank - 1], n - rank
    return None


def log2_slope(points) -> float:
    """Least-squares slope of log2(y) against x over (x, y) pairs."""
    xs = [float(x) for x, _ in points]
    ys = [math.log2(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
