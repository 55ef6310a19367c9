"""Spans around the calls into each layer of spde_mlmc, for the traced run.

The program itself carries no tracing. ``install`` rebinds module attributes
of spde_mlmc to wrappers that record a span per call: the name of the layer,
the level, the enclosing span, start and end, and a work count. Spans stay in
memory; the caller turns them into metrics with ``layer_metrics`` at the end.

Process-pool tasks run in workers. The pool class the library uses is
replaced by one that runs each task through ``RemoteTask``, which records the
task's spans in the worker and returns them with the result; the parent
adopts them as roots of their own, because they ran beside its own spans and
cover none of its time.
"""

import functools
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import benchstats


class Span:
    __slots__ = ("name", "level", "parent", "start", "end", "items", "op_work", "remote")

    def __init__(self, name, level, parent, start, items, op_work):
        self.name = name
        self.level = level
        self.parent = parent
        self.start = start
        self.end = start
        self.items = items
        self.op_work = op_work
        self.remote = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        #: Level wall time of in-process estimator levels not covered by
        #: their task spans: the inline path's share of task dispatch.
        self.dispatch_s = 0.0

    def open(self, name, level=None, items=0, op_work=0) -> int:
        parent = self._stack[-1] if self._stack else None
        if level is None:
            level = self.spans[parent].level if parent is not None else 0
        index = len(self.spans)
        self.spans.append(Span(name, level, parent, time.perf_counter(), items, op_work))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def detach(self, mark: int) -> list:
        """Remove and return the spans recorded since ``mark``, re-indexed
        from zero; spans whose parent precedes ``mark`` become roots."""
        spans = self.spans[mark:]
        del self.spans[mark:]
        for span in spans:
            span.parent = None if span.parent is None or span.parent < mark else span.parent - mark
        return spans

    def adopt(self, spans) -> None:
        """Append spans recorded in another process, as remote roots."""
        offset = len(self.spans)
        for span in spans:
            if span.parent is not None:
                span.parent += offset
            span.remote = True
            self.spans.append(span)


def _wrap(tracer, name, fn, describe=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        level, items, op_work = describe(*args, **kwargs) if describe else (None, 1, 0)
        index = tracer.open(name, level, items, op_work)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return traced


def span_cost(calls=10_000, batches=5) -> float:
    """Seconds a span adds to one call: the median over batches of a traced
    no-op's time per call less a bare no-op's."""
    def noop(*_args):
        return None

    def per_call(fn):
        started = time.perf_counter()
        for _ in range(calls):
            fn(None)
        return (time.perf_counter() - started) / calls

    costs = []
    for _ in range(batches):
        traced = _wrap(Tracer(), "calibrate", noop, lambda *_a: (None, 1, 0))
        costs.append(per_call(traced) - per_call(noop))
    return statistics.median(costs)


def _wrap_estimate(tracer, fn):
    """Span around ``mlmc_estimate``; with one worker its tasks run inline,
    and the level walls the result reports, less the task spans, are the
    dispatch time that a pool would otherwise account for."""
    traced = _wrap(tracer, "mlmc.estimate", fn)

    @functools.wraps(fn)
    def estimate(*args, **kwargs):
        index = len(tracer.spans)
        result = traced(*args, **kwargs)
        if kwargs.get("workers", 1) == 1:
            busy = sum(s.duration for s in tracer.spans[index:]
                       if s.name == "mlmc.task" and s.parent == index)
            tracer.dispatch_s += sum(stat.wall_seconds for stat in result.level_stats) - busy
        return result
    return estimate


def _describe_step(_self, states, *_rest, **_kw):
    return None, states.size, 0


def _describe_draw(_stream, nsteps, modes, *_rest, **_kw):
    return None, nsteps * modes, 0


def _describe_chunk(pair_level, lmin, _start, count, *_rest, **_kw):
    return pair_level, count, count * benchstats.pair_op_work(pair_level, lmin)


def _describe_task(args):
    return args[0], args[3], 0


def _traced_pool(tracer):
    class TracedPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self.workers = max_workers or os.cpu_count()

        def map(self, fn, *iterables, **kwargs):
            index = tracer.open("mlmc.pool", items=self.workers)
            try:
                out = list(super().map(RemoteTask(fn.__name__), *iterables, **kwargs))
            finally:
                tracer.close(index)
            for _result, spans in out:
                tracer.adopt(spans)
            return iter([result for result, _spans in out])

        def shutdown(self, *args, **kwargs):
            index = tracer.open("mlmc.pool", items=self.workers)
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                tracer.close(index)

    return TracedPool


_ACTIVE = None


def install(tracer: Tracer) -> Tracer:
    """Rebind spde_mlmc's layer entry points to span-recording wrappers.

    Holds for the rest of the process; forked pool workers inherit it.
    """
    global _ACTIVE
    from spde_mlmc import cli, fem, mlmc

    points = (
        (fem.StepOperator, "step", "fem.step", _describe_step),
        (mlmc, "draw_increment_rows", "noise.draw", _describe_draw),
        (mlmc, "path_stream", "noise.stream", None),
        (mlmc, "coarsen_rows", "noise.coarsen", None),
        (mlmc, "_simulate_chunk", "mlmc.chunk", _describe_chunk),
        (mlmc, "_level_task", "mlmc.task", _describe_task),
        (mlmc, "_pair_moment_task", "mlmc.task", _describe_task),
        (mlmc, "prolong_values", "grid.prolong", None),
        (mlmc, "prolong_to", "grid.prolong", None),
        (cli, "pair_variances", "mlmc.estimate", None),
        (cli, "write_csv", "cli.write", None),
        (cli, "write_timings", "cli.write", None),
    )
    for owner, attr, name, describe in points:
        setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr), describe))
    cli.mlmc_estimate = _wrap_estimate(tracer, cli.mlmc_estimate)
    mlmc.ProcessPoolExecutor = _traced_pool(tracer)
    _ACTIVE = tracer
    return tracer


class RemoteTask:
    """Picklable pool task: runs the (traced) task function named ``name``
    in the worker and returns (result, spans the task recorded)."""

    def __init__(self, name: str):
        self.name = name

    def __call__(self, args):
        from spde_mlmc import mlmc

        tracer = _ACTIVE if _ACTIVE is not None else install(Tracer())
        mark = len(tracer.spans)
        result = getattr(mlmc, self.name)(args)
        return result, tracer.detach(mark)


#: Levels every workload simulates. Per-level metrics of other levels are
#: printed, but left out of the result line, where they would read 0 on
#: every run of some workload.
RESULT_LEVELS = (2, 3, 4, 5)


def in_result(name: str) -> bool:
    level = name.rpartition(".L")[2]
    return not level.isdigit() or int(level) in RESULT_LEVELS


def layer_metrics(spans, dispatch_s=0.0, span_cost_s=0.0, levels=range(1, 8)) -> dict:
    """Per-layer metrics of one traced invocation.

    ``spans`` must hold one root span named ``cli.handler`` around the
    subcommand handler; ``dispatch_s`` is the tracer's inline dispatch time
    and ``span_cost_s`` what one span adds to a call (``span_cost``).
    Times are in seconds unless the name says otherwise.
    """
    own = benchstats.self_times(spans)
    by_name = {}
    for span, self_s in zip(spans, own):
        by_name.setdefault(span.name, []).append((span, self_s))

    def group(name, level=None):
        return [(s, t) for s, t in by_name.get(name, ()) if level is None or s.level == level]

    def total(name, level=None, self_only=False):
        return sum((t if self_only else s.duration for s, t in group(name, level)), 0.0)

    def count(name, level=None, field="items"):
        return sum(getattr(s, field) for s, _ in group(name, level))

    m = {}
    step_s, dof_steps = total("fem.step"), count("fem.step")
    m["fem.step_s"] = step_s
    m["fem.steps"] = len(group("fem.step"))
    m["fem.dof_steps"] = dof_steps
    m["fem.ns_per_dof_step"] = 1e9 * step_s / dof_steps if dof_steps else 0.0
    draw_s, normals = total("noise.draw"), count("noise.draw")
    m["noise.draw_s"] = draw_s
    m["noise.normals"] = normals
    m["noise.ns_per_normal"] = 1e9 * draw_s / normals if normals else 0.0
    m["noise.stream_s"] = total("noise.stream")
    m["noise.streams"] = len(group("noise.stream"))
    m["noise.coarsen_s"] = total("noise.coarsen")

    chunks = group("mlmc.chunk")
    chunk_s = total("mlmc.chunk")
    m["mlmc.chunk_s"] = chunk_s
    m["mlmc.chunk_self_s"] = total("mlmc.chunk", self_only=True)
    m["mlmc.chunk_self_frac"] = m["mlmc.chunk_self_s"] / chunk_s if chunk_s else 0.0
    m["mlmc.chunks"] = len(chunks)
    m["mlmc.chunk_fill"] = (count("mlmc.chunk") / (benchstats.CHUNK_PATHS * len(chunks))
                            if chunks else 0.0)
    m["mlmc.chunk_op_work"] = count("mlmc.chunk", field="op_work")
    m["mlmc.task_self_s"] = total("mlmc.task", self_only=True)
    m["mlmc.reduce_s"] = total("mlmc.estimate", self_only=True) - dispatch_s

    pool = group("mlmc.pool")
    busy = sum(s.duration for s, _ in group("mlmc.task") if s.remote)
    workers = max((s.items for s, _ in pool), default=1)
    m["mlmc.pool_s"] = (total("mlmc.pool") - busy / workers if pool else 0.0) + dispatch_s
    m["grid.prolong_s"] = total("grid.prolong")
    m["cli.write_s"] = total("cli.write")
    m["cli.self_s"] = total("cli.handler", self_only=True)
    m["trace.wall_s"] = total("cli.handler")
    # Spans of pool tasks cost the workers' time, which the handler waits
    # for divided among them.
    remote = sum(1 for span in spans if span.remote)
    m["trace.overhead_s"] = span_cost_s * (len(spans) - remote + remote / workers)

    latencies = [s.duration for s, _ in chunks]
    tail = benchstats.tail_percentile(latencies) if latencies else None
    m["mlmc.chunk_p50_ms"] = 1e3 * statistics.median(latencies) if latencies else 0.0
    m["mlmc.chunk_tail_pct"] = tail[0] if tail else 0.0
    m["mlmc.chunk_tail_ms"] = 1e3 * tail[1] if tail else 0.0
    m["mlmc.chunk_samples"] = len(latencies)

    cost_points = []
    for level in levels:
        tag = f".L{level}"
        at = group("mlmc.chunk", level)
        level_s = total("mlmc.chunk", level)
        paths = count("mlmc.chunk", level)
        op_work = count("mlmc.chunk", level, field="op_work")
        m["mlmc.chunks" + tag] = len(at)
        m["mlmc.chunk_p50_ms" + tag] = (1e3 * statistics.median(s.duration for s, _ in at)
                                        if at else 0.0)
        m["mlmc.ns_per_pair_dof_step" + tag] = 1e9 * level_s / op_work if op_work else 0.0
        m["fem.step_s" + tag] = total("fem.step", level)
        m["noise.draw_s" + tag] = total("noise.draw", level)
        m["mlmc.chunk_self_s" + tag] = total("mlmc.chunk", level, self_only=True)
        if paths:
            cost_points.append((level, level_s / paths))
    m["mlmc.level_cost_exponent"] = (benchstats.log2_slope(cost_points)
                                     if len(cost_points) >= 2 else 0.0)
    return m
