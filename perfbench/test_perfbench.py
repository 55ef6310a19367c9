"""Tests of the benchmark's own arithmetic and checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import benchstats  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spde_mlmc import build_schedule, pair_op_work, predict_work  # noqa: E402
from spde_mlmc.cli import main  # noqa: E402


def span(parent, start, end):
    return SimpleNamespace(parent=parent, start=start, end=end)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(None, 0.0, 10.0),   # root
        span(0, 1.0, 4.0),       # child of root
        span(1, 1.5, 2.5),       # grandchild: counts against span 1, not the root
        span(0, 5.0, 9.0),       # second child of root
        span(None, 20.0, 21.0),  # another root, e.g. adopted from a worker
    ]
    assert benchstats.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_self_times_of_a_tree_sum_to_its_root():
    spans = [span(None, 0.0, 7.0), span(0, 0.5, 3.0), span(1, 1.0, 2.0), span(0, 3.0, 6.5)]
    assert sum(benchstats.self_times(spans)) == pytest.approx(7.0)


def test_detach_and_adopt_reindex_worker_spans():
    parent = tracing.Tracer()
    root = parent.open("cli.handler", level=0)
    worker = tracing.Tracer()
    worker.open("before", level=0)       # state a forked worker inherits
    mark = len(worker.spans)
    task = worker.open("mlmc.task", level=4)
    worker.close(worker.open("mlmc.chunk", level=4))
    worker.close(task)
    spans = worker.detach(mark)
    assert [s.parent for s in spans] == [None, 0]
    assert len(worker.spans) == mark
    parent.adopt(spans)
    parent.close(root)
    assert [(s.name, s.parent, s.remote) for s in parent.spans] == [
        ("cli.handler", None, False), ("mlmc.task", None, True), ("mlmc.chunk", 1, True)]


def test_layer_metrics_account_for_chunk_time(monkeypatch):
    tracer = tracing.Tracer()
    stamps = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(stamps)))
    root = tracer.open("cli.handler")                        # t=0
    chunk = tracer.open("mlmc.chunk", level=3, items=64,     # t=1
                        op_work=64 * benchstats.pair_op_work(3, 1))
    tracer.close(tracer.open("noise.draw", items=500))       # 2..3
    tracer.close(tracer.open("fem.step", items=7 * 64))      # 4..5
    tracer.close(tracer.open("fem.step", items=7 * 64))      # 6..7
    tracer.close(chunk)                                      # t=8
    tracer.close(root)                                       # t=9
    monkeypatch.undo()
    m = tracing.layer_metrics(tracer.spans)
    assert m["mlmc.chunk_s"] == 7.0
    assert m["noise.draw_s"] + m["fem.step_s"] + m["mlmc.chunk_self_s"] == m["mlmc.chunk_s"]
    assert m["mlmc.chunk_self_s"] == 4.0 and m["cli.self_s"] == 2.0
    assert m["fem.steps"] == 2 and m["fem.dof_steps"] == 2 * 7 * 64
    assert m["fem.step_s.L3"] == 2.0 and m["fem.step_s.L4"] == 0.0
    assert m["mlmc.chunk_fill"] == 1.0 and m["mlmc.pool_s"] == 0.0
    assert m["mlmc.ns_per_pair_dof_step.L3"] == pytest.approx(
        7e9 / (64 * benchstats.pair_op_work(3, 1)))


def test_inline_dispatch_is_level_wall_less_task_spans(monkeypatch):
    tracer = tracing.Tracer()
    stamps = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(stamps)))
    task = tracing._wrap(tracer, "mlmc.task", lambda args: None)

    def estimate(workers=1):
        task(None)                                                   # 1..2
        task(None)                                                   # 3..4
        return SimpleNamespace(level_stats=[SimpleNamespace(wall_seconds=2.5),
                                            SimpleNamespace(wall_seconds=1.5)])

    tracing._wrap_estimate(tracer, estimate)(workers=1)              # 0..5
    tracing._wrap_estimate(tracer, estimate)(workers=2)              # pool path: no dispatch
    monkeypatch.undo()
    assert tracer.dispatch_s == 4.0 - 2.0
    m = tracing.layer_metrics(tracer.spans, tracer.dispatch_s)
    assert m["mlmc.pool_s"] == 2.0
    assert m["mlmc.reduce_s"] == (5.0 - 2.0) * 2 - 2.0


def test_overhead_counts_worker_spans_once_per_worker():
    def make(name, parent, start, end, items=0, remote=False):
        made = tracing.Span(name, 3, parent, start, items, 0)
        made.end, made.remote = end, remote
        return made

    spans = [make("cli.handler", None, 0.0, 9.0), make("mlmc.pool", 0, 1.0, 8.0, items=2)]
    spans += [make("mlmc.task", None, 1.0, 4.0, items=64, remote=True) for _ in range(4)]
    m = tracing.layer_metrics(spans, span_cost_s=0.5)
    assert m["trace.overhead_s"] == 0.5 * (2 + 4 / 2)
    assert m["mlmc.pool_s"] == 7.0 - 12.0 / 2


def test_span_cost_is_a_positive_time_per_call():
    cost = tracing.span_cost(calls=1000, batches=3)
    assert 0.0 < cost < 1e-3


def test_result_line_keeps_levels_every_workload_has():
    assert tracing.in_result("mlmc.pool_s") and tracing.in_result("fem.step_s.L3")
    assert not tracing.in_result("fem.step_s.L7") and not tracing.in_result("mlmc.chunks.L1")


def test_end_to_end_metrics_weigh_every_measured_second():
    def invocation(wall, op_work, trace=False, reference=False):
        return {"wall_s": wall, "op_work": op_work, "peak_rss_mib": 100.0, "problems": [],
                "trace": trace, "reference": reference}

    measured = {"setups": [0.3, 0.5, 0.4], "invocations": [
        invocation(10.0, 2e8), invocation(14.0, 2e8), invocation(5.0, 2e8),
        invocation(30.0, 1e6, trace=True), invocation(99.0, 1e6, reference=True)]}
    m = run.e2e_metrics(measured)
    assert m["wall_s"] == pytest.approx(29.0 / 3)
    assert m["op_work_rate"] == pytest.approx(600.0 / 29.0)
    assert m["setup_s"] == 0.4 and m["peak_rss_mib"] == 100.0


@pytest.mark.parametrize("level", range(1, 11))
def test_pair_op_work_matches_library(level):
    for lmin in range(1, level + 1):
        assert benchstats.pair_op_work(level, lmin) == pair_op_work(level, lmin)


def test_run_numerator_against_library_model():
    workload = workloads.WORKLOADS["run-shallow"]
    rows, predicted = [], 0.0
    for mode, lo, hi in workload.ranges:
        for top in range(lo, hi + 1):
            schedule = build_schedule(mode, top, gamma=workloads.GAMMA, eps=workloads.EPS)
            for level in range(1, top + 1):
                n = schedule.count_for(level, 1)
                rows.append({"op_work": str(n * pair_op_work(level, 1))})
            predicted += sum(predict_work(schedule).per_level[1:])
    numerator = benchstats.level_rows_op_work(rows, workload.reps)
    assert numerator == 107_736_024  # the figure the workload was specified with
    # dofs*steps per pair lies below the model's h**-3 per sample by at most
    # the missing boundary node, plus the coarse path's eighth.
    assert 0.5 < numerator / (workload.reps * predicted) <= 1.125


def test_variance_numerator_against_library_model():
    workload = workloads.WORKLOADS["variance-pool"]
    expected = workload.pairs * sum(pair_op_work(level, 1) for level in workload.levels)
    assert benchstats.variance_op_work(workload.levels, workload.pairs, 1) == expected


@pytest.mark.parametrize("n, pct, beyond", [
    (19, None, None),     # even the median has only 9 samples beyond it
    (20, 50.0, 10),
    (40, 75.0, 10),       # variance-pool chunks
    (43, 75.0, 10),       # compare-deep chunks
    (354, 95.0, 17),      # run-shallow chunks
    (1000, 99.0, 10),
    (10000, 99.9, 10),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct, beyond):
    samples = list(range(n, 0, -1))
    got = benchstats.tail_percentile(samples)
    if pct is None:
        assert got is None
        return
    assert got[0] == pct and got[2] == beyond
    assert sum(1 for s in samples if s > got[1]) == beyond


def test_output_check_catches_a_wrong_op_work(tmp_path):
    workload = workloads.Workload(
        "tiny-run", ("run", "--mode", "weak", "--L", "1..2", "--reps", "2"),
        ranges=(("weak", 1, 2),), reps=2)
    out = tmp_path / "out"
    assert main([*workload.cli_args(5), "--out", str(out)]) == 0
    before = workloads.check_output(workload, out, 5)
    assert not [p for p in before if "op_work" in p]
    levels = out / "run_levels.csv"
    text = levels.read_text(encoding="utf-8").splitlines()
    cols = text[-1].split(",")
    cols[4] = str(int(cols[4]) + 1)
    levels.write_text("\n".join(text[:-1] + [",".join(cols)]) + "\n", encoding="utf-8")
    after = workloads.check_output(workload, out, 5)
    assert [p for p in after if p not in before and "op_work" in p]


def test_pinned_values_are_checked_at_their_seed_only(tmp_path, monkeypatch):
    workload = workloads.Workload(
        "tiny-run", ("run", "--mode", "weak", "--L", "1..2", "--reps", "2"),
        ranges=(("weak", 1, 2),), reps=2)
    out = tmp_path / "out"
    assert main([*workload.cli_args(5), "--out", str(out)]) == 0
    values = workloads.reference_values(workload, out)
    drifted = {k: v * (1 + 1e-12) for k, v in values.items()}
    monkeypatch.setattr(workloads, "load_reference", lambda: {"5": {"tiny-run": drifted}})
    assert not [p for p in workloads.check_output(workload, out, 5) if "reference" in p]
    wrong = {k: v * (1 + 1e-8) for k, v in values.items()}
    monkeypatch.setattr(workloads, "load_reference", lambda: {"5": {"tiny-run": wrong}})
    assert len([p for p in workloads.check_output(workload, out, 5) if "reference" in p]) == 2
    assert not [p for p in workloads.check_output(workload, out, 6) if "reference" in p]


def test_reference_pins_every_workload_at_seeds_1_to_10():
    reference = workloads.load_reference()
    assert sorted(reference, key=int) == [str(seed) for seed in range(1, 11)]
    for seed in reference.values():
        assert set(seed) == set(workloads.WORKLOADS)
        assert all(len(values) == 10 for values in seed.values())
