import csv
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import spde_mlmc
from spde_mlmc.cli import main, parse_range

REPO = Path(__file__).resolve().parents[1]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def test_parse_range():
    assert parse_range("3..7") == (3, 7)
    assert parse_range("4") == (4, 4)
    for bad in ("0..3", "5..2", "x", "1..y"):
        with pytest.raises(Exception):
            parse_range(bad)


def test_seed_is_mandatory(tmp_path):
    assert main(["det-conv", "--levels", "3..4", "--out", str(tmp_path)]) == 2


def test_unknown_flag_is_usage_error(tmp_path):
    assert main(["det-conv", "--levels", "3..4", "--seed", "1",
                 "--out", str(tmp_path), "--bogus", "2"]) == 2


def test_det_conv_output(tmp_path):
    out = tmp_path / "d"
    assert main(["det-conv", "--levels", "3..5", "--seed", "1", "--out", str(out)]) == 0
    header, rows = read_rows(out / "det_conv.csv")
    assert header == ["level", "h", "dt", "l2_error"]
    assert [r[0] for r in rows] == ["3", "4", "5", "slope"]
    slope = float(rows[-1][3])
    assert -2.3 <= slope <= -1.6


def test_det_conv_single_level_has_no_slope_row(tmp_path):
    out = tmp_path / "d"
    assert main(["det-conv", "--levels", "4", "--seed", "1", "--out", str(out)]) == 0
    _, rows = read_rows(out / "det_conv.csv")
    assert [r[0] for r in rows] == ["4"]


def test_det_conv_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["det-conv", "--levels", "3..5", "--seed", "9",
                     "--out", str(out)]) == 0
    assert (a / "det_conv.csv").read_bytes() == (b / "det_conv.csv").read_bytes()


def test_det_conv_levels_over_memory_cap_rejected_up_front(tmp_path, monkeypatch, capsys):
    from spde_mlmc import cli

    def no_level(_level):
        raise AssertionError("a level ran before the memory check")

    monkeypatch.setattr(cli, "run_deterministic", no_level)
    out = tmp_path / "d"
    assert main(["det-conv", "--levels", "1..40", "--seed", "1", "--out", str(out)]) == 2
    need = cli.DET_CONV_BYTES_PER_DOF * (2**25 - 1)
    assert f"level 25 needs about {need} bytes" in capsys.readouterr().err
    assert not out.exists()


def test_det_conv_holds_no_memory_after_the_run(tmp_path):
    # each level's arrays are freed once its error is written down
    tracemalloc.start()
    try:
        assert main(["det-conv", "--levels", "1..18", "--seed", "1",
                     "--out", str(tmp_path / "d")]) == 0
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2**20


@pytest.mark.parametrize("argv,level", [
    (["variance", "--levels", "16..16", "--pairs", "2", "--workers", "2"], 16),
    (["variance", "--levels", "3..3", "--pairs", "2", "--kl-modes", "100000000"], 3),
    (["variance", "--levels", "2..16", "--pairs", "2", "--workers", "3"], 15),
    (["run", "--L", "1..16", "--reps", "1", "--workers", "2"], 16),
    (["compare", "--L", "1..2", "--strong-L", "1..16", "--reps", "1", "--workers", "2"], 16),
    (["variance", "--levels", "2..16", "--pairs", "2", "--workers", "4"], 15),
    (["variance", "--levels", "2..17", "--pairs", "2"], 17),
    (["run", "--L", "1..17", "--reps", "1"], 17),
    (["compare", "--L", "1..2", "--strong-L", "1..17", "--reps", "1"], 17),
])
def test_estimator_chunks_over_memory_cap_rejected_up_front(tmp_path, monkeypatch, capsys,
                                                            argv, level):
    from spde_mlmc import mlmc

    def no_simulation(*_args):
        raise AssertionError("a chunk ran before the memory check")

    monkeypatch.setattr(mlmc, "_simulate_chunk", no_simulation)
    assert main(argv + ["--seed", "1", "--out", str(tmp_path / "o")]) == 2
    assert f"level {level} chunks need about" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["run", "--L", "1..1"],
                                  ["compare", "--L", "1..1", "--strong-L", "1..2"]])
def test_reps_beyond_replicate_field_rejected_up_front(tmp_path, monkeypatch, capsys, argv):
    # the replicate index has 16 bits in the stream key: 65,536 replicates fit
    from spde_mlmc import mlmc

    def no_simulation(*_args):
        raise AssertionError("a chunk ran before the replicate check")

    monkeypatch.setattr(mlmc, "_simulate_chunk", no_simulation)
    tail = ["--seed", "1", "--out", str(tmp_path / "o")]
    assert main(argv + ["--reps", "65537"] + tail) == 2
    assert "replicate 65536" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    with pytest.raises(AssertionError, match="a chunk ran"):
        main(argv + ["--reps", "65536"] + tail)


@pytest.mark.parametrize("argv,named", [
    (["run", "--mode", "weak,bogus", "--L", "1..5"], "bogus"),
    (["run", "--mode", "weak,general", "--L", "1..5", "--a-seq", "1,0.5,0.25",
      "--eta", "1"], "4 entries"),
    (["run", "--mode", "weak,general", "--L", "1..3", "--a-seq", "1,0.5,0.25,0.5",
      "--eta", "1"], "nonincreasing"),
    (["run", "--mode", "strong,general", "--L", "1..3", "--a-seq", "1,0.5,0.25,0.125",
      "--eta", "2"], "eta"),
    (["compare", "--L", "2..3", "--strong-L", "1..5", "--lmin", "2"],
     "exceeds the top level"),
])
def test_study_plan_rejected_before_the_first_chunk(tmp_path, monkeypatch, capsys,
                                                    argv, named):
    # every schedule of a study is built and admitted before any path runs
    from spde_mlmc import mlmc

    def no_simulation(*_args):
        raise AssertionError("a chunk ran before the study was admitted")

    monkeypatch.setattr(mlmc, "_simulate_chunk", no_simulation)
    out = tmp_path / "o"
    assert main(argv + ["--reps", "3", "--seed", "1", "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,named", [
    (["variance", "--levels", "2..3", "--pairs", "8", "--workers", "0"], "workers"),
    (["variance", "--levels", "2..3", "--pairs", "8", "--lmin", "0"], "base level"),
    (["variance", "--levels", "2..3", "--pairs", "8", "--lmin", "3"],
     "pair level 2 below the base level 3"),
    (["variance", "--levels", "2..3", "--pairs", "1"], "two pairs"),
    (["run", "--L", "1..2", "--reps", "0"], "at least one replicate"),
    (["compare", "--L", "1..2", "--workers", "0"], "workers"),
    (["compare", "--L", "1..2", "--lmin", "0"], "base level"),
])
def test_library_checks_exit_2_before_the_first_chunk(tmp_path, monkeypatch, capsys,
                                                      argv, named):
    # the CLI leaves these checks to the library's admission functions
    from spde_mlmc import mlmc

    def no_simulation(*_args):
        raise AssertionError("a chunk ran before the input was admitted")

    monkeypatch.setattr(mlmc, "_simulate_chunk", no_simulation)
    out = tmp_path / "o"
    assert main(argv + ["--seed", "1", "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_variance_zero_noise(tmp_path):
    out = tmp_path / "v"
    assert main(["variance", "--levels", "2..3", "--pairs", "8", "--seed", "3",
                 "--out", str(out), "--zero-noise"]) == 0
    _, rows = read_rows(out / "variance.csv")
    assert [r[0] for r in rows] == ["2", "3"]  # no slope row for zero variances
    # identical samples leave only the cancellation residual of the
    # streaming sum-of-squares formula
    assert all(float(r[1]) <= 1e-18 and float(r[2]) <= 1e-18 for r in rows)


def test_variance_output_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["variance", "--levels", "2..3", "--pairs", "64", "--seed", "5",
                     "--out", str(out)]) == 0
    assert (a / "variance.csv").read_bytes() == (b / "variance.csv").read_bytes()
    header, rows = read_rows(a / "variance.csv")
    assert header == ["level", "var_difference", "var_level"]
    assert rows[-1][0] == "slope"
    assert all(float(r[1]) > 0.0 for r in rows[:-1])


def test_run_outputs(tmp_path):
    out = tmp_path / "r"
    assert main(["run", "--mode", "strong", "--L", "1..2", "--reps", "2",
                 "--seed", "11", "--out", str(out)]) == 0
    header, rows = read_rows(out / "run_summary.csv")
    assert header == ["mode", "L", "rms_error_agg", "op_work_total",
                      "replicates", "outside_theory"]
    assert [(r[0], r[1]) for r in rows] == [("strong", "1"), ("strong", "2")]
    assert all(r[5] == "0" for r in rows)
    _, reps = read_rows(out / "run_replicates.csv")
    assert len(reps) == 4
    _, levels = read_rows(out / "run_levels.csv")
    assert [(r[1], r[2]) for r in levels] == [("1", "1"), ("2", "1"), ("2", "2")]
    assert (out / "plot_run.gp").exists()
    _, timings = read_rows(out / "timings.csv")
    labels = [r[0] for r in timings]
    assert labels == [f"strong L={top} rep={rep}{suffix}"
                      for top in (1, 2) for rep in (0, 1)
                      for suffix in ("", *(f" level={l}" for l in range(1, top + 1)))]
    assert all(float(r[1]) >= 0.0 for r in timings)


def test_run_border_case_flagged(tmp_path):
    out = tmp_path / "r"
    assert main(["run", "--mode", "strong", "--L", "1..1", "--reps", "1",
                 "--eps", "0", "--seed", "11", "--out", str(out)]) == 0
    text = (out / "run_summary.csv").read_text(encoding="utf-8")
    assert "outside the theory" in text
    _, rows = read_rows(out / "run_summary.csv")
    assert rows[0][5] == "1"


def test_run_rerun_and_workers_are_byte_identical(tmp_path):
    outs = [tmp_path / n for n in ("a", "b", "c")]
    for out, workers in zip(outs, ("1", "1", "2")):
        assert main(["run", "--mode", "weak", "--L", "2..3", "--reps", "2",
                     "--seed", "21", "--workers", workers, "--out", str(out)]) == 0
    for name in ("run_summary.csv", "run_replicates.csv", "run_levels.csv"):
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref
        assert (outs[2] / name).read_bytes() == ref


def test_run_general_mode_requires_sequence(tmp_path):
    out = tmp_path / "g"
    assert main(["run", "--mode", "general", "--L", "1..2", "--reps", "1",
                 "--seed", "2", "--out", str(out)]) == 2
    assert main(["run", "--mode", "general", "--L", "1..2", "--reps", "1",
                 "--seed", "2", "--a-seq", "1,0.5,0.25", "--eta", "1.0",
                 "--out", str(out)]) == 0


def test_run_squared_norm_functional(tmp_path):
    out = tmp_path / "f"
    assert main(["run", "--mode", "strong", "--L", "1..1", "--reps", "2",
                 "--functional", "squared-norm", "--seed", "4",
                 "--out", str(out)]) == 0
    _, rows = read_rows(out / "run_replicates.csv")
    assert all(r[3] == "" and r[4] != "" for r in rows)
    _, summary = read_rows(out / "run_summary.csv")
    assert summary[0][2] == ""


def test_compare_small(tmp_path):
    out = tmp_path / "c"
    assert main(["compare", "--L", "1..2", "--strong-L", "1..4", "--reps", "3",
                 "--seed", "13", "--out", str(out)]) == 0
    header, rows = read_rows(out / "compare.csv")
    assert header[:4] == ["mode", "L", "rms_error_agg", "op_work_total"]
    assert len(rows) == 6  # strong 1..4 plus weak 1..2
    mheader, matched = read_rows(out / "compare_matched.csv")
    assert mheader == ["weak_L", "strong_L", "weak_rms", "strong_rms",
                       "weak_op_work", "strong_op_work", "work_ratio"]
    for r in matched:
        assert float(r[3]) <= float(r[2])  # strong partner at least as accurate


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("levels=3..4\nseed=77\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["det-conv", "--config", str(cfg), "--out", str(out)]) == 0
    # flags override the file
    out2 = tmp_path / "o2"
    assert main(["det-conv", "--config", str(cfg), "--levels", "3..3",
                 "--out", str(out2)]) == 0
    _, rows = read_rows(out2 / "det_conv.csv")
    assert [r[0] for r in rows] == ["3"]


@pytest.mark.parametrize("flags,text", [
    (["run", "--mode", "weak", "--L", "1..2", "--reps", "2", "--kl-modes", "3"],
     "mode=weak\nL=1..2\nreps=2\nkl-modes=3\n"),
    (["compare", "--L", "1..2", "--strong-L", "1..3", "--reps", "2"],
     "L=1..2\nstrong-L=1..3\nreps=2\n"),
])
def test_config_file_keys_are_flag_names(tmp_path, flags, text):
    # a key is its flag without the dashes, so each option has one name
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text, encoding="utf-8")
    by_flags, by_file = tmp_path / "flags", tmp_path / "file"
    assert main(flags + ["--seed", "5", "--out", str(by_flags)]) == 0
    assert main([flags[0], "--config", str(cfg), "--seed", "5", "--out", str(by_file)]) == 0
    names = sorted(p.name for p in by_flags.glob("*.csv") if p.name != "timings.csv")
    assert len(names) == 3
    for name in names:
        assert (by_file / name).read_bytes() == (by_flags / name).read_bytes()
    for old_key in ("l_range=1..2\n", "strong_l=1..3\n"):
        cfg.write_text(old_key, encoding="utf-8")
        assert main([flags[0], "--config", str(cfg), "--L", "1..1", "--seed", "5",
                     "--out", str(tmp_path / "old")]) == 2


_ALL_SET_CONFIG = "levels=2..3\npairs=8\ngamma=0.3\nzero-noise=yes\nworkers=2\nlmin=2\nkl-modes=3\n"


@pytest.mark.parametrize("argv,config_text,config_hash", [
    (["det-conv", "--levels", "1..2", "--seed", "1"], None, "32fdcc9edac38cff"),
    (["det-conv", "--levels", "2..3", "--seed", str(2**64 - 1)], None, "95d3a2c543a4c4a1"),
    (["variance", "--levels", "2..2", "--seed", "1"], None, "0b2f921ae158ca80"),
    (["variance", "--seed", "3"], _ALL_SET_CONFIG, "06df5be6b319e595"),
    (["run", "--L", "1..1", "--seed", "1"], None, "a168cdf2bf803cbc"),
    (["run", "--mode", "weak,general", "--L", "2..2", "--gamma", "0.4", "--eps", "0.5",
      "--reps", "2", "--functional", "squared-norm", "--m", "65", "--a-seq", "1,0.5,0.25",
      "--eta", "0.7", "--zero-noise", "--workers", "2", "--lmin", "2", "--kl-modes", "3",
      "--seed", "4"], None, "c51a6c3e2ea87d31"),
    (["compare", "--L", "1..1", "--seed", "1"], None, "34ccc49449abd924"),
    (["compare", "--L", "2..2", "--strong-L", "2..3", "--gamma", "0.4", "--eps", "0.5",
      "--reps", "2", "--m", "65", "--workers", "2", "--lmin", "2", "--kl-modes", "3",
      "--seed", "5"], None, "e99912f9b7563ac3"),
], ids=["det-conv", "det-conv-all", "variance", "variance-all-config", "run", "run-all",
        "compare", "compare-all"])
def test_config_hash_is_pinned(tmp_path, argv, config_text, config_hash):
    # each subcommand at its defaults and with every option set: a change to
    # how options are named, defaulted or converted shows here
    if config_text is not None:
        (tmp_path / "cfg.txt").write_text(config_text, encoding="utf-8")
        argv = argv + ["--config", str(tmp_path / "cfg.txt")]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 0
    csvs = [p for p in out.glob("*.csv") if p.name != "timings.csv"]
    assert csvs
    for path in csvs:
        assert f"# config_hash={config_hash}\n" in path.read_text(encoding="utf-8")


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("bogus=1\n", encoding="utf-8")
    assert main(["det-conv", "--config", str(cfg), "--levels", "3..3",
                 "--seed", "1", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("flag", ["--workers", "--lmin"])
def test_zero_workers_or_base_level_is_usage_error(tmp_path, flag):
    assert main(["variance", "--levels", "2..3", "--pairs", "8", "--seed", "1",
                 flag, "0", "--out", str(tmp_path / "v")]) == 2


@pytest.mark.parametrize("case,named", [
    ("missing-file", "missing.txt"),
    ("bad-value", "pairs"),
    ("bad-flag", "zero_noise"),
    ("bad-a-seq", "--a-seq"),
])
def test_bad_config_input_is_usage_error(tmp_path, capsys, case, named):
    out = str(tmp_path / "o")
    if case == "missing-file":
        argv = ["variance", "--levels", "2..3", "--seed", "1", "--out", out,
                "--config", str(tmp_path / "missing.txt")]
    elif case == "bad-value":
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("pairs=abc\n", encoding="utf-8")
        argv = ["variance", "--levels", "2..3", "--seed", "1", "--out", out,
                "--config", str(cfg)]
    elif case == "bad-flag":
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("zero_noise=ture\n", encoding="utf-8")
        argv = ["variance", "--levels", "2..3", "--pairs", "8", "--seed", "1", "--out", out,
                "--config", str(cfg)]
    else:
        argv = ["run", "--mode", "general", "--L", "1..2", "--reps", "1", "--seed", "1",
                "--a-seq", "1,x,0.5", "--eta", "0.5", "--out", out]
    assert main(argv) == 2
    assert named in capsys.readouterr().err


def test_variance_pool_is_byte_identical_to_inline(tmp_path):
    # 130 pairs: two full chunks of 64 and a partial one of 2
    outs = {w: tmp_path / f"w{w}" for w in ("1", "2")}
    for workers, out in outs.items():
        assert main(["variance", "--levels", "2..4", "--pairs", "130", "--seed", "6",
                     "--workers", workers, "--out", str(out)]) == 0
    assert (outs["2"] / "variance.csv").read_bytes() == (outs["1"] / "variance.csv").read_bytes()


_TRACED_RUN = """
import sys
from pathlib import Path
import benchstats, tracing, workloads
from spde_mlmc import cli
tracer = tracing.install(tracing.Tracer())
out = sys.argv[1]
codes = [
    cli.main(["variance", "--levels", "2..3", "--pairs", "70", "--seed", "1",
              "--workers", "2", "--out", out + "/v"]),
    cli.main(["run", "--L", "1..2", "--reps", "1", "--seed", "1", "--out", out + "/r"]),
]
run_levels = workloads.read_csv(Path(out, "r", "run_levels.csv"))
op_work = (benchstats.variance_op_work(range(2, 4), 70, 1)
           + benchstats.level_rows_op_work(run_levels, 1))
print(sum(span.items for span in tracer.spans if span.name == "fem.step"), op_work)
print(codes, sorted({span.name for span in tracer.spans}))
"""


def test_benchmark_trace_hooks_record_spans(tmp_path):
    # the benchmark's trace mode rebinds module attributes of the package;
    # a refactor that stops calling them must fail here
    src = Path(spde_mlmc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "perfbench"), str(src)]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts, last = proc.stdout.strip().splitlines()[-2:]
    assert last.startswith("[0, 0] ")
    for name in ("mlmc.task", "mlmc.chunk", "grid.prolong"):
        assert f"'{name}'" in last
    # the benchmark checks on traced runs that the increments the steps
    # receive add up to the run's op_work, dofs x steps per simulated path
    step_items, op_work = map(int, counts.split())
    assert step_items == op_work
