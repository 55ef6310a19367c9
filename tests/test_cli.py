import csv
import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import spde_mlmc
from spde_mlmc.cli import build_parser, main, make_config, parse_range

REPO = Path(__file__).resolve().parents[1]


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CONTRACT = _load_tool("contract_csvs")


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
    from spde_mlmc import cli, fem

    def no_level(_level):
        raise AssertionError("a level ran before the memory check")

    monkeypatch.setattr(cli, "run_deterministic", no_level)
    out = tmp_path / "d"
    assert main(["det-conv", "--levels", "1..40", "--seed", "1", "--out", str(out)]) == 2
    need = fem.DETERMINISTIC_BYTES_PER_DOF * (2**25 - 1)
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
    (["variance", "--levels", "16..16", "--pairs", "128", "--workers", "2"], 16),
    (["variance", "--levels", "3..3", "--pairs", "2", "--kl-modes", "100000000"], 3),
    (["variance", "--levels", "2..16", "--pairs", "192", "--workers", "3"], 15),
    (["run", "--L", "1..16", "--reps", "1", "--workers", "2"], 16),
    (["compare", "--L", "1..2", "--strong-L", "1..16", "--reps", "1", "--workers", "2"], 16),
    (["variance", "--levels", "2..16", "--pairs", "256", "--workers", "4"], 15),
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


def test_level_with_fewer_chunks_than_workers_admitted(tmp_path, monkeypatch):
    # two pairs are one chunk, which runs on one thread whatever --workers is:
    # level 16 is charged one chunk, which fits the cap
    from spde_mlmc import mlmc

    class Admitted(Exception):
        pass

    def sentinel(*_args):
        raise Admitted

    monkeypatch.setattr(mlmc, "_simulate_chunk", sentinel)
    with pytest.raises(Admitted):
        main(["variance", "--levels", "16..16", "--pairs", "2", "--workers", "2",
              "--seed", "1", "--out", str(tmp_path / "o")])


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
    (["run", "--functional", "squared_norm", "--L", "1..2"],
     "unknown functional 'squared_norm'"),
    (["run", "--eps", "nan", "--L", "1..3"], "eps must be finite"),
    (["run", "--eps", "inf", "--L", "1..3"], "eps must be finite"),
    (["run", "--eps", "1e308", "--L", "1..3"], "sample count of level 2"),
    (["run", "--eps", "1000", "--L", "1..3"], "sample count of level 3"),
    (["compare", "--eps", "nan", "--L", "1..2"], "eps must be finite"),
    (["run", "--mode", "general", "--L", "1..2", "--a-seq", "1,nan,0.25", "--eta", "1"],
     "finite, positive and nonincreasing"),
    (["run", "--mode", "general", "--L", "1..2", "--a-seq", "1,1e-200,1e-300", "--eta", "1"],
     "sample count of level 0"),
    (["run", "--L", "1..3", "--m", "67108865"], "m = 67108865 points"),
    (["run", "--mode", "weak", "--eta", "0.3", "--a-seq", "9", "--L", "1..2"],
     "--a-seq and --eta apply only with --mode general"),
    # a schedule's plan rejects a base level above its top, singlelevel too,
    # and one below 1 however far below
    (["compare", "--L", "2..3", "--strong-L", "1..5", "--lmin", "2"],
     "error: the base level 2 exceeds the top level 1\n"),
    (["run", "--L", "1..1", "--mode", "singlelevel", "--lmin", "3"],
     "error: the base level 3 exceeds the top level 1\n"),
    (["run", "--L", "1..1", "--lmin", "-5"], "the base level must be at least 1"),
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
    (["variance", "--levels", "2..17", "--pairs", "8"], "level 17 chunks"),
    (["variance", "--levels", "2..2", "--pairs", "320000", "--workers", "5000"],
     "workers must be at most"),
    # the two-pair rule comes first, before the plan's one-sample rule
    (["variance", "--levels", "2..3", "--pairs", "0"], "two pairs"),
    (["variance", "--levels", "2..3", "--pairs", "-3"], "two pairs"),
    # variance checks --gamma as run does, though it only records it
    (["variance", "--levels", "2..3", "--pairs", "8", "--gamma", "5"],
     "gamma must lie in (0, 1), got 5.0"),
    (["variance", "--levels", "2..3", "--pairs", "8", "--gamma", "nan"],
     "gamma must lie in (0, 1), got nan"),
    (["variance", "--levels", "2..3", "--pairs", "8", "--gamma", "-1"],
     "gamma must lie in (0, 1), got -1.0"),
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


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("argv", [
    ["det-conv", "--levels", "2..3"],
    ["variance", "--levels", "2..3", "--pairs", "8"],
    ["run", "--L", "1..3"],
    ["compare", "--L", "1..2"],
], ids=lambda argv: argv[0])
def test_out_that_cannot_be_a_directory_rejected_before_any_work(tmp_path, monkeypatch,
                                                                 capsys, argv, under):
    from spde_mlmc import cli, mlmc

    def no_work(*_args):
        raise AssertionError("work ran before --out was checked")

    monkeypatch.setattr(mlmc, "_simulate_chunk", no_work)
    monkeypatch.setattr(cli, "run_deterministic", no_work)
    blocker = tmp_path / "file"
    blocker.write_bytes(b"kept")
    out = blocker / "o" if under else blocker
    assert main(argv + ["--seed", "1", "--out", str(out)]) == 2
    assert f"{blocker} is not a directory" in capsys.readouterr().err
    assert blocker.read_bytes() == b"kept"


@pytest.mark.parametrize("name", ["a" * 300, "missing/" + "a" * 300, ""],
                         ids=["long", "long-under-missing", "empty"])
def test_out_with_a_long_or_empty_name_rejected_before_any_work(tmp_path, monkeypatch,
                                                                 capsys, name):
    # a name beyond the file system's limit is a usage error, not an OSError
    # traceback; an empty one would be the working directory
    from spde_mlmc import cli

    def no_work(*_args):
        raise AssertionError("work ran before --out was checked")

    monkeypatch.setattr(cli, "run_deterministic", no_work)
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path / name) if name else name
    assert main(["det-conv", "--levels", "1..2", "--seed", "1", "--out", out]) == 2
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_variance_zero_noise(tmp_path):
    out = tmp_path / "v"
    assert main(["variance", "--levels", "2..3", "--pairs", "8", "--seed", "3",
                 "--out", str(out), "--zero-noise"]) == 0
    _, rows = read_rows(out / "variance.csv")
    assert [r[0] for r in rows] == ["2", "3"]  # no slope row for zero variances
    # identical samples leave a one-pass variance within rounding, written as 0
    assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)


def test_variance_zero_noise_cells_are_exact_zeros(tmp_path):
    # the one-pass form left residue of up to 4e-24 in some of these cells
    # (level 3's difference read 4.26e-24); every cell is now 0
    out = tmp_path / "v"
    assert main(["variance", "--levels", "2..6", "--pairs", "200", "--seed", "7",
                 "--out", str(out), "--zero-noise"]) == 0
    _, rows = read_rows(out / "variance.csv")
    assert [r[0] for r in rows] == ["2", "3", "4", "5", "6"]
    assert [float(cell) for r in rows for cell in r[1:]] == [0.0] * 10


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
    _, timings = read_rows(a / "timings.csv")
    assert [r[0] for r in timings] == ["variance level=2", "variance level=3"]
    assert all(float(r[1]) >= 0.0 for r in timings)


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


def test_repeated_mode_rejected(tmp_path, capsys):
    # a repeated mode would run its study twice and write its rows twice
    out = tmp_path / "r"
    assert main(["run", "--mode", "weak,strong,weak", "--L", "1..2", "--reps", "1",
                 "--seed", "1", "--out", str(out)]) == 2
    assert "--mode names 'weak' more than once" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command,required", [
    ("det-conv", "levels"), ("variance", "levels"), ("run", "L"), ("compare", "L"),
])
def test_options_default_to_their_declaration(tmp_path, command, required):
    # a config from the required flags alone holds the command, the modes and
    # every other option of any subcommand, each at its _OPTIONS default
    from spde_mlmc import cli

    out = tmp_path / "o"
    cfg = cli.make_config(cli.build_parser().parse_args(
        [command, "--" + required, "2..3", "--seed", "4", "--out", str(out)]))
    names = set(cli._OPTIONS) - {"config", "mode"}
    assert set(vars(cfg)) == {"command", "modes"} | names
    expected = {name: cli._OPTIONS[name][1] for name in names}
    expected.update(command=command, modes=cli._OPTIONS["mode"][1], seed=4, out=out)
    expected[required] = (2, 3)
    if command == "compare":
        expected.update(modes=("strong", "weak"), strong_L=(2, 3))
    assert vars(cfg) == expected


@pytest.mark.parametrize("argv,written", [
    (["det-conv", "--levels", "1..2"], ["det_conv.csv"]),
    (["variance", "--levels", "2..2", "--pairs", "4"], ["timings.csv", "variance.csv"]),
    (["run", "--L", "1..1", "--reps", "1"],
     ["plot_run.gp", "run_levels.csv", "run_replicates.csv", "run_summary.csv", "timings.csv"]),
    (["compare", "--L", "1..1", "--reps", "1"],
     ["compare.csv", "compare_levels.csv", "compare_matched.csv", "timings.csv"]),
], ids=["det-conv", "variance", "run", "compare"])
def test_missing_nested_out_is_created(tmp_path, argv, written):
    out = tmp_path / "a" / "b"
    assert main(argv + ["--seed", "1", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == written


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
    ("not-utf8", "cfg.txt"),
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
    elif case == "not-utf8":
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"seed=\xff\xfe1\n")
        argv = ["det-conv", "--levels", "1..2", "--out", out, "--config", str(cfg)]
    else:
        argv = ["run", "--mode", "general", "--L", "1..2", "--reps", "1", "--seed", "1",
                "--a-seq", "1,x,0.5", "--eta", "0.5", "--out", out]
    assert main(argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("name", list(CONTRACT.STUDIES))
def test_contract_studies_parse(tmp_path, name):
    # tools/contract_csvs.py runs these studies to show that a refactor keeps
    # every contract byte; an option it renames must fail here, in the tests,
    # not first when the tool runs. Parsing runs no chunk.
    command = CONTRACT.STUDIES[name].split()[0]
    for workers in (1, 2):
        argv = CONTRACT.study_argv(name, workers)
        assert argv[:2] == ["-m", "spde_mlmc.cli"]
        cfg = make_config(build_parser().parse_args(argv[2:] + [str(tmp_path / name)]))
        assert (cfg.command, cfg.seed, cfg.workers) == (
            command, CONTRACT.SEED, 1 if command == "det-conv" else workers)


def test_contract_comparison_names_differing_and_missing_files(tmp_path):
    # differing() decides the tool's exit 1: every file but timings.csv that
    # one side lacks or whose bytes differ
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        side.mkdir()
        (side / "same.csv").write_bytes(b"1,2\n")
        (side / "timings.csv").write_bytes(side.name.encode())
    (a / "changed.csv").write_bytes(b"0.1\n")
    (b / "changed.csv").write_bytes(b"0.2\n")
    (a / "only_in_a.csv").write_bytes(b"x\n")
    assert sorted(CONTRACT.differing(a, b)) == ["changed.csv", "only_in_a.csv"]
    assert sorted(CONTRACT.differing(b, a)) == ["changed.csv", "only_in_a.csv"]
    (b / "only_in_a.csv").write_bytes(b"x\n")
    (b / "changed.csv").write_bytes(b"0.1\n")
    assert CONTRACT.differing(a, b) == []


def test_contract_tool_runs_its_studies_with_another_package(tmp_path, monkeypatch, capsys):
    # --src DIR runs this checkout's studies with DIR's package, so a study the
    # other checkout's tool lacks is compared too; DIR must hold the package
    calls = []

    def run_study(args, out, src=CONTRACT.SRC):
        out.mkdir(parents=True, exist_ok=True)
        calls.append((args[0], out, src))

    monkeypatch.setattr(CONTRACT, "run_study", run_study)
    other = tmp_path / "other" / "src"
    (other / "spde_mlmc").mkdir(parents=True)
    (other / "spde_mlmc" / "__init__.py").write_text("")
    assert CONTRACT.main([str(tmp_path / "out"), "--src", str(other)]) == 0
    assert len(calls) == 2 * (len(CONTRACT.STUDIES) + 2)
    assert {src for *_, src in calls} == {other}
    assert calls[0][1] == tmp_path / "out" / next(iter(CONTRACT.STUDIES)) / "w1"
    # the library studies of the drift and chunk engines run last, at 1 and 2 workers
    assert calls[-4:] == [("-c", tmp_path / "out" / name / f"w{w}", other)
                          for name in ("drift", "chunks") for w in (1, 2)]
    calls.clear()
    assert CONTRACT.main([str(tmp_path / "out")]) == 0
    assert {src for *_, src in calls} == {CONTRACT.SRC}
    calls.clear()
    for argv in ([str(tmp_path / "out"), "--src", str(tmp_path / "other")],
                 [str(tmp_path / "out"), "--src"], [str(tmp_path / "out"), "--sr", str(other)],
                 []):
        assert CONTRACT.main(argv) == 2
    assert "holds no spde_mlmc/__init__.py" in capsys.readouterr().err
    assert calls == []


def test_contract_drift_study_is_identical_at_one_and_two_workers(tmp_path):
    # no CLI study passes a drift: the tool's library study runs the drift
    # engine, and its floats must not depend on the worker count
    outs = [tmp_path / f"w{workers}" for workers in (1, 2)]
    for workers, out in zip((1, 2), outs):
        CONTRACT.run_study(CONTRACT.study_argv("drift", workers), out)
    assert CONTRACT.differing(*outs) == []
    lines = (outs[0] / "drift.txt").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("estimate ") and len(lines) == 1 + 3 + 3 * (4 + 2 * 3 * 4)
    assert all(math.isfinite(float(word)) for line in lines for word in line.split()[-1:])


def test_contract_chunk_study_hashes_every_case_the_same_on_a_rerun(tmp_path):
    # the chunk study pins the engine's bits through sha256 digests of the
    # fine and coarse states; a base-level chunk has no coarse member
    outs = [tmp_path / f"w{workers}" for workers in (1, 2)]
    for workers, out in zip((1, 2), outs):
        CONTRACT.run_study(CONTRACT.study_argv("chunks", workers), out)
    assert CONTRACT.differing(*outs) == []
    lines = [line.split() for line in
             (outs[0] / "chunks.txt").read_text(encoding="utf-8").splitlines()]
    cases = 3 * 3 * (2 * 6 - 1 + 2 * 4 - 1)  # KL rules x widths x (level, base level)
    assert len(lines) == cases and len({tuple(line[:5]) for line in lines}) == cases
    for name, level, _kl, _width, lmin, fine, coarse in lines:
        assert len(fine) == 64 and (coarse == "-") == (level == lmin), (name, level, lmin)


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
root = tracer.open("cli.handler")
codes = [
    cli.main(["variance", "--levels", "2..3", "--pairs", "70", "--seed", "1",
              "--workers", "2", "--out", out + "/v"]),
    cli.main(["run", "--L", "1..2", "--reps", "1", "--seed", "1", "--out", out + "/r"]),
    cli.main(["compare", "--L", "1..2", "--strong-L", "1..3", "--reps", "1", "--seed", "1",
              "--out", out + "/c"]),
    cli.main(["variance", "--levels", "6..6", "--pairs", "2", "--seed", "1",
              "--out", out + "/v6"]),
]
tracer.close(root)
op_work = (benchstats.variance_op_work(range(2, 4), 70, 1)
           + benchstats.variance_op_work(range(6, 7), 2, 1)
           + benchstats.level_rows_op_work(workloads.read_csv(Path(out, "r", "run_levels.csv")), 1)
           + benchstats.level_rows_op_work(
               workloads.read_csv(Path(out, "c", "compare_levels.csv")), 1))
layers = tracing.layer_metrics(tracer.spans, tracer.dispatch_s, tracing.span_cost())
print(sum(span.items for span in tracer.spans if span.name == "fem.step"),
      sum(span.op_work for span in tracer.spans if span.name == "mlmc.chunk"),
      layers["fem.dof_steps"], layers["mlmc.chunk_op_work"], op_work)
print(codes, sorted({span.name for span in tracer.spans}))
"""


def test_benchmark_trace_hooks_record_spans(tmp_path):
    # the benchmark's trace mode rebinds module attributes of the package;
    # a refactor that stops calling them must fail here; level 6 steps four
    # slabs per path, as the benchmark's deepest levels step several
    src = Path(spde_mlmc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "perfbench"), str(src)]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts, last = proc.stdout.strip().splitlines()[-2:]
    assert last.startswith("[0, 0, 0, 0] ")
    for name in ("mlmc.task", "mlmc.chunk", "grid.prolong"):
        assert f"'{name}'" in last
    # the benchmark checks on traced runs that the increments the steps
    # receive, the chunks' op_work and the layer metrics of both add up to
    # the runs' op_work, dofs x steps per simulated path
    step_items, chunk_op_work, dof_steps, layer_op_work, op_work = map(int, counts.split())
    assert step_items == chunk_op_work == dof_steps == layer_op_work == op_work
