"""Command line interface: experiment orchestration and CSV output.

Four subcommands cover the studies: ``det-conv`` (deterministic convergence),
``variance`` (level-difference variance decay), ``run`` (estimator error and
work per level for one or more schedules), and ``compare`` (strong versus
weak schedules at matched accuracy). ``run`` and ``compare`` share one study
path: it builds every schedule and admits the whole study, the (level, base,
samples) entries of every schedule's ``level_counts``, before the first chunk
runs; ``variance`` passes its whole level range to one ``mlmc.pair_variances``
call, which admits it the same way.

Each option is declared once, in its ``_OPTIONS`` row, default included:
``make_config`` fills a ``RunConfig`` from the rows' defaults and the parsed
values. ``run`` and ``compare`` share the level and summary CSV schemas,
``LEVEL_COLUMNS`` and ``SUMMARY_COLUMNS``; the CSV writers create ``--out``,
and each subcommand runs in its handler ``cmd_<name>`` ('_' for '-').
The CLI checks only what it alone knows: that ``--seed`` and ``--out`` are
given, the seed range, that ``--mode`` names at least one mode and none twice,
that ``--a-seq`` and ``--eta`` come only with ``general``, that each value is
nonempty and parses, that ``--out`` is or can be made a directory, and ``--m``
with its memory. The library's one admission function, ``mlmc.check_capacity``,
checks each entry's base level and pair level, workers (at most
``mlmc.MAX_WORKERS``), replicates, sample counts, chunk memory and stream keys;
``mlmc.pair_variances`` checks a variance study's two pairs and then admits
all its levels in one such call; ``mlmc.check_gamma`` checks ``--gamma`` (for
``variance``, which only records it, too), ``mlmc.build_schedule`` the other
schedule input, ``SampleSchedule.level_counts`` a base level above a
schedule's top, ``mlmc.mlmc_estimate`` the ``--functional`` name, which it
takes as given, and ``fem.check_deterministic`` each ``det-conv`` level's
memory, before the first chunk or level runs and before ``--out`` is created.

Every output CSV starts with ``#``-prefixed metadata lines recording the
artifact version, the config hash, and the seed. Given identical config and
seed, the contract CSVs are byte-identical across reruns and worker counts;
wall-clock measurements are machine-dependent and therefore go to a separate
``timings.csv`` that is excluded from that contract.
"""

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .errors import NumericalError, UsageError
from .fem import check_deterministic, mass_norm_sq, run_deterministic
from .grid import make_level
from .metrics import exact_mean, fit_slope, reference_points, rms_aggregate, rms_error
from .mlmc import build_schedule, check_capacity, check_gamma, mlmc_estimate, pair_variances

SCHEMA_VERSION = 1


def parse_range(text: str) -> tuple:
    """Parse an inclusive level range 'a..b' or a single level 'a'."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise UsageError(f"bad level range {text!r}, expected 'a..b'") from exc
    if lo < 1 or hi < lo:
        raise UsageError(f"bad level range {text!r}: need 1 <= a <= b")
    return lo, hi


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


class RunConfig(SimpleNamespace):
    """Validated configuration of one subcommand invocation: its ``command``
    and one attribute per option in ``_OPTIONS`` but ``config``, set by
    ``make_config`` (``--mode`` fills ``modes``)."""

    def config_hash(self) -> str:
        """Hash of every attribute that can change the numbers, keyed by its
        name: all but the output directory and the worker count, less those
        left None. A new option therefore changes every hash unless it
        defaults to None."""
        items = {k: v for k, v in vars(self).items()
                 if v is not None and k not in ("out", "workers")}
        items["modes"] = ",".join(self.modes)
        canon = ";".join(f"{k}={v}" for k, v in sorted(items.items()))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _write_lines(path: Path, notes, columns, rows):
    """Write a CSV of text cells under the version line and a ``#`` line per
    note, creating the directories of ``path``."""
    lines = [f"# spde-mlmc {__version__} schema={SCHEMA_VERSION}",
             *(f"# {note}" for note in notes), ",".join(columns),
             *(",".join(row) for row in rows)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_csv(path: Path, columns, rows, cfg: RunConfig, notes=()):
    _write_lines(path, (f"command={cfg.command}", f"config_hash={cfg.config_hash()}",
                        f"seed={cfg.seed}", *notes),
                 columns, ((_fmt(v) for v in row) for row in rows))


def write_timings(path: Path, rows):
    _write_lines(path, ("machine-dependent wall-clock seconds; excluded from the "
                        "determinism contract",),
                 ("label", "seconds"), ((label, f"{seconds:.6f}") for label, seconds in rows))


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path!r} is not UTF-8 text: {exc.reason}") from exc
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line {line!r}, expected key=value")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _flag_word(text: str) -> bool:
    """A flag: given on the command line ("yes"), or 1/true/yes or
    0/false/no, in any case, in a config file."""
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(text)
    return word in ("1", "true", "yes")


def _names(text: str) -> tuple:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


_ALL = "det-conv variance run compare"
_ESTIMATORS = "variance run compare"

#: The options: name -> (converter, default, subcommands, help). The name is
#: the option's only one: ``--name`` with '-' for '_' is its flag, and the name
#: is its argparse dest, config-file key, ``RunConfig`` attribute and hash key
#: (``mode`` fills the attribute ``modes``). The converter runs once, on the
#: flag text or the config-file text; the default is not converted.
_OPTIONS = {
    "levels": (parse_range, None, "det-conv variance",
               "level range a..b (variance: pair levels)"),
    "L": (parse_range, None, "run compare",
          "top-level range a..b (compare: the weak schedule's)"),
    "strong_L": (parse_range, None, "compare",
                 "top-level range for the strong schedule (default: --L)"),
    "mode": (_names, ("weak",), "run", "schedule mode(s), comma separated"),
    "pairs": (int, 1000, "variance", "coupled pairs per level"),
    "gamma": (float, 0.5, _ESTIMATORS, "rate parameter in (0,1) (variance: recorded only)"),
    "eps": (float, 1.0, "run compare", "schedule exponent offset (0 is outside the theory)"),
    "reps": (int, 10, "run compare", "independent replicates"),
    "functional": (str, "identity", "run", "identity or squared-norm"),
    "m": (int, 2**5 + 1, "run compare", "reference grid size 2**r+1 (raised to match L)"),
    "a_seq": (_floats, None, "run", "decay sequence a_0,a_1,... for general mode"),
    "eta": (float, None, "run", "variance order for general mode"),
    "zero_noise": (_flag_word, False, "variance run", "diagnostic: zero all increments"),
    "seed": (int, None, _ALL, "master seed (required; no entropy default)"),
    "out": (Path, None, _ALL, "output directory (required)"),
    "config": (str, None, _ALL, "key=value file; flags override it"),
    "workers": (int, 1, _ESTIMATORS, "worker threads (never changes results)"),
    "lmin": (int, 1, _ESTIMATORS, "base level of the hierarchy"),
    "kl_modes": (int, None, _ESTIMATORS, "fixed KL truncation (default: dofs per level)"),
}


def _options(command: str) -> list:
    return [name for name, (*_row, commands, _help) in _OPTIONS.items()
            if command in commands.split()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spde-mlmc",
        description="Multilevel Monte Carlo studies for the stochastic heat equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _ALL.split():
        p = sub.add_parser(command)
        for name in _options(command):
            conv, *_row, help_text = _OPTIONS[name]
            flag = "--" + name.replace("_", "-")
            if conv is _flag_word:
                p.add_argument(flag, dest=name, action="store_const", const="yes",
                               help=help_text)
            else:
                p.add_argument(flag, dest=name, help=help_text)
    return parser


def make_config(args: argparse.Namespace) -> RunConfig:
    """Resolve each option from its flag, else the config file, else its
    ``_OPTIONS`` default, and check what only the CLI can check. Options of
    other subcommands keep their defaults, which enter the config hash too."""
    command = args.command
    names = [name for name in _options(command) if name != "config"]
    file_texts = _load_config_file(args.config) if args.config else {}
    for key in file_texts:
        if key not in names:
            raise UsageError(f"unknown config key {key!r} for {command}")
    values = {name: row[1] for name, row in _OPTIONS.items() if name != "config"}
    for name in names:
        text, source = getattr(args, name), "--" + name.replace("_", "-")
        if text is None and name in file_texts:
            text, source = file_texts[name], f"config key {name!r}"
        if text is None:
            continue
        try:
            if not text:  # never valid; an empty --out would be the working directory
                raise ValueError(text)
            values[name] = _OPTIONS[name][0](text)
        except UsageError:
            raise
        except ValueError as exc:
            raise UsageError(f"bad value {text!r} for {source}") from exc
    for name in ("seed", "out", "levels" if "levels" in names else "L"):
        if values[name] is None:
            raise UsageError(f"--{name} is required")
    cfg = RunConfig(command=command, modes=values.pop("mode"), **values)
    if not 0 <= cfg.seed < 2**64:
        raise UsageError("seed must fit in 64 bits")
    if not cfg.modes:
        raise UsageError("--mode must name at least one schedule mode")
    for mode in cfg.modes:
        if cfg.modes.count(mode) > 1:
            raise UsageError(f"--mode names {mode!r} more than once")
    if "general" not in cfg.modes and (cfg.a_seq, cfg.eta) != (None, None):
        raise UsageError("--a-seq and --eta apply only with --mode general")
    try:  # the file system's errors, e.g. ENAMETOOLONG, are usage errors too
        existing = next(p for p in (cfg.out, *cfg.out.parents) if p.exists() or p.is_symlink())
        if not existing.is_dir():
            raise UsageError(f"--out {cfg.out}: {existing} is not a directory")
        name_max = os.pathconf(existing, "PC_NAME_MAX")
    except OSError as exc:
        raise UsageError(f"--out {cfg.out}: {exc.strerror}") from exc
    if any(len(os.fsencode(name)) > name_max for name in cfg.out.relative_to(existing).parts):
        raise UsageError(f"--out {cfg.out}: a directory name is longer than {name_max} bytes")
    reference_points(cfg.m)
    if command == "compare":
        cfg.modes = ("strong", "weak")
        cfg.strong_L = cfg.strong_L or cfg.L
    return cfg


def _eval_grid_size(cfg: RunConfig, top_level: int) -> int:
    """Reference grid size, raised so it never discards estimator resolution."""
    r = max(reference_points(cfg.m), top_level)
    return 2**r + 1


def cmd_det_conv(cfg: RunConfig) -> int:
    lo, hi = cfg.levels
    for l in range(lo, hi + 1):  # every level is admitted before the first runs
        check_deterministic(make_level(l))
    rows = []
    points = []
    for l in range(lo, hi + 1):
        level = make_level(l)
        approx = run_deterministic(level)
        exact = exact_mean(1.0, level)
        err = float(np.sqrt(mass_norm_sq(level, approx.values - exact.values)))
        rows.append((l, level.mesh_width, level.time_step, err))
        points.append((l, np.log2(err)))
    if len(points) >= 2:
        rows.append(("slope", None, None, fit_slope(points)))
    write_csv(cfg.out / "det_conv.csv", ("level", "h", "dt", "l2_error"), rows, cfg)
    return 0


def cmd_variance(cfg: RunConfig) -> int:
    check_gamma(cfg.gamma)  # only recorded here, but held to run's range
    stats = pair_variances(range(cfg.levels[0], cfg.levels[1] + 1), cfg.lmin, cfg.pairs,
                           cfg.seed, kl_rule=cfg.kl_modes, zero_noise=cfg.zero_noise,
                           workers=cfg.workers)
    rows = [(stat.level, stat.variance, stat.level_variance) for stat in stats]
    # zero-noise variances are exact zeros
    points = [(stat.level, np.log2(stat.variance)) for stat in stats if stat.variance > 0.0]
    if len(points) == len(rows) and len(points) >= 2:
        rows.append(("slope", fit_slope(points), None))
    write_csv(cfg.out / "variance.csv",
              ("level", "var_difference", "var_level"), rows, cfg,
              notes=(f"pairs={cfg.pairs}", "recommended: at least 100 pairs"))
    write_timings(cfg.out / "timings.csv",
                  [(f"variance level={stat.level}", stat.wall_seconds) for stat in stats])
    return 0


#: Columns of the level and summary rows of ``_study``, the CSV schemas that
#: ``run`` and ``compare`` share.
LEVEL_COLUMNS = ("mode", "L", "level", "samples", "op_work", "var_difference")
SUMMARY_COLUMNS = ("mode", "L", "rms_error_agg", "op_work_total", "replicates",
                   "outside_theory")


def _study(cfg: RunConfig, ranges):
    """Estimator runs of one schedule per mode and top level in ``ranges``,
    ((mode, lo, hi), ...), in that order. Every schedule is built and the
    whole study admitted before the first chunk runs.

    Returns (replicate_rows, level_rows, summary_rows, timing_rows).
    """
    schedules = [build_schedule(mode, top, gamma=cfg.gamma, eps=cfg.eps, eta=cfg.eta,
                                a=cfg.a_seq[: top + 1] if cfg.a_seq is not None else None)
                 for mode, lo, hi in ranges for top in range(lo, hi + 1)]
    plan = [entry for schedule in schedules for entry in schedule.level_counts(cfg.lmin)]
    check_capacity(plan, cfg.seed, cfg.reps, cfg.kl_modes, cfg.workers, cfg.zero_noise)
    rep_rows, level_rows, summary_rows, timing_rows = [], [], [], []
    for schedule in schedules:
        mode, top = schedule.mode, schedule.top_level
        errors = []
        for rep in range(cfg.reps):
            result = mlmc_estimate(
                schedule, cfg.lmin, functional=cfg.functional,
                master_seed=cfg.seed, replicate=rep, kl_rule=cfg.kl_modes,
                zero_noise=cfg.zero_noise, workers=cfg.workers,
            )
            label = f"{mode} L={top} rep={rep}"
            timing_rows.append((label, result.wall_seconds))
            timing_rows += [(f"{label} level={stat.level}", stat.wall_seconds)
                            for stat in result.level_stats]
            if cfg.functional == "identity":
                errors.append(rms_error(result.estimate, _eval_grid_size(cfg, top)))
                rep_rows.append((mode, top, rep, errors[-1], None))
            else:
                rep_rows.append((mode, top, rep, None, result.estimate))
            if rep == 0:
                total_work = result.total_op_work
                level_rows += [(mode, top, stat.level, stat.samples, stat.op_work, stat.variance)
                               for stat in result.level_stats]
        agg = rms_aggregate(errors) if errors else None
        outside = int(cfg.eps == 0.0 and mode != "singlelevel")
        summary_rows.append((mode, top, agg, total_work, cfg.reps, outside))
    return rep_rows, level_rows, summary_rows, timing_rows


_PLOT_SCRIPT = """\
# Companion gnuplot script: error and op-count work versus level.
# Usage: gnuplot plot_run.gp   (run inside the output directory)
set datafile separator ","
set key left bottom
set xlabel "level L"
set logscale y 2
set terminal pngcairo size 900,600

set output "error_vs_level.png"
set ylabel "aggregate RMS error"
plot for [m in "strong weak singlelevel general"] \\
    "run_summary.csv" using 2:(strcol(1) eq m ? column(3) : 1/0) \\
    with linespoints title m

set output "work_vs_level.png"
set ylabel "op-count work"
plot for [m in "strong weak singlelevel general"] \\
    "run_summary.csv" using 2:(strcol(1) eq m ? column(4) : 1/0) \\
    with linespoints title m
"""


def cmd_run(cfg: RunConfig) -> int:
    rep_rows, level_rows, summary_rows, timing_rows = _study(
        cfg, [(mode, *cfg.L) for mode in cfg.modes])
    notes = []
    if cfg.eps == 0.0:
        notes.append("warning: eps=0 is the border case outside the theory")
    write_csv(cfg.out / "run_replicates.csv",
              ("mode", "L", "replicate", "rms_error", "value"), rep_rows, cfg, notes)
    write_csv(cfg.out / "run_levels.csv", LEVEL_COLUMNS, level_rows, cfg, notes)
    write_csv(cfg.out / "run_summary.csv", SUMMARY_COLUMNS, summary_rows, cfg, notes)
    (cfg.out / "plot_run.gp").write_text(_PLOT_SCRIPT, encoding="utf-8")
    write_timings(cfg.out / "timings.csv", timing_rows)
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    _reps, level_rows, summary_rows, timing_rows = _study(
        cfg, (("strong", *cfg.strong_L), ("weak", *cfg.L)))
    strong = [row for row in summary_rows if row[0] == "strong"]
    matched_rows = []
    for _, weak_l, weak_rms, weak_work, *_ in (r for r in summary_rows if r[0] == "weak"):
        # the smallest strong top level at least as accurate as the weak one
        partner = next((row for row in strong if row[2] <= weak_rms), None)
        if partner is not None:
            _, strong_l, strong_rms, strong_work, *_ = partner
            matched_rows.append((weak_l, strong_l, weak_rms, strong_rms, weak_work,
                                 strong_work, strong_work / weak_work))
    write_csv(cfg.out / "compare.csv", SUMMARY_COLUMNS, summary_rows, cfg)
    write_csv(cfg.out / "compare_levels.csv", LEVEL_COLUMNS, level_rows, cfg)
    write_csv(cfg.out / "compare_matched.csv",
              ("weak_L", "strong_L", "weak_rms", "strong_rms", "weak_op_work",
               "strong_op_work", "work_ratio"), matched_rows, cfg,
              notes=("matched accuracy: smallest strong L whose aggregate RMS "
                     "is at most the weak one",))
    write_timings(cfg.out / "timings.csv", timing_rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = make_config(args)
        started = time.perf_counter()
        code = globals()["cmd_" + cfg.command.replace("-", "_")](cfg)
        print(f"{cfg.command}: wrote {cfg.out} "
              f"({time.perf_counter() - started:.1f}s)")
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
