"""The benchmark's workloads and the checks on their output.

Each workload is one spde-mlmc subcommand at a fixed configuration; only the
seed varies. Why each one exists is in README.md beside this file.

Every invocation's output is checked:

* every integer ``op_work`` equals samples x the dofs*steps geometry model,
  and the samples equal the schedule the configuration asks for;
* totals, aggregates, slope footers and matched pairs agree with the rows
  they are computed from;
* at the pinned seeds, the keys of ``reference.json``, ``rms_error_agg``
  and ``var_*`` equal the values the program produced there to a relative
  1e-9; at any other seed run and variance get the slope bands below
  instead, and compare is not value-checked.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import benchstats

GAMMA, EPS = 0.5, 1.0
LMIN = 1  # the CLI's default base level, which every workload uses
REFERENCE_REL_TOL = 1e-9
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

#: Acceptance criterion 6(a): op_work_total / L**3 grows as 2**(3L) for the
#: strong and 2**(4L) for the weak schedule, to within 0.4 in the exponent.
#: It depends on the schedule alone, so it holds at every seed.
WORK_EXPONENTS = {"strong": 3.0, "weak": 4.0}
WORK_EXPONENT_TOL = 0.4

#: Acceptance criterion 3: log2 slope of the coupled-pair variance.
VARIANCE_SLOPE_BAND = (-1.6, -0.6)

#: Upper bound on the log2 slope of the weak schedule's aggregate RMS error
#: over L = 1..5 with 3 replicates. Acceptance criterion 5 asks for -0.7 at
#: 10 replicates; at 3 replicates seeds 2..31 gave slopes from -0.51 to -1.08
#: (seeds 9, 16 and 26 miss -0.7), so the benchmark only rejects an error that
#: stops decaying. Strong-schedule slopes and the matched work ordering are too
#: noisy at 1-3 replicates to check at all.
WEAK_SLOPE_MAX = -0.25


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    ranges: tuple = ()      # run/compare: ((mode, lo, hi), ...)
    reps: int = 1
    levels: tuple = ()      # variance: pair levels
    pairs: int = 0
    workers: int = 1

    @property
    def command(self) -> str:
        return self.argv[0]

    def cli_args(self, seed: int, workers: int = 0) -> list:
        """Subcommand arguments for ``seed``, less ``--out``."""
        return [*self.argv, "--workers", str(workers or self.workers), "--seed", str(seed)]


WORKLOADS = {w.name: w for w in (
    Workload("run-shallow",
             ("run", "--mode", "weak,strong", "--L", "1..5", "--reps", "3",
              "--gamma", str(GAMMA), "--eps", str(EPS)),
             ranges=(("weak", 1, 5), ("strong", 1, 5)), reps=3),
    Workload("compare-deep",
             ("compare", "--L", "1..3", "--strong-L", "1..7", "--reps", "1",
              "--gamma", str(GAMMA), "--eps", str(EPS)),
             ranges=(("strong", 1, 7), ("weak", 1, 3)), reps=1),
    Workload("variance-pool",
             ("variance", "--levels", "2..6", "--pairs", "512", "--gamma", str(GAMMA)),
             levels=(2, 3, 4, 5, 6), pairs=512, workers=2),
)}

_FILES = {
    "run": ("run_summary.csv", "run_levels.csv", "run_replicates.csv"),
    "compare": ("compare.csv", "compare_levels.csv", "compare_matched.csv"),
    "variance": ("variance.csv",),
}


def contract_files(workload: Workload) -> tuple:
    """The CSVs the determinism contract covers (timings.csv is outside it)."""
    return _FILES[workload.command]


def read_csv(path: Path) -> list:
    """Rows of a spde-mlmc CSV as dicts, skipping the '#' metadata lines."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def op_work(workload: Workload, out: Path) -> int:
    """op_work an invocation performed: the numerator of op_work_rate."""
    if workload.command == "variance":
        return benchstats.variance_op_work(workload.levels, workload.pairs, LMIN)
    levels_csv = out / contract_files(workload)[1]
    return benchstats.level_rows_op_work(read_csv(levels_csv), workload.reps)


def load_reference() -> dict:
    """Pinned values by seed, then workload, then ``reference_values`` key."""
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def reference_values(workload: Workload, out: Path) -> dict:
    """The seed-dependent values pinned in reference.json, keyed by row."""
    if workload.command == "variance":
        rows = read_csv(out / "variance.csv")
        return {f"{col}.{r['level']}": float(r[col]) for r in rows if r["level"] != "slope"
                for col in ("var_difference", "var_level")}
    rows = read_csv(out / contract_files(workload)[0])
    return {f"rms_error_agg.{r['mode']}.{r['L']}": float(r["rms_error_agg"]) for r in rows}


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def schedule_counts(mode: str, top: int) -> tuple:
    """Per-level sample counts the configuration asks spde-mlmc for."""
    from spde_mlmc import build_schedule

    return build_schedule(mode, top, gamma=GAMMA, eps=EPS).counts


def _check_levels(workload, rows):
    problems = []
    for r in rows:
        mode, top, level = r["mode"], int(r["L"]), int(r["level"])
        samples, work = int(r["samples"]), int(r["op_work"])
        counts = schedule_counts(mode, top)
        expected_n = counts[0] if level == LMIN else counts[level]
        if samples != expected_n:
            problems.append(f"{mode} L={top} level {level}: {samples} samples, schedule says {expected_n}")
        expected = samples * benchstats.pair_op_work(level, LMIN)
        if work != expected:
            problems.append(f"{mode} L={top} level {level}: op_work {work} != {expected}")
    return problems


def _check_summary(workload, summary, level_rows):
    problems = []
    wanted = {(mode, top) for mode, lo, hi in workload.ranges for top in range(lo, hi + 1)}
    seen = {(r["mode"], int(r["L"])) for r in summary}
    if seen != wanted:
        problems.append(f"summary rows {sorted(seen)} != requested {sorted(wanted)}")
    for r in summary:
        mode, top = r["mode"], int(r["L"])
        levels = [x for x in level_rows if x["mode"] == mode and int(x["L"]) == top]
        expected = (sum(int(x["op_work"]) for x in levels)
                    + len(levels) * (2**top - 1))  # summing level means on the top grid
        if int(r["op_work_total"]) != expected:
            problems.append(f"{mode} L={top}: op_work_total {r['op_work_total']} != {expected}")
        if int(r["replicates"]) != workload.reps or r["outside_theory"] != "0":
            problems.append(f"{mode} L={top}: replicates/outside_theory columns wrong")
        rms = float(r["rms_error_agg"])
        if not (math.isfinite(rms) and 0.0 < rms < 1.0):
            problems.append(f"{mode} L={top}: rms_error_agg {rms} not in (0, 1)")
    for mode, lo, hi in workload.ranges:
        if hi - lo < 3:
            continue
        points = [(top, int(r["op_work_total"]) / top**3) for r in summary
                  for top in [int(r["L"])] if r["mode"] == mode and top >= 2]
        slope = benchstats.log2_slope(points)
        if abs(slope - WORK_EXPONENTS[mode]) > WORK_EXPONENT_TOL:
            problems.append(f"{mode} work exponent {slope:.3f} not within "
                            f"{WORK_EXPONENT_TOL} of {WORK_EXPONENTS[mode]}")
    return problems


def _check_run(workload, out):
    summary = read_csv(out / "run_summary.csv")
    levels = read_csv(out / "run_levels.csv")
    problems = _check_levels(workload, levels)
    problems += _check_summary(workload, summary, levels)
    reps = read_csv(out / "run_replicates.csv")
    for r in summary:
        errs = [float(x["rms_error"]) for x in reps if (x["mode"], x["L"]) == (r["mode"], r["L"])]
        agg = math.sqrt(sum(e * e for e in errs) / len(errs)) if errs else math.nan
        if len(errs) != workload.reps or not _close(agg, float(r["rms_error_agg"]), 1e-12):
            problems.append(f"{r['mode']} L={r['L']}: rms_error_agg disagrees with replicates")
    return problems


def _check_compare(workload, out):
    summary = read_csv(out / "compare.csv")
    levels = read_csv(out / "compare_levels.csv")
    problems = _check_levels(workload, levels)
    problems += _check_summary(workload, summary, levels)
    table = {(r["mode"], int(r["L"])): r for r in summary}
    strong = sorted(top for mode, top in table if mode == "strong")
    expected = []
    for wl in sorted(top for mode, top in table if mode == "weak"):
        weak = table[("weak", wl)]
        partner = next((sl for sl in strong if float(table[("strong", sl)]["rms_error_agg"])
                        <= float(weak["rms_error_agg"])), None)
        if partner is not None:
            s = table[("strong", partner)]
            ratio = int(s["op_work_total"]) / int(weak["op_work_total"])
            expected.append([str(wl), str(partner), weak["rms_error_agg"], s["rms_error_agg"],
                             weak["op_work_total"], s["op_work_total"], repr(ratio)])
    matched = [list(r.values()) for r in read_csv(out / "compare_matched.csv")]
    if matched != expected:
        problems.append("compare_matched.csv disagrees with compare.csv")
    return problems


def _check_variance(workload, out):
    rows = read_csv(out / "variance.csv")
    body = [r for r in rows if r["level"] != "slope"]
    problems = []
    if [int(r["level"]) for r in body] != list(workload.levels):
        return [f"variance levels {[r['level'] for r in body]} != {list(workload.levels)}"]
    values = [(int(r["level"]), float(r["var_difference"])) for r in body]
    if not all(math.isfinite(v) and v > 0.0 for _, v in values):
        return ["non-positive or non-finite var_difference"]
    slope = float(rows[-1]["var_difference"]) if rows[-1]["level"] == "slope" else math.nan
    if not _close(slope, benchstats.log2_slope(values), 1e-9):
        problems.append(f"slope footer {slope} disagrees with the rows")
    return problems


def check_output(workload: Workload, out: Path, seed: int) -> list:
    """Problems found in one invocation's output directory (empty if none)."""
    missing = [f for f in contract_files(workload) if not (out / f).is_file()]
    if missing:
        return [f"missing output {', '.join(missing)}"]
    if workload.command == "run":
        problems = _check_run(workload, out)
    elif workload.command == "compare":
        problems = _check_compare(workload, out)
    else:
        problems = _check_variance(workload, out)
    values = reference_values(workload, out)
    reference = load_reference()
    pinned = reference.get(str(seed), {}).get(workload.name)
    if pinned is not None:
        if set(pinned) != set(values):
            problems.append("reference keys differ from the output rows")
        problems += [f"{key} = {values[key]!r}, reference {pinned[key]!r}"
                     for key in sorted(set(pinned) & set(values))
                     if not _close(values[key], pinned[key], REFERENCE_REL_TOL)]
    elif workload.command == "variance":
        slope = float(read_csv(out / "variance.csv")[-1]["var_difference"])
        lo, hi = VARIANCE_SLOPE_BAND
        if not lo <= slope <= hi:
            problems.append(f"variance slope {slope:.3f} outside [{lo}, {hi}]")
    elif workload.command == "run":
        points = [(int(k.split(".")[2]), v) for k, v in values.items() if ".weak." in k]
        slope = benchstats.log2_slope(points)
        if slope > WEAK_SLOPE_MAX:
            problems.append(f"weak RMS slope {slope:.3f} above {WEAK_SLOPE_MAX}")
    return problems
