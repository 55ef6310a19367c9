"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line,
and a deep-level check of the deterministic rate beside criterion 1.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
statistical criteria run at their prescribed replicate counts under the
pinned master seed below, so every outcome here is deterministic.
"""

import csv
import math
import time

import numpy as np
import pytest

from spde_mlmc import (
    build_schedule,
    make_level,
    mlmc_estimate,
    run_deterministic,
)
from spde_mlmc.cli import main
from spde_mlmc.metrics import fit_slope
from spde_mlmc.noise import path_stream

from reference import mc_estimate

SEED = 3


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def summary_table(path):
    """run/compare summary rows keyed by (mode, L)."""
    _, rows = read_rows(path)
    out = {}
    for mode, l_str, rms, work, _reps, _outside in rows:
        out[(mode, int(l_str))] = (float(rms), int(work))
    return out


@pytest.fixture(scope="module")
def run_artifacts(tmp_path_factory):
    """Figure-1-style runs: weak and strong schedules over L = 1..5."""
    out = tmp_path_factory.mktemp("accept_run")
    t0 = time.perf_counter()
    rc = main(["run", "--mode", "weak,strong", "--L", "1..5", "--reps", "10",
               "--gamma", "0.5", "--eps", "1.0", "--seed", str(SEED),
               "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    return {"dir": out, "elapsed": elapsed}


@pytest.fixture(scope="module")
def compare_artifacts(tmp_path_factory):
    """Matched-accuracy comparison; the strong range extends to level 7
    because reaching a weak-schedule accuracy costs the strong schedule
    roughly twice the level count."""
    out = tmp_path_factory.mktemp("accept_compare")
    t0 = time.perf_counter()
    rc = main(["compare", "--L", "1..3", "--strong-L", "1..7", "--reps", "10",
               "--gamma", "0.5", "--eps", "1.0", "--seed", str(SEED),
               "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    return {"dir": out, "elapsed": elapsed}


def test_criterion_1_deterministic_convergence(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "det"
    assert main(["det-conv", "--levels", "3..7", "--seed", str(SEED),
                 "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    _, rows = read_rows(out / "det_conv.csv")
    slope = float(rows[-1][3])
    ok = -2.2 <= slope <= -1.7 and elapsed < 10.0
    report(1, ok, f"deterministic L2 slope {slope:.3f} in [-2.2, -1.7], "
                  f"{elapsed:.1f}s < 10s")


def test_deterministic_error_falls_fourfold_per_level_to_level_20(tmp_path):
    # beside criterion 1: second order also where 1 - cos(pi h) formed by
    # subtraction, or a rounded rho raised to 4**level steps, would lose it
    # (from level 14 up). The ratios start at level 5: the scheme's own ratio
    # from level 4 to 5 is 4.16.
    out = tmp_path / "det"
    assert main(["det-conv", "--levels", "4..20", "--seed", str(SEED),
                 "--out", str(out)]) == 0
    _, rows = read_rows(out / "det_conv.csv")
    errors = [float(row[3]) for row in rows[1:-1]]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert len(ratios) == 15 and all(3.9 <= r <= 4.1 for r in ratios), ratios


def test_criterion_2_monte_carlo_rate():
    t0 = time.perf_counter()
    reps = 200
    points = []
    for exponent in range(4, 11):
        n = 2**exponent
        mse = 0.0
        for rep in range(reps):
            stream = path_stream(SEED, 0, rep, exponent, kind=2)
            est, _ = mc_estimate(lambda i, s=stream: float(s.standard_normal()), n)
            mse += est * est
        points.append((exponent, 0.5 * math.log2(mse / reps)))
    slope = fit_slope(points)
    elapsed = time.perf_counter() - t0
    ok = -0.6 <= slope <= -0.4 and elapsed < 10.0
    report(2, ok, f"Monte Carlo RMS slope {slope:.3f} in -0.5 +/- 0.1, "
                  f"{elapsed:.1f}s < 10s")


def test_criterion_3_variance_decay(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "var"
    assert main(["variance", "--levels", "2..6", "--pairs", "1000",
                 "--gamma", "0.5", "--seed", str(SEED), "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    _, rows = read_rows(out / "variance.csv")
    assert rows[-1][0] == "slope"
    slope = float(rows[-1][1])
    ok = -1.6 <= slope <= -0.6 and elapsed < 300.0
    report(3, ok, f"coupled-pair variance slope {slope:.3f} in [-1.6, -0.6], "
                  f"{elapsed:.0f}s < 5min")


def test_criterion_4_exact_telescoping():
    t0 = time.perf_counter()
    worst = 0.0
    for top in range(1, 6):
        schedule = build_schedule("strong", top, gamma=0.5, eps=1.0)
        result = mlmc_estimate(schedule, 1, master_seed=SEED, zero_noise=True)
        target = run_deterministic(make_level(top)).values
        worst = max(worst, float(np.max(np.abs(result.estimate.values - target))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report(4, ok, f"zero-noise telescoping max deviation {worst:.2e} <= 1e-10 "
                  f"over L=1..5, {elapsed:.1f}s < 5s")


def test_criterion_5_mlmc_error_decay(run_artifacts):
    table = summary_table(run_artifacts["dir"] / "run_summary.csv")
    slopes = {}
    for mode in ("weak", "strong"):
        points = [(L, math.log2(table[(mode, L)][0])) for L in range(1, 6)]
        slopes[mode] = fit_slope(points)
    elapsed = run_artifacts["elapsed"]
    ok = slopes["weak"] <= -0.7 and slopes["strong"] <= -0.35 and elapsed < 900.0
    report(5, ok, f"aggregate RMS slopes: weak {slopes['weak']:.3f} <= -0.7, "
                  f"strong {slopes['strong']:.3f} <= -0.35, {elapsed:.0f}s < 15min")


def test_criterion_6_work_ordering(run_artifacts, compare_artifacts):
    # (a) measured op-count work grows like 2**(3L) (strong) and 2**(4L)
    # (weak) times L**(2+eps); the fit divides out the polynomial factor and
    # uses L = 2..5 where ceiling effects no longer dominate.
    table = summary_table(run_artifacts["dir"] / "run_summary.csv")
    exponents = {}
    for mode in ("strong", "weak"):
        points = [(L, math.log2(table[(mode, L)][1] / L**3)) for L in range(2, 6)]
        exponents[mode] = fit_slope(points)
    model_ok = (abs(exponents["strong"] - 3.0) <= 0.4
                and abs(exponents["weak"] - 4.0) <= 0.4)

    # (b) per-level measured work equals the counts-times-geometry model
    _, level_rows = read_rows(run_artifacts["dir"] / "run_levels.csv")
    per_level_ok = True
    for mode, l_str, lvl_str, n_str, work_str, _var in level_rows:
        lvl, n = int(lvl_str), int(n_str)
        fine = make_level(lvl)
        expected = fine.dofs * fine.steps
        if lvl > 1:
            coarse = make_level(lvl - 1)
            expected += coarse.dofs * coarse.steps
        per_level_ok &= int(work_str) == n * expected

    # (c) at matched accuracy the weak schedule is strictly cheaper for
    # every matched pair with weak L >= 3
    _, matched = read_rows(compare_artifacts["dir"] / "compare_matched.csv")
    pairs = [(int(r[0]), int(r[1]), int(r[4]), int(r[5])) for r in matched]
    high = [p for p in pairs if p[0] >= 3]
    matched_ok = bool(high) and all(ww < sw for _, _, ww, sw in high)

    elapsed = run_artifacts["elapsed"] + compare_artifacts["elapsed"]
    ok = model_ok and per_level_ok and matched_ok and elapsed < 1200.0
    detail = (f"work exponents strong {exponents['strong']:.2f} (target 3+/-0.4), "
              f"weak {exponents['weak']:.2f} (target 4+/-0.4); per-level work "
              f"{'matches' if per_level_ok else 'differs from'} the model; "
              f"matched pairs (weak L>=3): "
              f"{[(w, s, ww, sw) for w, s, ww, sw in high]}; {elapsed:.0f}s < 20min")
    report(6, ok, detail)


def test_criterion_7_unbiasedness():
    t0 = time.perf_counter()
    top, reps = 3, 50
    schedule = build_schedule("weak", top, gamma=0.5, eps=1.0)
    estimates = np.array([
        mlmc_estimate(schedule, 1, master_seed=SEED, replicate=rep).estimate.values
        for rep in range(reps)
    ])
    mean = estimates.mean(axis=0)
    std_err = estimates.std(axis=0, ddof=1) / math.sqrt(reps)
    target = run_deterministic(make_level(top)).values
    z = np.abs(mean - target) / std_err
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(z <= 3.0)) and elapsed < 300.0
    report(7, ok, f"estimator mean within 3 standard errors at every node "
                  f"(max |z| = {z.max():.2f}), {elapsed:.0f}s < 5min")


def test_criterion_8_reproducibility(tmp_path):
    contract_files = ("run_summary.csv", "run_replicates.csv", "run_levels.csv")
    outs = [tmp_path / name for name in ("a", "b", "c")]
    for out, workers in zip(outs, ("1", "1", "2")):
        rc = main(["run", "--mode", "weak", "--L", "2..3", "--reps", "2",
                   "--seed", str(SEED), "--workers", workers, "--out", str(out)])
        assert rc == 0
    identical = all(
        (outs[0] / name).read_bytes() == (other / name).read_bytes()
        for name in contract_files for other in outs[1:]
    )
    report(8, identical, "rerun and workers=2 produce byte-identical CSVs")
