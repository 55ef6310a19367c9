"""Benchmark of the spde-mlmc studies, end to end and layer by layer.

    python3 perfbench/run.py --workload run-shallow --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy. Each invocation of the
workload's subcommand is one process (``child.py``) with BLAS pinned to one
thread, so that pool workers times BLAS threads stay within the two CPUs the
benchmark was written for. A run

* starts the set-up alone (interpreter, ``import spde_mlmc``, config
  parsing) ``SETUPS_PER_GAP`` times before the first invocation and after
  each one, and reports the median as ``setup_s``;
* invokes the workload until the run is as close to ``--seconds`` as
  whole invocations allow (at least twice), checks every invocation's output (see
  workloads.py) and that repeated invocations write byte-identical contract
  CSVs; variance-pool is also compared with a ``--workers 1`` invocation;
* with ``--trace 0`` reports the end-to-end metrics over the whole run:
  handler time and op_work summed over the invocations, so that the
  machine's speed is averaged over all of the measured seconds; with
  ``--trace 1`` it alternates untraced and traced
  invocations and reports the per-layer metrics of the traced ones, among
  them the tracing overhead, and prints the traced less the untraced
  handler time.

Human-readable lines go first; the last line of standard output is the JSON
result. ``--save FILE`` also writes the result with the machine it ran on;
``--baseline FILE`` prints each metric's ratio to such an earlier file.
"""

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Set-up processes before the first invocation and after each one, so that
#: ``setup_s`` samples the machine over the whole run, not only its start.
SETUPS_PER_GAP = 2
#: Invocations per run: at least two for the byte-identity check.
MIN_INVOCATIONS = 2
#: Wall-clock budget of a whole run; child processes are killed past it.
BUDGET_S = 170.0
BLAS_THREADS = "1"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "op_work_rate": "Mop/s", "peak_rss_mib": "MiB"}


def layer_unit(name: str) -> str:
    base = name.split(".L")[0] if ".L" in name else name
    if "ns_per_" in base:
        return "ns"
    if base.endswith("_ms"):
        return "ms"
    if base.endswith("_s"):
        return "s"
    if base.endswith("_pct"):
        return "%"
    if base.endswith(("_frac", "_fill")):
        return "ratio"
    if base.endswith("_exponent"):
        return "log2/level"
    return "count"


class Runner:
    """Starts child processes inside the checkout and never outlives them."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)

    def child(self, args) -> tuple:
        """Run child.py with ``args``; returns (exit code or None on timeout,
        stderr, seconds from start to exit)."""
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code, err = None, b"timed out"
        finally:
            try:  # the session also holds any pool workers the child left
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        return code, err.decode(errors="replace")[-2000:], time.perf_counter() - started

    def setup(self, argv) -> float:
        code, err, seconds = self.child(["setup", "--", *argv,
                                         "--out", str(self.workdir / "setup")])
        if code != 0:
            raise RuntimeError(f"set-up failed: {err}")
        return seconds

    def invoke(self, argv, name: str, trace: bool = False, reference: bool = False) -> dict:
        out, report = self.workdir / name, self.workdir / f"{name}.json"
        args = ["run", str(report)] + (["--trace"] if trace else [])
        code, err, _ = self.child([*args, "--", *argv, "--out", str(out)])
        result = {"out": out, "exit": code, "error": err if code != 0 else "",
                  "trace": trace, "reference": reference}
        if code == 0 and report.is_file():
            result.update(json.loads(report.read_text(encoding="utf-8")))
        return result


def check(workload, inv: dict, seed: int, first: dict) -> list:
    """Problems of one invocation: exit code, output checks, byte identity
    with the first invocation and, when traced, layer counts."""
    if inv["exit"] != 0:
        return [f"exit {inv['exit']}: {inv['error'].strip()}"]
    try:
        problems = workloads.check_output(workload, inv["out"], seed)
        inv["op_work"] = workloads.op_work(workload, inv["out"])
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return [f"unreadable output: {exc!r}"]
    if first is not None:
        for name in workloads.contract_files(workload):
            if (inv["out"] / name).read_bytes() != (first["out"] / name).read_bytes():
                problems.append(f"{name} differs from the first invocation's")
    layers = inv.get("layers")
    if layers and not layers["fem.dof_steps"] == layers["mlmc.chunk_op_work"] == inv["op_work"]:
        problems.append(f"traced dof-steps {layers['fem.dof_steps']} and chunk op_work "
                        f"{layers['mlmc.chunk_op_work']} != op_work {inv['op_work']}")
    return problems


def measure(workload, seed: int, seconds: float, trace: bool, runner: Runner) -> dict:
    """Invocations until ``seconds`` are spent, each checked, with set-ups
    before and between them; the set-ups' time is not counted in ``seconds``.

    The workers=1 reference of a pool workload runs last and is checked and
    counted as attempted, but its time is not a sample of the workload.
    """
    argv = workload.cli_args(seed)
    setups = [runner.setup(argv) for _ in range(SETUPS_PER_GAP)]

    invocations, first, spent = [], None, 0.0
    for n in itertools.count():
        started = time.monotonic()
        inv = runner.invoke(argv, f"inv{n}", trace and n % 2 == 1)
        invocations.append(inv)
        inv["problems"] = check(workload, inv, seed, first)
        if first is None and not inv["problems"]:
            first = inv
        spent += time.monotonic() - started
        setups += [runner.setup(argv) for _ in range(SETUPS_PER_GAP)]
        walls = [i["wall_s"] for i in invocations if "wall_s" in i] or [0.0]
        # Stop where the run ends nearest to ``seconds``: one more
        # invocation would overshoot it by more than stopping falls short.
        if n + 1 >= MIN_INVOCATIONS and (
                spent + spent / (n + 1) / 2 > seconds
                or time.monotonic() + 3 * max(walls) > runner.deadline):
            break
    if workload.workers > 1:
        inv = runner.invoke(workload.cli_args(seed, workers=1), "workers1", reference=True)
        invocations.append(inv)
        inv["problems"] = check(workload, inv, seed, first)
    return {"setups": setups, "invocations": invocations}


def timed(run: dict, traced: bool = False) -> list:
    return [i for i in run["invocations"] if not i["problems"] and not i["reference"]
            and i["trace"] == traced]


def e2e_metrics(run: dict) -> dict:
    """Handler time per invocation and op_work per handler second over the
    whole run. The machine's speed drifts over minutes, so totals, which
    weigh every measured second alike, vary less from run to run than a
    median of a few invocations does."""
    timed_runs = timed(run)
    handler_s = sum(i["wall_s"] for i in timed_runs)
    return {
        "wall_s": handler_s / len(timed_runs),
        "setup_s": statistics.median(run["setups"]),
        "op_work_rate": sum(i["op_work"] for i in timed_runs) / 1e6 / handler_s,
        "peak_rss_mib": statistics.median(i["peak_rss_mib"] for i in timed_runs),
    }


def layer_metrics(run: dict) -> dict:
    traced = timed(run, traced=True)
    return {n: statistics.median(i["layers"][n] for i in traced) for n in traced[0]["layers"]}


def print_wall_difference(run: dict, metrics: dict) -> None:
    """The traced handler time less the median untraced one. It says little
    unless it lies outside the range of the untraced times."""
    plain = [i["wall_s"] for i in timed(run)]
    diff = metrics["trace.wall_s"] - statistics.median(plain)
    spread = max(plain) - min(plain)
    where = ("outside" if len(plain) > 1 and abs(diff) > spread else "unresolved: within")
    print(f"{'trace.wall_diff_s':36s} {diff:>16.6g} s   ({where} the untraced range, "
          f"{spread:.3g} s over {len(plain)} runs)")


def machine(run: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = git.stdout.strip() or commit
    versions = next((i["versions"] for i in run["invocations"] if "versions" in i), {})
    return {"cpu": cpu, "nproc": os.cpu_count(), "caches": caches, **versions,
            "blas_threads": BLAS_THREADS, "commit": commit}


def print_report(metrics: dict, units: dict, baseline: dict) -> None:
    base = (baseline or {}).get("metrics", {})
    for name, value in metrics.items():
        line = f"{name:36s} {value:>16.6g} {units[name]}"
        if name in base and base[name]["value"]:
            line += f"   x{value / base[name]['value']:.3f} of base {base[name]['value']:.6g}"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write the result with machine info here")
    parser.add_argument("--baseline", type=Path, help="earlier --save file to compare with")
    args = parser.parse_args(argv)
    if not (SRC / "spde_mlmc" / "__init__.py").is_file():
        print(f"error: no spde_mlmc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    baseline = (json.loads(args.baseline.read_text(encoding="utf-8"))
                if args.baseline else None)

    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, time.monotonic() + BUDGET_S)
        run = measure(workload, args.seed, args.seconds, bool(args.trace), runner)
        problems = [f"{i['out'].name}: {p}" for i in run["invocations"] for p in i["problems"]]
        if not timed(run) or (args.trace and not timed(run, traced=True)):
            print("\n".join(problems), file=sys.stderr)
            return 1
        if args.trace:
            metrics = layer_metrics(run)
            units = {n: layer_unit(n) for n in metrics}
        else:
            metrics = e2e_metrics(run)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = len(run["invocations"])
    failed = sum(1 for i in run["invocations"] if i["problems"])
    info = machine(run)
    print(f"# workload {args.workload}, seed {args.seed}, {attempted} invocations, "
          f"{len(run['setups'])} set-ups; machine {json.dumps(info)}")
    for problem in problems:
        print(f"# FAILED {problem}")
    print_report(metrics, units, baseline)
    if args.trace:
        print_wall_difference(run, metrics)
    print(f"{'failed_frac':36s} {failed / attempted:>16.6g} ratio")
    measured = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: m for n, m in measured.items() if tracing.in_result(n)},
    }
    if args.save:
        saved = {**result, "metrics": measured, "workload": args.workload, "seed": args.seed,
                 "trace": args.trace, "machine": info}
        args.save.write_text(json.dumps(saved, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
