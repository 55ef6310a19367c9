"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py --workload compare-deep --runs 10 --seconds 45

Runs run.py untraced once per seed, 1 to ``--runs``, and prints, for each
metric, its median and the distance between its first and third quartile as
a share of the median, the spread the metric's bound in BENCHMARK.json is
compared with.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchstats

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    values, bad = {}, 0
    for seed in range(1, args.runs + 1):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            bad += 1
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            continue
        print(f"seed {seed} ({time.monotonic() - started:.0f} s, {result['attempted']} "
              f"invocations): " + ", ".join(f"{k}={v['value']:.4g}"
                                            for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        if len(vals) >= 2:
            print(f"{name:36s} median {statistics.median(vals):.6g}  "
                  f"spread {benchstats.quartile_spread(vals):.4f}  n={len(vals)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
