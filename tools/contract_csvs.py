"""Write the contract outputs of a fixed set of studies, at one and two workers.

    python3 tools/contract_csvs.py OUT [--src DIR]

Runs each study below at seed 7 with ``--workers 1`` and ``--workers 2`` into
``OUT/<name>/w1/`` and ``OUT/<name>/w2/`` (``det-conv`` takes no ``--workers``
and simply runs twice), using the package under ``src/`` next to this script,
or under ``DIR`` with ``--src DIR`` (exit 2 if ``DIR/spde_mlmc/__init__.py``
is missing). The CLI passes no drift, so one library study, ``drift``, runs
the drift engine through ``mlmc_estimate`` and ``sample_pair`` and writes the
``repr`` of its floats to ``drift.txt``; another, ``chunks``, writes to
``chunks.txt`` a sha256 of each state array of ``mlmc._simulate_chunk`` over
levels, KL truncations, chunk widths and base levels, with and without a
drift, so that the engine's bits are compared, not only its CSVs. Exits 1 if
any file but ``timings.csv`` differs between ``w1`` and ``w2``, or if a study
fails. Two checkouts are compared by running this script's studies with
each one's package, ``--src OTHER/src`` for the other, and then ``diff -r -x
timings.csv OUT_A OUT_B``: a refactor that keeps the numbers leaves no
difference, and a study that one checkout's copy of the script lacks is
compared too.
"""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SEED = 7

#: name -> arguments of one study.
STUDIES = {
    "compare": "compare --L 1..3 --strong-L 1..7 --reps 2",
    "compare-lmin2": "compare --lmin 2 --L 2..3 --strong-L 2..5 --reps 2",
    "run-modes": "run --mode weak,strong,singlelevel --L 1..4 --reps 2",
    "run-modes-squared-norm": "run --mode weak,strong,singlelevel --L 1..4 --reps 2 "
                              "--functional squared-norm",
    "run-general": "run --mode general --L 1..3 --a-seq 1,0.6,0.3,0.2 --eta 0.6 --reps 2",
    "run-zero-noise": "run --L 1..4 --zero-noise --kl-modes 5 --reps 2",
    "run-kl40": "run --L 1..4 --kl-modes 40 --reps 2",
    "variance": "variance --levels 2..6 --pairs 512",
    "variance-kl3": "variance --levels 2..6 --pairs 512 --kl-modes 3",
    "variance-zero-noise": "variance --levels 2..6 --pairs 512 --zero-noise",
    "variance-lmin2": "variance --levels 2..6 --pairs 512 --lmin 2",
    "variance-partial": "variance --levels 1..4 --pairs 100",  # partial chunks and groups
    "det-conv": "det-conv --levels 1..14",
}


#: The library study of the drift engine, run as ``python -c`` with the seed,
#: the worker count and the output directory: the estimate and level variances
#: of a drifted weak run at that worker count, and the nodal values of drifted
#: pairs at levels 1..4, samples 0..3 and three KL truncations.
DRIFT_STUDY = """
import sys
from pathlib import Path
import numpy as np
from spde_mlmc.mlmc import build_schedule, mlmc_estimate, sample_pair

seed, workers, out = int(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3])
drift = lambda v: -v + np.sin(v)
result = mlmc_estimate(build_schedule("weak", 3), 1, "squared-norm", master_seed=seed,
                       drift=drift, workers=workers)
lines = [f"estimate {result.estimate!r}"]
lines += [f"level {s.level} {s.variance!r} {s.level_variance!r}" for s in result.level_stats]
for kl_rule in (None, 3, 40):
    for level in range(1, 5):
        for sample in range(4):
            pair = sample_pair(level, 1, seed, sample, kl_rule=kl_rule, drift=drift)
            lines += [" ".join([f"{role} {level} {sample} {kl_rule}",
                                *map(repr, path.values.tolist())])
                      for role, path in zip(("fine", "coarse"), pair) if path is not None]
out.mkdir(parents=True, exist_ok=True)
(out / "drift.txt").write_text("\\n".join(lines) + "\\n", encoding="utf-8")
"""

#: The library study of the chunk engine, run like ``DRIFT_STUDY`` (a chunk
#: takes no worker count, so its two runs are reruns): the sha256 of the fine
#: and coarse states of chunks at levels 1..6 (1..4 with a drift), KL
#: truncations None, 3 and 40, widths 1, 17 and 64, from base level 1 and from
#: the level itself.
CHUNK_STUDY = """
import hashlib
import sys
from pathlib import Path
import numpy as np
from spde_mlmc.mlmc import _simulate_chunk

seed, out = int(sys.argv[1]), Path(sys.argv[3])
lines = []
for name, drift, top in (("F0", None, 6), ("F1", lambda v: -v + np.sin(v), 4)):
    for level in range(1, top + 1):
        for kl_rule in (None, 3, 40):
            for width in (1, 17, 64):
                for lmin in sorted({1, level}):
                    states = _simulate_chunk(level, lmin, 0, width, 0, seed, kl_rule, drift,
                                             False)
                    lines.append(" ".join([name, str(level), str(kl_rule), str(width), str(lmin),
                                           *("-" if x is None else hashlib.sha256(x.tobytes())
                                             .hexdigest() for x in states)]))
out.mkdir(parents=True, exist_ok=True)
(out / "chunks.txt").write_text("\\n".join(lines) + "\\n", encoding="utf-8")
"""

#: name -> the code of a library study, run as ``python -c``.
LIBRARY_STUDIES = {"drift": DRIFT_STUDY, "chunks": CHUNK_STUDY}


def study_argv(name: str, workers: int) -> list:
    """Python's arguments for study ``name`` at ``workers``, but the output
    directory, which comes last."""
    if name in LIBRARY_STUDIES:
        return ["-c", LIBRARY_STUDIES[name], str(SEED), str(workers)]
    args = STUDIES[name].split()
    extra = [] if args[0] == "det-conv" else ["--workers", str(workers)]
    return ["-m", "spde_mlmc.cli", *args, *extra, "--seed", str(SEED), "--out"]


def run_study(argv: list, out: Path, src: Path = SRC) -> None:
    """Run Python with ``argv`` and then ``out`` on the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, *argv, str(out)], check=True, env=env)


def differing(a: Path, b: Path) -> list:
    """Files of ``a`` and ``b`` but ``timings.csv`` that are missing from one
    or whose bytes differ."""
    names = sorted({p.name for p in (*a.iterdir(), *b.iterdir())} - {"timings.csv"})
    _same, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return mismatch + errors


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 3) or argv[1:2] not in ([], ["--src"]):
        print("usage: contract_csvs.py OUT [--src DIR]", file=sys.stderr)
        return 2
    root, src = Path(argv[0]), Path(argv[2]) if len(argv) == 3 else SRC
    if not (src / "spde_mlmc" / "__init__.py").is_file():
        print(f"{src} holds no spde_mlmc/__init__.py", file=sys.stderr)
        return 2
    failed = []
    for name in [*STUDIES, *LIBRARY_STUDIES]:
        outs = [root / name / f"w{workers}" for workers in (1, 2)]
        try:
            for workers, out in zip((1, 2), outs):
                run_study(study_argv(name, workers), out, src)
        except subprocess.CalledProcessError as exc:
            failed.append(f"{name}: exit {exc.returncode}")
            continue
        failed += [f"{name}: {file} differs between w1 and w2"
                   for file in differing(*outs)]
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
