"""Write the contract outputs of a fixed set of studies, at one and two workers.

    python3 tools/contract_csvs.py OUT [--src DIR]

Runs each study below at seed 7 with ``--workers 1`` and ``--workers 2`` into
``OUT/<name>/w1/`` and ``OUT/<name>/w2/`` (``det-conv`` takes no ``--workers``
and simply runs twice), using the package under ``src/`` next to this script,
or under ``DIR`` with ``--src DIR`` (exit 2 if ``DIR/spde_mlmc/__init__.py``
is missing). Exits 1 if any file but ``timings.csv`` differs between ``w1``
and ``w2``, or if a study fails. Two checkouts are compared by running this
script's studies with each one's package, ``--src OTHER/src`` for the other,
and then ``diff -r -x timings.csv OUT_A OUT_B``: a refactor that keeps the
numbers leaves no difference, and a study that one checkout's copy of the
script lacks is compared too.
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


def run_study(args: list, out: Path, src: Path = SRC) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "spde_mlmc.cli", *args, "--seed", str(SEED),
                    "--out", str(out)], check=True, env=env)


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
    for name, text in STUDIES.items():
        args = text.split()
        outs = [root / name / f"w{workers}" for workers in (1, 2)]
        try:
            for workers, out in zip((1, 2), outs):
                run_study(args + ([] if args[0] == "det-conv" else ["--workers", str(workers)]),
                          out, src)
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
