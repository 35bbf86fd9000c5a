"""Golden CLI run: the bytes and exit statuses of a fixed command set.

Runs 25 commands that succeed and 22 that fail with ``python -m neucmds.cli``
from the source tree given by ``--src``, in a new empty directory, with one
BLAS thread (results are not bitwise identical across thread counts).  It
then prints one sorted line per record: the sha256 of every file left in the
directory (43 files), and the exit code and stderr of every command.  Two
trees give the same output exactly when the CLI is byte-identical on this
set, so a refactor is checked with

    python3 tests/golden_run.py --src <parent>/src > parent.txt
    python3 tests/golden_run.py --src src > change.txt
    diff parent.txt change.txt

The name has no ``test_`` prefix, so pytest does not collect it.  The empty
directory is made under ``$TMPDIR``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

INPUTS = {
    "x-asym.txt": "2\n0 1\n2 0\n",
    "x-tok.txt": "3\n0 1 2\n1 0 zz\n2 3 0\n",
    "x-blank.txt": "3\n0 1 2\n\n2 3 0\n",
    "x-trail.txt": "2\n0 1\n1 0\nmore\n",
    "x-big.txt": "3\n0 1e308 1e308\n1e308 0 1e308\n1e308 1e308 0\n",
    "x-same.txt": "3 2\n1 2\n1 2\n1 2\n",
}

COMMANDS = [
    "generate --kind simplex --n 40 --seed 7 --output d.txt",
    "generate --kind simplex --n 40 --seed 7 --format bin --output d.bin",
    "generate --kind balls --n 30 --seed 8 --output b.txt",
    "generate --kind balls --n 30 --seed 8 --format bin --output b.bin",
    "generate --kind simplex --n 300 --seed 9 --output big.txt",
    "perturb --input p.txt --kind knn --k-nn 3 --output pk.txt",
    "perturb --input p.txt --kind noise --seed 3 --output pn.txt",
    "perturb --input p.txt --kind missing --keep-prob 0.8 --seed 4 --format bin --output pm.bin",
    *(f"embed --input d.txt --k 5 --method {m} --output e-{m}.txt"
      for m in ("cmds", "neuc", "neuc-plus")),
    *(f"select --input d.txt --k 5 --method {m} --output s-{m}.json"
      for m in ("cmds", "neuc", "neuc-plus")),
    "embed --input d.bin --k 4 --output eb.txt",
    "embed --input b.bin --k 4 --method neuc --output ebn.txt",  # a non-null avg_distortion
    "embed --input pk.txt --k 3 --output epk.txt",
    "embed --input big.txt --k 50 --method neuc-plus --output ebig.txt",
    "sweep --input d.txt --k-list 1:10:3 --output sw.csv",
    "sweep --input b.bin --format bin --k-list 2:8:2 --methods cmds,neuc --output swb.csv",
    "sweep --input pm.bin --k-list 1:5 --output swpm.csv",
    "landmark --input d.txt --k 3 --landmarks 12 --seed 2 --output lm1.txt",
    "landmark --input b.bin --k 2 --landmarks 10 --method cmds --seed 5 --output lm2.txt",
    "rmt --n 60 --c-list 0.1,0.3 --method cmds --seed 1 --trials 2 --output rc.csv",
    "rmt --n 60 --c-list 0.1,0.3 --method neuc --seed 1 --output rn.csv",
]

# run after COMMANDS, once x-short.bin and x-magic.bin exist; none may leave an output file
ERROR_COMMANDS = [
    "embed --input x-asym.txt --k 1 --output err.txt",
    "landmark --input x-asym.txt --k 1 --landmarks 2 --output err.txt",
    "sweep --input x-asym.txt --k-list 1 --output err.txt",
    "select --input x-asym.txt --k 1 --output err.txt",
    "embed --input x-tok.txt --k 1 --output err.txt",
    "embed --input x-blank.txt --k 1 --output err.txt",
    "embed --input x-trail.txt --k 1 --output err.txt",
    "embed --input x-big.txt --k 1 --output err.txt",
    "embed --input x-short.bin --k 1 --output err.txt",
    "embed --input x-magic.bin --k 1 --output err.txt",  # read as text: a decode error
    "embed --input d.txt --format bin --k 1 --output err.txt",
    "embed --input missing.txt --k 1 --output err.txt",
    "embed --input d.txt --k 0 --output err.txt",
    "select --input d.txt --k 41 --output err.txt",
    "sweep --input d.txt --k-list 0:4:2 --output err.txt",
    "rmt --n 20 --c-list 0.3 --sigma nan --output err.txt",
    "perturb --input p.txt --kind noise --sigma inf --output err.txt",
    "rmt --n 1000000000000000 --c-list 0.3 --output err.txt",  # no n x n sample: fails at once
    "sweep --input d.txt --k-list : --output err.txt",
    "embed --input d.txt --k 1 --output nodir/err.txt",
    "perturb --input x-same.txt --kind noise --output err.txt",
    "generate --kind simplex --n 5 --seed -1 --output err.txt",
]


def write_inputs(work: Path) -> None:
    gen = random.Random(5)
    rows = [" ".join("%.17g" % gen.gauss(0, 1) for _ in range(10)) for _ in range(30)]
    (work / "p.txt").write_text("30 10\n" + "".join(row + "\n" for row in rows))
    for name, text in INPUTS.items():
        (work / name).write_text(text)


def golden_run(src: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def run(command: str) -> None:
            proc = subprocess.run([sys.executable, "-m", "neucmds.cli", *command.split()],
                                  cwd=work, env=env, capture_output=True, text=True)
            records.append(f"run {command} -> exit {proc.returncode} stderr {proc.stderr!r}")

        write_inputs(work)
        for command in COMMANDS:
            run(command)
        whole = (work / "d.bin").read_bytes()
        (work / "x-short.bin").write_bytes(whole[:-1])
        (work / "x-magic.bin").write_bytes(b"XXXX" + whole[4:])
        for command in ERROR_COMMANDS:
            run(command)
        for path in work.iterdir():
            records.append(f"file {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return sorted(records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="the src directory of the tree to run")
    args = parser.parse_args(argv)
    for line in golden_run(args.src.resolve()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
