"""Golden CLI run: the bytes and exit statuses of a fixed command set.

Runs 35 commands that succeed and 28 that fail with ``python -m neucmds.cli``
from the source tree given by ``--src`` (by default the one beside this
script), in a new empty directory, with one BLAS thread (results are not
bitwise identical across thread counts).  It then prints one sorted line per
record: the sha256 of every file left in the directory (64 files), and the
exit code and stderr of every command (127 records in all).  Two trees give
the same output exactly when the CLI is byte-identical on this set.  A
refactor is checked with

    python3 tests/golden_run.py --parent <parent>/src

which runs both trees and prints only the records that differ, each as a
``parent:`` and a ``change:`` line (``-`` for a record the tree lacks), and
exits 1 if any record differs.  The code no command runs is listed with

    python3 tests/golden_run.py --unreached

which runs the same commands in process through ``cli.main``, under a
``sys.setprofile`` hook, and lists each function defined in the tree's
``neucmds/*.py`` that none of them enters, as ``module.qualname`` (class
bodies and comprehensions left out).  ``KEPT`` names the functions that stay
although no command enters them, each with its reason.  The command prints
each listed function outside ``KEPT``, one a line, then each entry of
``KEPT`` that a command does enter or that the tree does not define, and
exits 1 if it printed anything.

The name has no ``test_`` prefix, so pytest does not collect it.  The empty
directory is made under ``$TMPDIR``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import os
import random
import subprocess
import sys
import tempfile
import types
from pathlib import Path


def tiles_text():
    """A 300-point |i - j| table but for an asymmetric entry at (5, 259), in tile
    pair (0, 2) of the input check's 128-wide walk, and a nan at (260, 1), in a
    later row of that pair's mirror tile: the message names the nan."""
    cell = {(5, 259): "7.5", (260, 1): "nan"}
    return "300\n" + "".join(" ".join(cell.get((i, j), str(abs(i - j))) for j in range(300)) + "\n"
                             for i in range(300))


INPUTS = {
    "x-asym.txt": "2\n0 1\n2 0\n",
    "x-tok.txt": "3\n0 1 2\n1 0 zz\n2 3 0\n",
    "x-blank.txt": "3\n0 1 2\n\n2 3 0\n",
    "x-trail.txt": "2\n0 1\n1 0\nmore\n",
    "x-big.txt": "3\n0 1e308 1e308\n1e308 0 1e308\n1e308 1e308 0\n",
    "x-same.txt": "3 2\n1 2\n1 2\n1 2\n",
    "x-fine.txt": "5\n0 1 1 2 1e-10\n1 0 2 1 1\n1 2 0 1 1\n2 1 1 0 2\n1e-10 1 1 2 0\n",
    # a token np.loadtxt rejects, so the block takes the per-row path, and an NBSP separator
    "x-fallback.txt": "3\n0 1_0 2\n10\xa00 3\n2 3 0\n",
    # finite, hollow and symmetric, but the squared eigenvalues overflow
    "x-huge.txt": "8\n" + "".join(" ".join("0" if i == j else "1e160" for j in range(8)) + "\n"
                                  for i in range(8)),
    # no eigenvalue on either side: a k=0 landmark embedding of bare newline rows
    "x-zero4.txt": "4\n" + "0 0 0 0\n" * 4,
    "x-tiles.txt": tiles_text(),
}

COMMANDS = [
    "generate --kind simplex --n 40 --seed 7 --output d.txt",
    "generate --kind simplex --n 40 --seed 7 --format bin --output d.bin",
    "generate --kind balls --n 30 --seed 8 --output b.txt",
    "generate --kind balls --n 30 --seed 8 --format bin --output b.bin",
    "generate --kind simplex --n 300 --seed 9 --output big.txt",
    # above the report's 256-point pilot: its pairs lie within 6 groups of 100 points
    "generate --kind balls --n 600 --seed 10 --format bin --output b600.bin",
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
    "embed --input b600.bin --k 20 --method neuc --output e600.txt",
    # text in e-XX notation, below 1e-4 and -0: cmds zero-fills the axes past the positives
    "embed --input x-fine.txt --k 5 --method cmds --output efine.txt",
    "embed --input x-fallback.txt --k 2 --output efb.txt",
    "sweep --input d.txt --k-list 1:10:3 --output sw.csv",
    "sweep --input b.bin --format bin --k-list 2:8:2 --methods cmds,neuc --output swb.csv",
    "sweep --input pm.bin --k-list 1:5 --output swpm.csv",
    # B all zeros: each row pins the sign of its zeros
    "sweep --input x-zero4.txt --k-list 1:3 --output sw0.csv",
    "select --input x-zero4.txt --k 1 --output s0.json",
    "select --input b.bin --format bin --k 3 --output sb.json",
    "landmark --input d.txt --k 3 --landmarks 12 --seed 2 --output lm1.txt",
    "landmark --input b.bin --k 2 --landmarks 10 --method cmds --seed 5 --output lm2.txt",
    "landmark --input x-zero4.txt --k 1 --landmarks 3 --output lm0.txt",
    "landmark --input b600.bin --k 5 --landmarks 60 --seed 3 --output lm600.txt",
    "rmt --n 60 --c-list 0.1,0.3 --method cmds --seed 1 --trials 2 --output rc.csv",
    "rmt --n 60 --c-list 0.1,0.3 --method neuc --seed 1 --output rn.csv",
    # one buffer reused by three trials that cross a strip boundary, Rademacher draws
    "rmt --n 130 --c-list 0.1,0.5 --trials 3 --dist rademacher --sigma 2.5 --method cmds "
    "--seed 2 --output rr.csv",
]

# run after COMMANDS, once x-short.bin, x-magic.bin and x-zero.bin exist;
# none may leave an output file
ERROR_COMMANDS = [
    "embed --input x-asym.txt --k 1 --output err.txt",
    "landmark --input x-asym.txt --k 1 --landmarks 2 --output err.txt",
    "sweep --input x-asym.txt --k-list 1 --output err.txt",
    "select --input x-asym.txt --k 1 --output err.txt",
    "embed --input x-tok.txt --k 1 --output err.txt",
    "embed --input x-blank.txt --k 1 --output err.txt",
    "embed --input x-trail.txt --k 1 --output err.txt",
    "embed --input x-big.txt --k 1 --output err.txt",
    "sweep --input x-big.txt --k-list 1 --output err.txt",  # centering overflow: exit 4
    "select --input x-big.txt --k 1 --output err.txt",
    "embed --input x-tiles.txt --k 1 --output err.txt",  # bad entries past the first tile
    "embed --input x-short.bin --k 1 --output err.txt",
    "embed --input x-magic.bin --k 1 --output err.txt",  # read as text: a decode error
    "embed --input x-zero.bin --k 1 --output err.txt",  # a binary header with n = 0
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
    "embed --input x-huge.txt --k 1 --output err.txt",  # a numerical error: exit 4
    "rmt --n 20 --c-list 0.3 --method neuc-plus --output err.txt",  # rmt offers cmds and neuc
]


def write_inputs(work: Path) -> None:
    gen = random.Random(5)
    rows = [" ".join("%.17g" % gen.gauss(0, 1) for _ in range(10)) for _ in range(30)]
    (work / "p.txt").write_text("30 10\n" + "".join(row + "\n" for row in rows))
    for name, text in INPUTS.items():
        (work / name).write_bytes(text.encode())


def run_set(work: Path, run) -> None:
    """Write the inputs to ``work``, then pass each command of the set to ``run``."""
    write_inputs(work)
    for command in COMMANDS:
        run(command)
    whole = (work / "d.bin").read_bytes()
    (work / "x-short.bin").write_bytes(whole[:-1])
    (work / "x-magic.bin").write_bytes(b"XXXX" + whole[4:])
    (work / "x-zero.bin").write_bytes(whole[:5] + bytes(8))
    for command in ERROR_COMMANDS:
        run(command)


def golden_run(src: Path) -> dict[str, str]:
    """Each record of the tree ``src``, by name: a command, or a file."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def run(command: str) -> None:
            proc = subprocess.run([sys.executable, "-m", "neucmds.cli", *command.split()],
                                  cwd=work, env=env, capture_output=True, text=True)
            records[f"run {command}"] = f"-> exit {proc.returncode} stderr {proc.stderr!r}"

        run_set(work, run)
        for path in work.iterdir():
            records[f"file {path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return records


COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"}

# each function of the package that no command of the set enters, and why it
# stays; --unreached, and a tier-1 test, fail on any other
TRACED = "named by perfbench/tracer.py; a whole-matrix reference of metrics.report"
KEPT = {
    "embedding.reconstruct": "named by perfbench/tracer.py; d-hat, the report path's reference",
    "embedding.reconstruct.<locals>.<lambda>": "the row sums of reconstruct",
    "io.write_points": "documented API: the point-cloud writer",
    "linalg.eig_sym": "named by perfbench/tracer.py; documented API: the checked symmetric solve",
    "metrics._pair": "the input check of the whole-matrix metrics",
    "metrics.stress": TRACED,
    "metrics.scaled_additive_error": TRACED,
    "metrics.avg_geometric_distortion": TRACED,
    "metrics.negativity_stats": TRACED,
    "rmt.semicircle_mass": "the semicircle law that acceptance 7 checks",
    "rmt.semicircle_mass.<locals>.antideriv": "the integral inside semicircle_mass",
    "rmt.sample_wigner": "named by perfbench/tracer.py; the reference of lab_table's draw",
}


def unreached(src: Path) -> list[str]:
    """Each function defined in ``src``'s ``neucmds/*.py`` that no command of
    the set enters, as ``module.qualname``, in file and line order.  The
    commands run in this process through ``cli.main``, under a
    ``sys.setprofile`` hook set before the package is imported, which notes
    the code of every Python frame entered.  Class bodies and
    comprehensions are not listed."""
    entered = set()

    def note(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.path.insert(0, str(src))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null, \
            contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
        os.chdir(tmp)
        sys.setprofile(note)
        try:
            from neucmds import cli

            def run(command: str) -> None:
                try:
                    cli.main(command.split())
                except SystemExit:  # a usage error, exit 2
                    pass

            run_set(Path(tmp), run)
        finally:
            sys.setprofile(None)
            os.chdir(cwd)
    reached = {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}
    return [name for key, name in functions(src) if key not in reached]


def functions(src: Path) -> list[tuple[tuple, str]]:
    """(code key, ``module.qualname``) of each function defined in ``src``'s
    ``neucmds/*.py``, in file and line order, class bodies and comprehensions
    left out; the key is ``(filename, first line, name)`` of its code."""
    found = []
    for path in sorted((src / "neucmds").glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            if code.co_flags & inspect.CO_OPTIMIZED and code.co_name not in COMPREHENSIONS:
                qualname = getattr(code, "co_qualname", code.co_name)
                found.append(((str(path), code.co_firstlineno, code.co_name),
                              f"{path.stem}.{qualname}"))
    return sorted(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory of the tree to run")
    parser.add_argument("--parent", type=Path,
                        help="the src directory of a parent tree: print only the records "
                             "that differ from it, and exit 1 if any does")
    parser.add_argument("--unreached", action="store_true",
                        help="run the commands in process and print each function of the "
                             "tree's neucmds/*.py that none enters, outside KEPT, and each "
                             "entry of KEPT that one enters or the tree lacks; exit 1 if any "
                             "is printed")
    args = parser.parse_args(argv)
    if args.unreached:
        names = unreached(args.src.resolve())
        for name in names:
            if name not in KEPT:
                print(name)
        defined = {name for _, name in functions(args.src.resolve())}
        for name in KEPT:
            if name not in names:
                why = "a command enters it" if name in defined else "not defined"
                print(f"{name} (in KEPT, but {why})")
        return 1 if set(names) ^ KEPT.keys() else 0
    change = golden_run(args.src.resolve())
    if args.parent is None:
        for name in sorted(change):
            print(name, change[name])
        return 0
    parent = golden_run(args.parent.resolve())
    differ = sorted(name for name in parent.keys() | change.keys()
                    if parent.get(name) != change.get(name))
    for name in differ:
        print(f"parent: {name} {parent.get(name, '-')}")
        print(f"change: {name} {change.get(name, '-')}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
