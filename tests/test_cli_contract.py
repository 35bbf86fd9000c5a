"""The command-line contract on the edges of each option's domain, and
determinism across BLAS thread counts.

Every command runs in-process on argv drawn from domain edges: 0, -1, nan,
inf, 10**15, empty and repeated list tokens, a truncated binary file, a file
with the wrong magic, an output in a missing directory, and a finite hollow
symmetric input near 1e160 whose squared eigenvalues overflow, which is a
numerical error (exit 4) with no output.  Sizes are tiny,
or 10**15 so that the first allocation fails at once; ``--trials`` never
takes the large value, since ``rmt`` would go on sampling.  Whatever the
argv, the exit code is 0, 2, 3 or 4, exits 3 and 4 print exactly one stderr
line, nothing prints a traceback or a warning, and a failing command leaves
no output file and no temp file.  An embedding and its report are written
together or not at all, and a file that is no UTF-8 text is named in the
decode error.

``embed``, ``select``, ``sweep``, ``landmark`` and ``rmt`` each run at 1 and
at 2 BLAS threads: picks, signatures and counts must be equal, and the
numbers within the contract of each output (``embed``'s coordinates to
1e-12 of their largest; the sweep's rows to 1e-10 relative above a floor of
1e-12 ||d||^2, which also holds the selection's bound terms).
"""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import neucmds
from neucmds.cli import main
from neucmds.datasets import gen_euclidean_ball, gen_random_simplex
from neucmds.io import BINARY, BINARY_VERSION, MAGIC, TEXT, write_matrix, write_points

BIG = str(10**15)
EDGES = ["0", "-1", "nan", "inf", BIG]
MATRIX = ["--input", "d.txt"]
POINTS = ["--input", "p.txt"]
RMT = ["--n", "10", "--c-list", "0.3"]
HUGE = ["--input", "huge.txt"]
OVERFLOWS = [
    ["embed", *HUGE, "--k", "2"],
    ["select", *HUGE, "--k", "2"],
    ["sweep", *HUGE, "--k-list", "1:3"],
    ["landmark", *HUGE, "--k", "2", "--landmarks", "5"],
]


def edge_cases():
    for v in EDGES:
        yield ["embed", *MATRIX, "--k", v]
        yield ["select", *MATRIX, "--k", v]
        yield ["sweep", *MATRIX, "--k-list", v]
        yield ["landmark", *MATRIX, "--k", v, "--landmarks", "5"]
        yield ["landmark", *MATRIX, "--k", "2", "--landmarks", v]
        yield ["landmark", *MATRIX, "--k", "2", "--landmarks", "5", "--seed", v]
        yield ["generate", "--kind", "simplex", "--n", v]
        yield ["generate", "--kind", "balls", "--n", v]
        yield ["generate", "--kind", "balls", "--n", "5", "--seed", v]
        yield ["perturb", *POINTS, "--kind", "knn", "--k-nn", v]
        yield ["perturb", *POINTS, "--kind", "noise", "--sigma", v]
        yield ["perturb", *POINTS, "--kind", "noise", "--seed", v]
        yield ["perturb", *POINTS, "--kind", "missing", "--keep-prob", v]
        yield ["perturb", *POINTS, "--kind", "missing", "--seed", v]
        yield ["rmt", "--n", v, "--c-list", "0.3"]
        yield ["rmt", "--n", "10", "--c-list", v]
        yield ["rmt", *RMT, "--sigma", v]
        yield ["rmt", *RMT, "--seed", v]
        if v != BIG:
            yield ["rmt", *RMT, "--trials", v]
    for k_list in ["", ":", "::", "1:", "2:1", "1:3:0", "1:2:3:4", "1,1"]:
        yield ["sweep", *MATRIX, "--k-list", k_list]
    for methods in ["", ",", "neuc,neuc", "cmds,"]:
        yield ["sweep", *MATRIX, "--k-list", "2", "--methods", methods]
    for c_list in ["", ",", "0.3,0.3", "0.3,,0.4"]:
        yield ["rmt", "--n", "10", "--c-list", c_list]
    for name in ["short.bin", "magic.bin"]:
        for fmt in ([], ["--format", BINARY]):
            yield ["embed", "--input", name, *fmt, "--k", "2"]
            yield ["select", "--input", name, *fmt, "--k", "2"]
            yield ["sweep", "--input", name, *fmt, "--k-list", "1:3"]
            yield ["landmark", "--input", name, *fmt, "--k", "2", "--landmarks", "5"]
        yield ["perturb", "--input", name, "--kind", "knn"]
    yield from OVERFLOWS


VALID = [
    ["embed", *MATRIX, "--k", "2"],
    ["select", *MATRIX, "--k", "2"],
    ["sweep", *MATRIX, "--k-list", "1:3"],
    ["landmark", *MATRIX, "--k", "2", "--landmarks", "5"],
    ["generate", "--kind", "simplex", "--n", "5"],
    ["perturb", *POINTS, "--kind", "knn"],
    ["rmt", *RMT],
]
CASES = ([[*argv, "--output", "out"] for argv in edge_cases()]
         + [[*argv, "--output", "missing/out"] for argv in VALID])


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """A fresh directory holding the input files, as the working directory."""
    monkeypatch.chdir(tmp_path)
    d = gen_random_simplex(8, seed=1)
    write_matrix("d.txt", d, TEXT)
    write_matrix("d.bin", d, BINARY)
    huge = 1e160 * (2.0 + np.abs(d))
    np.fill_diagonal(huge, 0.0)
    write_matrix("huge.txt", huge, TEXT)
    whole = Path("d.bin").read_bytes()
    Path("short.bin").write_bytes(whole[:-3])
    Path("magic.bin").write_bytes(b"XXXX" + whole[4:])
    write_points("p.txt", np.random.default_rng(0).normal(size=(6, 2)))
    return tmp_path


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(argv) for argv in CASES])
def test_cli_contract(argv, inputs, capsys):
    before = set(os.listdir(inputs))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)  # an uncaught exception fails the test with its traceback
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    err = capsys.readouterr().err
    left = sorted(set(os.listdir(inputs)) - before)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    assert [str(w.message) for w in caught] == []  # each would print its own stderr lines
    if code in (3, 4):
        assert err.endswith("\n") and err.count("\n") == 1, err
    if code != 0:
        assert left == []
    assert not [name for name in left if name.startswith(".tmp-")]


@pytest.mark.parametrize("argv", OVERFLOWS, ids=[argv[0] for argv in OVERFLOWS])
def test_overflow_is_a_numerical_error(argv, inputs, capsys):
    assert main([*argv, "--output", "out"]) == 4
    assert capsys.readouterr().err.startswith("numerical error: ")


# ---------------------------------------------------------------- write and read failures

EMBEDDINGS = [["embed", *MATRIX, "--k", "2"], ["landmark", *MATRIX, "--k", "2", "--landmarks", "5"]]


@pytest.mark.parametrize("old", [None, b"old"], ids=["new", "old"])
@pytest.mark.parametrize("directory", ["out", "out.report.json"])
@pytest.mark.parametrize("argv", EMBEDDINGS, ids=["embed", "landmark"])
def test_embedding_and_report_are_both_written_or_neither(argv, directory, old, inputs, capsys):
    # a directory in the way of either file fails the command before any rename
    os.mkdir(directory)
    other = "out.report.json" if directory == "out" else "out"
    if old is not None:
        Path(other).write_bytes(old)
    before = sorted(os.listdir(inputs))
    assert main([*argv, "--output", "out"]) == 3
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{directory}'\n"
    assert sorted(os.listdir(inputs)) == before
    assert os.listdir(directory) == []
    if old is not None:
        assert Path(other).read_bytes() == old


@pytest.mark.parametrize("argv", [["embed", "--k", "2"], ["select", "--k", "2"],
                                  ["perturb", "--kind", "knn"]], ids=["embed", "select", "perturb"])
def test_decode_error_names_the_input(argv, inputs, capsys):
    # the reader raises the whole-file UnicodeDecodeError, whose message names no file
    with pytest.raises(UnicodeDecodeError) as info:
        Path("magic.bin").read_bytes().decode()
    assert main([*argv, "--input", "magic.bin", "--output", "out"]) == 3
    assert capsys.readouterr().err == f"error: magic.bin: {info.value}\n"


@pytest.mark.parametrize("argv", [["embed", "--k", "1"], ["select", "--k", "1"],
                                  ["sweep", "--k-list", "1"],
                                  ["landmark", "--k", "1", "--landmarks", "2"]],
                         ids=["embed", "select", "sweep", "landmark"])
@pytest.mark.parametrize("fmt", [[], ["--format", BINARY]], ids=["sniffed", "bin"])
def test_binary_header_with_n_0_is_a_data_error(argv, fmt, inputs, capsys):
    # a header alone is a whole file for n = 0: it must fail as a text "0" does
    Path("zero.bin").write_bytes(MAGIC + bytes([BINARY_VERSION]) + bytes(8))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--input", "zero.bin", *fmt, "--output", "out"]) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "error: zero.bin: count must be positive, got n=0\n"
    assert not Path("out").exists()


# ---------------------------------------------------------------- BLAS threads

SRC = str(Path(neucmds.__file__).resolve().parents[1])
EMBED = """
import sys
import numpy as np
from neucmds.embedding import embed_from_decomposition, spectrum
from neucmds.io import read_matrix
from neucmds.selection import select
k = int(sys.argv[2])
dec, _ = spectrum(read_matrix(sys.argv[1]), [(k, "neuc")], "d")  # embed's own steps, dec kept for the picks
emb = embed_from_decomposition(dec, k, "neuc")
np.savez(sys.argv[3], chosen=select(dec.eigenvalues, k, "neuc").chosen, coords=emb.coords)
"""


@pytest.mark.parametrize("gen, n, k", [(gen_random_simplex, 300, 20),
                                       (gen_euclidean_ball, 400, 30)],
                         ids=["simplex", "balls"])
def test_embed_agrees_across_blas_thread_counts(gen, n, k, tmp_path):
    inp = tmp_path / "d.bin"
    write_matrix(inp, gen(n, seed=3), BINARY)
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.npz"
        run_at(threads, "-c", EMBED, str(inp), str(k), str(out))
        runs.append(np.load(out))
    one, two = runs
    assert one["chosen"].tolist() == two["chosen"].tolist()
    x = one["coords"]
    assert np.max(np.abs(x - two["coords"])) <= 1e-12 * np.max(np.abs(x))


def run_at(threads, *args):
    """``python *args`` with the source tree on the path and BLAS at ``threads``."""
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def cli_at_both(tmp_path, argv, suffix):
    """The output paths of one command run at 1 and then at 2 BLAS threads."""
    outs = [tmp_path / f"t{threads}{suffix}" for threads in ("1", "2")]
    for threads, out in zip(("1", "2"), outs):
        run_at(threads, "-m", "neucmds.cli", *argv, "--output", str(out))
    return outs


# the sweep rows' contract against the direct report (tests/test_spectral_sweep.py)
RTOL = 1e-10
FLOOR = 1e-12


def assert_close(a, b, floor=0.0, rtol=RTOL):
    assert abs(a - b) <= max(rtol * abs(b), floor), (a, b)


@pytest.fixture(scope="module")
def simplex(tmp_path_factory):
    """A binary simplex matrix and its floor, FLOOR ||d||^2."""
    path = tmp_path_factory.mktemp("threads") / "d.bin"
    d = gen_random_simplex(300, seed=3)
    write_matrix(path, d, BINARY)
    return str(path), FLOOR * float(np.vdot(d, d))


def test_select_agrees_across_blas_thread_counts(simplex, tmp_path):
    path, floor = simplex
    one, two = (json.loads(out.read_text()) for out in
                cli_at_both(tmp_path, ["select", "--input", path, "--k", "20"], ".json"))
    for key in ("method", "k", "chosen", "r", "s"):
        assert one[key] == two[key], key
    for key in ("bound_c1", "bound_c2", "objective"):
        assert_close(one[key], two[key], floor)


def test_sweep_agrees_across_blas_thread_counts(simplex, tmp_path):
    # the whole curve, three methods: every row within the sweep's contract
    path, floor = simplex
    one, two = (list(csv.DictReader(out.open())) for out in
                cli_at_both(tmp_path, ["sweep", "--input", path, "--k-list", "1:300"], ".csv"))
    assert len(one) == len(two) == 900
    for a, b in zip(one, two):
        for key in ("k", "method", "avg_distortion", "neg_dissim_count", "neg_axes_count"):
            assert a[key] == b[key], key
        for key in ("stress_sq", "c1", "c2", "c3"):
            assert_close(float(a[key]), float(b[key]), floor)
        for key in ("stress", "scaled_additive"):  # held as squares, as the contract is
            assert_close(float(a[key]) ** 2, float(b[key]) ** 2, floor)


def test_landmark_agrees_across_blas_thread_counts(tmp_path):
    inp = tmp_path / "d.bin"
    write_matrix(inp, gen_euclidean_ball(1000, seed=3), BINARY)
    argv = ["landmark", "--input", str(inp), "--k", "20", "--landmarks", "300", "--seed", "1"]
    outs = cli_at_both(tmp_path, argv, ".txt")
    (head1, sig1, *body1), (head2, sig2, *body2) = (out.read_text().splitlines() for out in outs)
    assert (head1, sig1) == (head2, sig2)
    x1, x2 = (np.array(" ".join(body).split(), dtype=np.float64) for body in (body1, body2))
    assert np.max(np.abs(x1 - x2)) <= 1e-12 * np.max(np.abs(x1))  # embed's contract
    one, two = (json.loads(Path(f"{out}.report.json").read_text()) for out in outs)
    for key, value in one.items():
        if isinstance(value, float):
            assert_close(value, two[key])
        else:
            assert value == two[key], key


def test_rmt_agrees_across_blas_thread_counts(tmp_path):
    argv = ["rmt", "--n", "300", "--c-list", "0.1,0.3,0.5", "--trials", "2", "--seed", "1"]
    one, two = (list(csv.DictReader(out.open())) for out in cli_at_both(tmp_path, argv, ".csv"))
    assert len(one) == len(two) == 3
    for a, b in zip(one, two):
        for key in ("c", "r", "theory"):  # no BLAS call makes these
            assert a[key] == b[key], key
        assert_close(float(a["empirical"]), float(b["empirical"]))
        assert abs(float(a["rel_err"]) - float(b["rel_err"])) <= RTOL  # a relative error itself
