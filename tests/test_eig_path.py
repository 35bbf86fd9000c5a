"""The in-place eigensolve, the values-only solve and the Wigner sampler against
their references.

``linalg._eig_lower`` calls LAPACK's ``dsyevd`` from numpy's own OpenBLAS on the
buffer it is given; its values and vectors must be bitwise those of
``np.linalg.eigh`` and ``eigvalsh`` at every BLAS thread count, and so must its
fallback to them.  It must overwrite no caller's array, and each command's peak
must hold no copy of B.  ``eig_sym(b, vectors=False)`` computes the eigenvalues
alone; they must agree with the full solve's to rounding, in the same order, and
fail the same way.  ``sample_wigner`` draws its upper triangle strip by strip into
one n x n buffer and mirrors it in place; every sample must match
``oracle.ref_sample_wigner``, one block draw placed through a mask, bitwise.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neucmds
from neucmds import cli, linalg
from neucmds.datasets import gen_random_simplex
from neucmds.embedding import embed_from_decomposition
from neucmds.io import BINARY, write_matrix
from neucmds.linalg import _eig_lower, double_center, eig_sym
from neucmds.metrics import decompose
from neucmds.rmt import GAUSSIAN, RADEMACHER, sample_wigner
from neucmds.selection import METHODS, select

from conftest import random_hollow
from oracle import full_axis_values, ref_sample_wigner

SPECTRUM_RTOL = 1e-12  # scaled by max|lambda|
SRC = str(Path(neucmds.__file__).resolve().parents[1])


def matrices():
    rng = np.random.default_rng(7)
    yield np.zeros((1, 1))
    yield np.diag([3.0, 1.0, 1.0, -2.0])  # a tie
    for n in (2, 5, 60, 301):
        yield random_hollow(rng, n)
        yield double_center(random_hollow(rng, n))
    yield sample_wigner(200, 1.0, RADEMACHER, seed=3)


# ---------------------------------------------------------------- the in-place solve

def numpy_solve(b, vectors):
    """``np.linalg.eigh`` or ``eigvalsh`` of b, descending, as bytes: the reference."""
    lam, u = np.linalg.eigh(b) if vectors else (np.linalg.eigvalsh(b), None)
    return lam[::-1].tobytes(), None if u is None else u[:, ::-1].tobytes(order="F")


def solved(dec):
    u = dec.eigenvectors
    return dec.eigenvalues.tobytes(), None if u is None else u.tobytes(order="F")


def bitwise_symmetric(n, seed):
    """A random n x n matrix whose mirrored entries are the same bits."""
    a = np.random.default_rng(seed).normal(size=(n, n))
    return a + a.T


BITWISE = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from test_eig_path import bitwise_symmetric, numpy_solve, solved
from neucmds.linalg import _DSYEVD, _eig_lower, double_center, eig_sym
from neucmds.datasets import gen_random_simplex
assert _DSYEVD is not None
for n in (1, 2, 7, 129, 1000):
    for b in (bitwise_symmetric(n, n), double_center(gen_random_simplex(max(n, 2), seed=n))[:n, :n]):
        for vectors in (False, True):
            want = numpy_solve(b, vectors)
            # C-ordered, read as b.T; and eig_sym's Fortran-ordered copy, read as b
            assert solved(_eig_lower(b.copy(), vectors)) == want, (n, vectors)
            assert solved(eig_sym(b, vectors)) == want, (n, vectors)
print("ok")
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_in_place_solve_is_numpys_bitwise(threads):
    # BLAS reads its thread count once, at load: one fresh process per count
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-c", BITWISE, str(Path(__file__).parent)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_numpy_exports_dsyevd():
    # without the symbol every solve silently takes the fallback, two n x n larger
    assert linalg._DSYEVD is not None, "numpy's LAPACK no longer exports scipy_dsyevd_64_"
    assert linalg._bind_dsyevd() is not None


def test_a_lapack_without_the_symbol_binds_nothing(monkeypatch):
    monkeypatch.setattr(linalg.ctypes, "CDLL", lambda path: object())
    assert linalg._bind_dsyevd() is None


@pytest.mark.parametrize("n", [1, 2, 7, 129])
@pytest.mark.parametrize("vectors", [False, True])
def test_the_fallback_gives_the_same_bits(monkeypatch, n, vectors):
    b = bitwise_symmetric(n, seed=n)
    fast = solved(_eig_lower(b.copy(), vectors))
    monkeypatch.setattr(linalg, "_DSYEVD", None)
    a = b.copy()
    assert solved(_eig_lower(a, vectors)) == fast == numpy_solve(b, vectors)
    assert a.tobytes() == b.tobytes()  # numpy solves a copy
    assert solved(eig_sym(b, vectors)) == fast


def test_a_strided_buffer_is_solved_from_a_copy():
    big = bitwise_symmetric(40, seed=4)
    view = big[::2, ::2]
    before = big.copy()
    for vectors in (False, True):
        assert solved(_eig_lower(view, vectors)) == numpy_solve(view, vectors)
    assert big.tobytes() == before.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("vectors", [False, True])
def test_eig_sym_leaves_its_input_unchanged(order, vectors):
    b = np.array(double_center(gen_random_simplex(50, seed=5)), order=order)
    before = b.tobytes(order="A")
    eig_sym(b, vectors)
    assert b.tobytes(order="A") == before


def unconverged(monkeypatch):
    """Make every in-place solve report ``info = 1``, as dsyevd does when it fails."""
    real = linalg._DSYEVD

    def fail(*args):
        real(*args)
        args[10]._obj.value = 1  # info, passed by reference
    monkeypatch.setattr(linalg, "_DSYEVD", fail)


@pytest.mark.parametrize("vectors", [False, True])
def test_no_convergence_raises(monkeypatch, vectors):
    unconverged(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        eig_sym(np.eye(3), vectors)


@pytest.mark.parametrize("command", [
    ["embed", "--input", "d.bin", "--k", "2"],
    ["select", "--input", "d.bin", "--k", "2"],
    ["sweep", "--input", "d.bin", "--k-list", "1:3"],
    ["landmark", "--input", "d.bin", "--k", "2", "--landmarks", "5"],
    ["rmt", "--n", "20", "--c-list", "0.3"],
], ids=lambda argv: argv[0])
def test_no_convergence_is_four(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    write_matrix("d.bin", gen_random_simplex(9, seed=2), BINARY)
    unconverged(monkeypatch)
    assert cli.main([*command, "--output", "out"]) == 4
    assert capsys.readouterr().err == "numerical error: Eigenvalues did not converge\n"
    assert sorted(os.listdir()) == ["d.bin"]


PEAK = """
import sys
from neucmds import cli

def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key + ":"))

base = status("VmRSS")
assert cli.main(sys.argv[1:]) == 0
print(status("VmHWM") - base)
"""

PEAK_N = 1500

# The n x n arrays each command holds at its solve, plus about half of one for
# BLAS buffers and the heap: d read, B and dsyevd's workspace of 2 n x n for
# embed; d with B centered into it for sweep (plus the workspace) and select;
# rmt's sample buffer.  With numpy's eigh, which solves a copy of B and copies
# the eigenvectors out twice, they read 6.4, 5.4, 2.1 and 2.5 n x n at n = 1500.
PEAK_BOUND = {"embed": 4.6, "sweep": 3.6, "select": 1.6, "rmt": 2.0}


@pytest.fixture(scope="module")
def peak_input(tmp_path_factory):
    path = tmp_path_factory.mktemp("peak") / "d.bin"
    write_matrix(path, gen_random_simplex(PEAK_N, seed=3), BINARY)
    return path


@pytest.mark.parametrize("command", [
    ["embed", "--input", "{d}", "--k", "20"],
    ["sweep", "--input", "{d}", "--k-list", "5:50:5"],
    ["select", "--input", "{d}", "--k", "20"],
    ["rmt", "--n", str(PEAK_N), "--c-list", "0.5", "--trials", "2"],
], ids=lambda argv: argv[0])
def test_the_solve_holds_no_copy_of_b(tmp_path, peak_input, command):
    # VmHWM of a fresh process: tracemalloc does not see LAPACK's workspace, nor
    # the buffers numpy's own eigh allocates in C
    argv = [a.format(d=peak_input) for a in command] + ["--output", str(tmp_path / "out")]
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PEAK, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
    grown = int(proc.stdout) * 1024 / (8 * PEAK_N * PEAK_N)  # in n x n arrays
    assert grown < PEAK_BOUND[command[0]]


# ---------------------------------------------------------------- eig_sym

@pytest.mark.parametrize("b", list(matrices()), ids=lambda b: f"n{b.shape[0]}")
def test_values_only_matches_full_solve(b):
    full = eig_sym(b)
    vals = eig_sym(b, vectors=False)
    assert vals.eigenvectors is None
    assert vals.eigenvalues.shape == full.eigenvalues.shape == (b.shape[0],)
    assert vals.n == full.n
    assert np.all(np.diff(vals.eigenvalues) <= 0.0)
    assert np.all(np.diff(full.eigenvalues) <= 0.0)
    scale = max(float(np.max(np.abs(full.eigenvalues))), 1.0)
    np.testing.assert_allclose(vals.eigenvalues, full.eigenvalues,
                               rtol=0.0, atol=SPECTRUM_RTOL * scale)


def test_values_only_is_deterministic():
    b = random_hollow(np.random.default_rng(3), 90)
    a = eig_sym(b, vectors=False).eigenvalues
    assert a.tobytes() == eig_sym(b, vectors=False).eigenvalues.tobytes()


def test_asymmetric_input_fails_the_same_way_on_both_paths():
    b = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.5, 0.0]])
    messages = []
    for vectors in (True, False):
        with pytest.raises(ValueError) as info:
            eig_sym(b, vectors=vectors)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "not symmetric: entry (1,2)=3.0 but (2,1)=3.5" in messages[0]


def test_non_square_input_fails_the_same_way_on_both_paths():
    messages = []
    for vectors in (True, False):
        with pytest.raises(ValueError) as info:
            eig_sym(np.zeros((2, 3)), vectors=vectors)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("n", [30, 200])
def test_select_chooses_the_same_on_both_paths(n):
    b = double_center(gen_random_simplex(n, seed=11))
    full = eig_sym(b).eigenvalues
    vals = eig_sym(b, vectors=False).eigenvalues
    for method in METHODS:
        for k in (1, 2, n // 10, n // 2, n - 1, n):
            want = select(full, k, method)
            got = select(vals, k, method)
            np.testing.assert_array_equal(got.chosen, want.chosen)
            assert (got.r, got.s) == (want.r, want.s)


# chosen indices of `select --k 12` on random_hollow(default_rng(8), 60),
# recorded with the full eigensolve and the loop-started accumulators
SELECT_CHOSEN = {
    "cmds": list(range(12)),
    "neuc": [59, 0, 58, 1, 57, 2, 56, 3, 55, 4, 54, 5],
    "neuc-plus": [0, 59, 58, 1, 57, 2, 56, 3, 4, 55, 54, 5],
}


@pytest.mark.parametrize("method", METHODS)
def test_select_command_keeps_its_choice(tmp_path, monkeypatch, method):
    monkeypatch.chdir(tmp_path)
    write_matrix("d.txt", random_hollow(np.random.default_rng(8), 60))
    assert cli.main(["select", "--input", "d.txt", "--k", "12", "--method", method,
                     "--output", "s.json"]) == 0
    with open("s.json") as fh:
        out = json.load(fh)
    assert out["chosen"] == SELECT_CHOSEN[method]
    assert out["r"] + out["s"] == 12


# ---------------------------------------------------------------- guards

def test_embedding_needs_eigenvectors():
    d = random_hollow(np.random.default_rng(5), 12)
    dec = eig_sym(double_center(d), vectors=False)
    with pytest.raises(ValueError, match="computed without eigenvectors"):
        embed_from_decomposition(dec, 3, "neuc")


def test_decompose_needs_eigenvectors():
    d = random_hollow(np.random.default_rng(6), 12)
    full = eig_sym(double_center(d))
    emb = embed_from_decomposition(full, 3, "neuc")
    args = (full.eigenvalues, None, full_axis_values(emb))
    with pytest.raises(ValueError, match="computed without eigenvectors"):
        decompose(*args)


# ---------------------------------------------------------------- sample_wigner

@pytest.mark.parametrize("n", [2, 3, 50, 301])
@pytest.mark.parametrize("dist", [GAUSSIAN, RADEMACHER])
@pytest.mark.parametrize("seed", [0, 1, 17, 2**31 + 5])
def test_sample_wigner_is_bitwise_equal(n, dist, seed):
    got = sample_wigner(n, 1.0, dist, seed=seed)
    want = ref_sample_wigner(n, 1.0, dist, seed=seed)
    assert got.tobytes() == want.tobytes()
    assert got.shape == (n, n) and got.flags.c_contiguous


@pytest.mark.parametrize("sigma", [0.25, 3.0])
def test_sample_wigner_with_sigma_is_bitwise_equal(sigma):
    for dist in (GAUSSIAN, RADEMACHER):
        got = sample_wigner(40, sigma, dist, seed=9)
        assert got.tobytes() == ref_sample_wigner(40, sigma, dist, seed=9).tobytes()
