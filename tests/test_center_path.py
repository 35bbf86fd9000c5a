"""Centering into d itself (``overwrite``) against the default fresh B.

With ``overwrite``, ``double_center`` writes B into the caller's d, and
``spectrum`` and ``sweep`` pass the flag through; only the ``select`` and
``sweep`` commands set it.  Every decomposition, sweep row and selection
must match the default's bitwise (``test_builders_path`` checks B itself),
a d that fails validation stays untouched, and an overflow still raises.
The default never changes the caller's d, and with ``overwrite`` no n x n
is allocated before the solve.
"""

import tracemalloc

import numpy as np
import pytest

from neucmds import cli, embedding
from neucmds.datasets import gen_random_simplex
from neucmds.embedding import embed, spectrum, sweep
from neucmds.io import write_matrix
from neucmds.landmark import embed_landmark, fit_landmarks
from neucmds.linalg import BLOCK, double_center
from neucmds.selection import METHODS, NEUC, select

from conftest import random_hollow

SIZES = [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1]
M = np.finfo(np.float64).max


def inputs(n, seed=0):
    """A random hollow matrix with -0.0 entries, an all-zero and an all -0.0 one."""
    rng = np.random.default_rng(seed + n)
    d = random_hollow(rng, n)
    neg = np.triu(rng.random((n, n)) < 0.1, 1)
    d[neg | neg.T] = -0.0
    return [d, np.zeros((n, n)), np.full((n, n), -0.0)]


def same_decomposition(a, b):
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert (a.eigenvectors is None) == (b.eigenvectors is None)
    if a.eigenvectors is not None:
        assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()


# ---------------------------------------------------------------- the solve

@pytest.mark.parametrize("n", SIZES)
def test_overwrite_gives_the_default_decomposition(n):
    for d in inputs(n):
        for vectors in (True, False):
            want, _ = spectrum(d, [], vectors=vectors)
            a = d.copy()
            got, _ = spectrum(a, [], vectors=vectors, overwrite=True)
            same_decomposition(got, want)


def test_sweep_rows_are_the_default():
    d = gen_random_simplex(200, seed=61)
    k_list = range(10, 160, 30)
    want = [(e.k, e.method, repr(e.report.to_dict())) for e in sweep(d, k_list, METHODS)]
    got = sweep(d.copy(), k_list, METHODS, overwrite=True)
    assert [(e.k, e.method, repr(e.report.to_dict())) for e in got] == want


@pytest.mark.parametrize("method", METHODS)
def test_select_is_the_default(method):
    d = gen_random_simplex(150, seed=62)
    lam = spectrum(d, [], vectors=False)[0].eigenvalues
    dec, [(k, m)] = spectrum(d.copy(), [(7, method)], vectors=False, overwrite=True)
    assert dec.eigenvalues.tobytes() == lam.tobytes()
    got, want = select(dec.eigenvalues, k, m), select(lam, 7, method)
    assert got.chosen.tobytes() == want.chosen.tobytes()
    assert (got.r, got.s, got.objective) == (want.r, want.s, want.objective)


# ---------------------------------------------------------------- the caller's d

def test_the_default_leaves_d_unchanged():
    d = inputs(BLOCK + 5)[0]
    calls = [
        lambda a: double_center(a),
        lambda a: spectrum(a, [(3, NEUC)]),
        lambda a: spectrum(a, [(3, NEUC)], vectors=False),
        lambda a: sweep(a, [2, 3]),
        lambda a: embed(a, 3),
        lambda a: fit_landmarks(a, 20, 3, seed=1),
        lambda a: embed_landmark(a, 20, 3, seed=1),
    ]
    for call in calls:
        a = d.copy()
        call(a)
        assert a.tobytes() == d.tobytes()


def test_overwrite_writes_only_into_a_writable_float64_d():
    d = inputs(40)[0]
    want = double_center(d).tobytes()
    frozen = d.copy()
    frozen.flags.writeable = False
    for a in (frozen, d.astype(np.float32), d.tolist()):
        before = np.array(a).tobytes()
        b = double_center(a, overwrite=True)
        assert b is not a and np.array(a).tobytes() == before
    assert double_center(frozen, overwrite=True).tobytes() == want
    a = d.copy()
    assert double_center(a, overwrite=True) is a
    assert a.tobytes() == want


def _bad_inputs(n):
    d = inputs(n)[0]
    for i, j, value in ((3, n - 2, 0.25), (n - 2, 3, np.nan), (n - 1, 1, np.inf)):
        bad = d.copy()
        bad[i, j] = value
        yield bad
    bad = d.copy()
    bad[n - 1, n - 1] = 1.0
    yield bad


def test_a_failing_input_is_left_untouched_with_overwrite():
    for bad in _bad_inputs(BLOCK + 9):
        before = bad.tobytes()
        for call in (lambda: double_center(bad, overwrite=True),
                     lambda: spectrum(bad, [(2, NEUC)], vectors=False, overwrite=True),
                     lambda: sweep(bad, [2], overwrite=True)):
            with pytest.raises(ValueError):
                call()
            assert bad.tobytes() == before


# ---------------------------------------------------------------- overflow

@pytest.mark.parametrize("d", [
    # the means are finite; d_01 - r_0 overflows at (0, 1), above the diagonal
    np.array([[0.0, 1.0, -0.3, -1.0],
              [1.0, 0.0, -0.3, 0.0],
              [-0.3, -0.3, 0.0, 0.9],
              [-1.0, 0.0, 0.9, 0.0]]) * M,
    # only (1, 0) overflows, below the diagonal
    np.array([[0.0, 0.9, 0.0, 0.0],
              [0.9, 0.0, -1.0, -0.6],
              [0.0, -1.0, 0.0, 0.9],
              [0.0, -0.6, 0.9, 0.0]]) * M,
], ids=["upper", "lower"])
def test_an_overflow_after_the_means_raises_with_overwrite(d):
    for overwrite in (False, True):
        for call in (lambda a: double_center(a, overwrite=overwrite),
                     lambda a: spectrum(a, [], overwrite=overwrite),
                     lambda a: sweep(a, [1], overwrite=overwrite)):
            with pytest.raises(FloatingPointError, match="double centering overflowed; rescale"):
                call(d.copy())


# ---------------------------------------------------------------- memory

def _traced_at_solve(monkeypatch, run):
    """The bytes traced since ``run`` started, on entry to the solver call."""
    seen = []
    real = embedding._eig_lower

    def spy(b, vectors=True):
        seen.append(tracemalloc.get_traced_memory()[0])
        return real(b, vectors)

    monkeypatch.setattr(embedding, "_eig_lower", spy)
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    [at_solve] = seen
    return at_solve


@pytest.mark.parametrize("vectors", [False, True])
def test_overwrite_allocates_no_n_by_n_before_the_solve(monkeypatch, vectors):
    n = 600
    nn = 8 * n * n
    d = gen_random_simplex(n, seed=64)
    fresh = _traced_at_solve(monkeypatch, lambda: spectrum(d, [(5, NEUC)], vectors=vectors))
    a = d.copy()
    over = _traced_at_solve(
        monkeypatch, lambda: spectrum(a, [(5, NEUC)], vectors=vectors, overwrite=True))
    assert over < nn // 20
    assert nn <= fresh < nn + nn // 20


@pytest.mark.parametrize("argv, copies", [
    ("select --k 5", 1),
    ("sweep --k-list 2:6:2", 1),
    ("embed --k 5", 2),
])
def test_only_select_and_sweep_write_over_their_input(tmp_path, monkeypatch, argv, copies):
    # the command holds d as read; select and sweep center into it, embed into a new B
    n = 300
    nn = 8 * n * n
    write_matrix(tmp_path / "d.bin", gen_random_simplex(n, seed=65), "bin")
    command = [*argv.split(), "--input", str(tmp_path / "d.bin"), "--output",
               str(tmp_path / "out")]
    at_solve = _traced_at_solve(monkeypatch, lambda: cli.main(command))
    assert copies * nn <= at_solve < copies * nn + nn // 4
