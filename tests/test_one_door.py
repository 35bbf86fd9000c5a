"""One way into the eigensolve, in one check order.

``embed``, ``sweep``, ``embed_landmark`` and the ``select`` command all
solve through ``embedding.spectrum``: validate and double-center the matrix,
then check each (k, method) pair of the request, its method before its k,
then solve.  A bad request never reaches ``eig_sym``, a bad matrix is
reported before a bad request, and a request is read once, up to its first
bad pair.  A count or a seed is taken only when it equals its int: 2.0 and
numpy integers pass; 2.5, "3" and nan fail with "<name> must be an integer,
got <repr>", while an integer out of range keeps the argument's own message.
"""

import numpy as np
import pytest

from neucmds import cli, datasets, embedding, landmark, linalg, rmt, selection
from neucmds.cli import main
from neucmds.embedding import embed, sweep
from neucmds.io import write_matrix
from neucmds.landmark import embed_landmark
from neucmds.selection import METHODS

from conftest import random_hollow

N = 8  # the matrix order; the landmark calls draw 5 of its points

CALLS = {
    "embed": lambda d, k, method: embed(d, k, method),
    "sweep": lambda d, k, method: sweep(d, [2, k], [METHODS[0], method]),
    "landmark": lambda d, k, method: embed_landmark(d, 5, k, method),
}


@pytest.fixture
def no_solve(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the eigensolve ran with a bad request")
    for module in (cli, embedding, landmark, linalg):  # every name it could be called by
        if hasattr(module, "_eig_lower"):  # the solver call behind eig_sym and spectrum
            monkeypatch.setattr(module, "_eig_lower", unreachable)


def asymmetric(rng):
    d = random_hollow(rng, N)
    d[0, 1] += 1.0
    return d


# a bad k alone: tests/test_landmark.py and tests/test_cli.py
@pytest.mark.parametrize("k", [2, 0], ids=["method", "method-and-k"])  # a pair's method first
@pytest.mark.parametrize("call", list(CALLS))
def test_a_bad_method_fails_before_the_eigensolve(call, k, no_solve, rng):
    with pytest.raises(ValueError, match="^unknown method 'bogus'"):
        CALLS[call](random_hollow(rng, N), k, "bogus")


@pytest.mark.parametrize("call", list(CALLS))
def test_a_bad_matrix_wins_over_a_bad_request(call, no_solve, rng):
    with pytest.raises(ValueError, match="^dissimilarity matrix is not symmetric: entry"):
        CALLS[call](asymmetric(rng), 0, "bogus")


COMMANDS = {
    "embed": ["embed", "--k", "0"],
    "select": ["select", "--k", "0"],
    "sweep": ["sweep", "--k-list", "0:3"],
    "landmark": ["landmark", "--k", "0", "--landmarks", "5"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_commands_report_a_bad_matrix_before_a_bad_k(command, tmp_path, no_solve, capsys, rng):
    inp = tmp_path / "d.txt"
    write_matrix(inp, asymmetric(rng))
    assert main([*COMMANDS[command], "--input", str(inp), "--output", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(f"error: {inp} is not symmetric: entry (0,1)")
    assert list(tmp_path.iterdir()) == [inp]


def test_sweep_parses_its_k_list_before_reading(tmp_path, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("read the input before parsing --k-list")
    monkeypatch.setattr(cli, "read_matrix", unreachable)
    argv = ["sweep", "--input", str(tmp_path / "d.txt"), "--k-list", ":", "--output",
            str(tmp_path / "o")]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: bad k-list ':'; expected k, a:b or a:b:step\n"


def test_a_k_list_far_beyond_the_order_fails_at_its_first_bad_k(tmp_path, no_solve, capsys, rng):
    # 10**10 ks: a list of them, or of their (k, method) pairs, could not be allocated
    inp = tmp_path / "d.txt"
    write_matrix(inp, random_hollow(rng, N))
    argv = ["sweep", "--input", str(inp), "--k-list", f"1:{10**10}", "--output", str(tmp_path / "o")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: k must satisfy 1 <= k <= {N}, got {N + 1}\n"


def test_sweep_reads_each_argument_once(rng):
    # an iterator of ks, or of methods, is read once: every row is there
    d = random_hollow(rng, N)
    rows = sweep(d, iter([1, 2]), iter(METHODS))
    assert [(e.k, e.method) for e in rows] == [(k, m) for k in (1, 2) for m in METHODS]
    assert all(type(e.k) is int for e in sweep(d, [np.int64(1), 2.0]))


FRACTIONAL = {
    "embed k": (lambda d: embed(d, 2.5), "k must be an integer, got 2.5"),
    "_check_k str": (lambda d: selection._check_k("3", N), "k must be an integer, got '3'"),
    "_check_k nan": (lambda d: selection._check_k(np.nan, N), "k must be an integer, got nan"),
    "_check_k inf": (lambda d: selection._check_k(np.inf, N), "k must be an integer, got inf"),
    "_check_k None": (lambda d: selection._check_k(None, N), "k must be an integer, got None"),
    "sample_wigner n": (lambda d: rmt.sample_wigner(2.7), "n must be an integer, got 2.7"),
    "lab_table trials": (lambda d: rmt.lab_table(10, [0.3], "neuc", trials=1.5),
                         "trials must be an integer, got 1.5"),
    "gen_random_simplex n": (lambda d: datasets.gen_random_simplex(4.5),
                             "n must be an integer, got 4.5"),
    "gen_euclidean_ball n": (lambda d: datasets.gen_euclidean_ball(4.5),
                             "n must be an integer, got 4.5"),
    "gen_euclidean_ball numpy n": (lambda d: datasets.gen_euclidean_ball(np.float64(4.5)),
                                   f"n must be an integer, got {np.float64(4.5)!r}"),
    "fit_landmarks m": (lambda d: landmark.fit_landmarks(d, 5.9, 2),
                        "the landmark count must be an integer, got 5.9"),
    "fit_landmarks k": (lambda d: landmark.fit_landmarks(d, 5, 2.5),
                        "k must be an integer, got 2.5"),
    "perturb_knn k_nn": (lambda d: datasets.perturb_knn(d[:, :2], 1.5),
                         "k_nn must be an integer, got 1.5"),
    "_rng seed": (lambda d: datasets._rng(1.9), "seed must be an integer, got 1.9"),
}


@pytest.mark.parametrize("call, message", FRACTIONAL.values(), ids=list(FRACTIONAL))
def test_counts_and_seeds_must_be_integers(call, message, rng):
    with pytest.raises(ValueError) as info:
        call(random_hollow(rng, N))
    assert str(info.value) == message


OUT_OF_RANGE = {
    "embed k": (lambda d: embed(d, 0.0), f"k must satisfy 1 <= k <= {N}, got 0.0"),
    "sample_wigner n": (lambda d: rmt.sample_wigner(1.0), "need n >= 2, got 1.0"),
    "fit_landmarks m": (lambda d: landmark.fit_landmarks(d, np.int64(1), 1),
                        "the landmark count must be at least 2, got 1"),
    "_rng seed": (lambda d: datasets._rng(-2.0), "seed must be a non-negative integer, got -2.0"),
}


@pytest.mark.parametrize("call, message", OUT_OF_RANGE.values(), ids=list(OUT_OF_RANGE))
def test_integers_out_of_range_keep_the_range_message(call, message, rng):
    # only a value that is not an integer takes the integer message
    with pytest.raises(ValueError) as info:
        call(random_hollow(rng, N))
    assert str(info.value) == message


def test_integral_floats_and_numpy_integers_are_counts(rng):
    d = random_hollow(rng, N)
    assert embed(d, 2.0).k == 2
    assert landmark.fit_landmarks(d, np.int64(5), 2.0, seed=np.uint8(1)).m == 5
    assert rmt.sample_wigner(np.int32(3), seed=2.0).shape == (3, 3)
    assert len(rmt.lab_table(10, [0.3], "neuc", trials=2.0)) == 1
