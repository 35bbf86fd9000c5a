"""The values-only eigensolve and the Wigner sampler against their references.

``eig_sym(b, vectors=False)`` computes the eigenvalues alone; they must agree
with the full solve's to rounding, in the same order, and fail the same way.
``sample_wigner`` draws its upper triangle strip by strip into one n x n buffer
and mirrors it in place; every sample must match ``oracle.ref_sample_wigner``,
one block draw placed through a mask, bitwise.
"""

import json

import numpy as np
import pytest

from neucmds import cli
from neucmds.datasets import gen_random_simplex
from neucmds.embedding import embed_from_decomposition
from neucmds.io import write_matrix
from neucmds.linalg import double_center, eig_sym
from neucmds.metrics import decompose
from neucmds.rmt import GAUSSIAN, RADEMACHER, sample_wigner
from neucmds.selection import METHODS, select

from conftest import random_hollow
from oracle import full_axis_values, ref_sample_wigner

SPECTRUM_RTOL = 1e-12  # scaled by max|lambda|


def matrices():
    rng = np.random.default_rng(7)
    yield np.zeros((1, 1))
    yield np.diag([3.0, 1.0, 1.0, -2.0])  # a tie
    for n in (2, 5, 60, 301):
        yield random_hollow(rng, n)
        yield double_center(random_hollow(rng, n))
    yield sample_wigner(200, 1.0, RADEMACHER, seed=3)


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
