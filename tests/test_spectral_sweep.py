"""Sweep rows from the spectrum against the direct path through d_hat.

``metrics.spectral_reports`` gives each (k, method) row from the one
eigendecomposition, by head and tail sums; ``report(d,
embed_from_decomposition(dec, k, m))`` builds d_hat and stays the reference
for every row, the exact and near-exact fits included.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neucmds import embedding, metrics
from neucmds.datasets import gen_random_simplex
from neucmds.embedding import embed_from_decomposition, report, sweep
from neucmds.linalg import SpectralDecomposition, double_center, eig_sym
from neucmds.metrics import spectral_reports
from neucmds.selection import CMDS, METHODS, NEUC, PLUS, _result

from conftest import random_edm, random_hollow

RTOL = 1e-10
# the exact-fit floor, a share of ||d||^2: the two paths leave rounding of up
# to about 1e-29 ||d||^2 in a value that is zero exactly
FLOOR = 1e-12


def matches_direct(d, dec, grid):
    """Asserts every spectral row of ``grid`` against the direct report and
    returns the (k, method) pairs whose direct stress_sq is below the floor.

    c1, c2 and ``neg_axes_count`` must be equal; stress_sq, c3 and
    scaled_additive^2 within ``RTOL`` of the direct value, or within
    ``FLOOR`` ||d||^2 of it where it is below that.
    """
    floor = FLOOR * float(np.vdot(d, d))
    exact = []
    for (k, method), got in zip(grid, spectral_reports(dec, grid)):
        want = report(d, embed_from_decomposition(dec, k, method))
        where = (d.shape[0], k, method)
        assert ((got.c1, got.c2, got.neg_axes_count)
                == (want.c1, want.c2, want.neg_axes_count)), where
        for field, a, b in (("stress_sq", got.stress_sq, want.stress_sq), ("c3", got.c3, want.c3),
                            ("scaled_additive^2", got.scaled_additive ** 2,
                             want.scaled_additive ** 2)):
            assert abs(a - b) <= max(RTOL * abs(b), floor), (*where, field, a, b)
        assert got.stress == math.sqrt(got.stress_sq)
        assert (got.avg_distortion, got.neg_dissim_count) == (None, None)
        if want.stress_sq <= floor:
            exact.append((k, method))
    return exact


def test_acceptance_1_grid():
    rng = np.random.default_rng(1)
    exact = set()
    for n, count in ((10, 20), (50, 20), (200, 10)):
        for _ in range(count):
            d = random_hollow(rng, n)
            dec = eig_sym(double_center(d))
            grid = [(k, m) for m in METHODS for k in sorted({1, n // 4, n // 2, n - 1})]
            exact |= {(n, *where) for where in matches_direct(d, dec, grid)}
    # only the (n-1)-axis signed embeddings fit d exactly: they drop the zero axis along 1
    assert exact == {(n, n - 1, m) for n in (10, 50, 200) for m in (NEUC, PLUS)}


def test_acceptance_8_grid():
    d = gen_random_simplex(1000, seed=42)
    dec = eig_sym(double_center(d))
    grid = [(k, m) for k in range(10, 301, 10) for m in (CMDS, NEUC)]
    assert matches_direct(d, dec, grid) == []


KINDS = ("hollow", "edm", "negative-heavy")


def draw_matrix(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "hollow":
        return random_hollow(rng, n, scale=float(rng.uniform(1e-3, 1e3)))
    e = random_edm(rng, n, int(rng.integers(1, n + 1)))
    if kind == "edm":
        return e
    # mostly a negated EDM: the spectrum is dominated by negative eigenvalues
    return random_hollow(rng, n, scale=0.1) - e / max(e.max(), 1e-300)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_property_over_hollow_edm_and_negative_heavy(kind, n, seed, data):
    d = draw_matrix(kind, n, seed)
    ks = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4, unique=True))
    grid = [(k, m) for k in ks for m in METHODS]
    matches_direct(d, eig_sym(double_center(d)), grid)


@pytest.mark.parametrize("case", ["edm-rank-3", "edm-rank-8", "hollow-k-n"])
def test_fallback_rows_are_the_direct_values(case):
    rng = np.random.default_rng(11)
    n = 24
    if case == "hollow-k-n":
        d, grid = random_hollow(rng, n), [(n, NEUC), (n, PLUS)]
    else:
        rank = int(case.rsplit("-", 1)[1])
        d = random_edm(rng, n, rank)
        grid = [(k, m) for k in (rank, rank + 1, n // 2, n) for m in METHODS]
    dec = eig_sym(double_center(d))
    # every row fits d exactly: d is an EDM of rank 3 or 8, or every axis is kept
    assert matches_direct(d, dec, grid) == grid
    entries = sweep(d, sorted({k for k, _ in grid}), sorted({m for _, m in grid}))
    by_key = {(e.k, e.method): e.report for e in entries}
    assert [by_key[where] for where in grid] == spectral_reports(dec, grid)


@pytest.mark.parametrize("noise", [3e-3, 1e-3, 1e-4])
def test_near_exact_fits_fall_back(noise):
    # stress near 2e-5, 3e-6 and 3e-8 of ||d||^2: the closed forms would keep
    # too few digits there
    rng = np.random.default_rng(12)
    e = random_edm(rng, 30, 4)
    d = e + random_hollow(rng, 30, scale=noise * e.max())
    grid = [(k, m) for k in (4, 5) for m in METHODS]
    assert matches_direct(d, eig_sym(double_center(d)), grid) == []  # all held to RTOL


def test_an_axis_along_ones_falls_back():
    # cmds keeps one positive axis, the near-zero one along 1: d_hat is zero up to
    # rounding, and ||d_hat||^2 from the head sums cancels to rounding
    n = 6
    rng = np.random.default_rng(5)
    u = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, n - 1))]))[0]
    lam = np.array([1e-15, -0.5, -1.0, -2.0, -3.0, -4.0])
    b = (u * lam) @ u.T
    diag = np.diagonal(b)
    d = diag[:, None] + diag[None, :] - 2.0 * b
    d = np.triu(d, 1) + np.triu(d, 1).T
    dec = SpectralDecomposition(lam, u)
    assert matches_direct(d, dec, [(1, CMDS), (2, CMDS)]) == []


def ones_axis_spectrum(ones_value=0.0):
    """A hollow d of 8 points and an exact spectrum of it, built by hand, with the
    eigenvalues 3, 2, 1, -0.5, -1, -2, -4 and ``ones_value`` on the axis along 1,
    which d does not see (tr B = -1.5 + ones_value); returns (d, decomposition,
    index of the axis along 1)."""
    rng = np.random.default_rng(5)
    u = np.linalg.qr(np.column_stack([np.ones(8), rng.normal(size=(8, 7))]))[0]
    lam = np.array([ones_value, 3.0, 2.0, 1.0, -0.5, -1.0, -2.0, -4.0])
    order = np.argsort(-lam, kind="stable")
    lam, u = lam[order], np.ascontiguousarray(u[:, order])
    b = (u * lam) @ u.T
    diag = np.diagonal(b)
    d = np.triu(diag[:, None] + diag[None, :] - 2.0 * b, 1)
    return d + d.T, SpectralDecomposition(lam, u), int(np.flatnonzero(order == 0)[0])


@pytest.mark.parametrize("ones_value", [0.0, 0.7, -0.3])
def test_every_term_on_hand_built_spectra(ones_value):
    # an axis along 1 with a value puts it in g = G 1 while chosen and in h = E 1
    # while dropped (the y.g, z.g, y.h and z.h terms); neuc-plus moves every
    # chosen value off its eigenvalue (t.dl_S and the shift on y, g, z and h);
    # cmds clamps the negative axes it keeps to 0, which leaves them in the tail
    d, dec, _ = ones_axis_spectrum(ones_value)
    matches_direct(d, dec, [(k, m) for m in METHODS for k in range(1, dec.n + 1)])


def hand_picked(monkeypatch, picked):
    """Make every selection in the spectral and the direct path return ``picked``."""
    for module in (metrics, embedding):
        monkeypatch.setattr(module, "select", lambda lam, k, method: picked)


def test_an_axis_along_ones_with_a_value_matches_the_direct_path(monkeypatch):
    # no selector gives the zero axis along 1 a value while it drops a non-zero
    # one; this neuc-plus set does, so g = G 1 = t_1 1 is not zero, and the
    # 8 y.g and 4 b.g terms (b.g = t_1 tr B = -1.5 t_1) carry the row
    d, dec, ones = ones_axis_spectrum()
    chosen = [0, 1, ones, 6, 7]  # drops 1, -0.5 and -1
    picked = _result(dec.eigenvalues, chosen, PLUS)
    assert picked.values[chosen.index(ones)] == pytest.approx(-0.5 / 6.0)
    hand_picked(monkeypatch, picked)
    assert matches_direct(d, dec, [(len(chosen), PLUS)]) == []


def test_a_scaled_reconstruction_falls_back(monkeypatch):
    # every non-zero axis at half its eigenvalue: d_hat = d / 2, so stress_sq is
    # ||d||^2 / 4 and only scaled_additive^2, rounding noise, is below the floor;
    # the axis values are not the eigenvalues, so t.dl_S carries the row
    d, dec, ones = ones_axis_spectrum()
    chosen = [i for i in range(dec.n) if i != ones]
    picked = replace(_result(dec.eigenvalues, chosen, NEUC), values=0.5 * dec.eigenvalues[chosen])
    hand_picked(monkeypatch, picked)
    grid = [(len(chosen), NEUC)]
    assert matches_direct(d, dec, grid) == []
    dd = float(np.vdot(d, d))
    want = report(d, embed_from_decomposition(dec, *grid[0]))
    assert want.stress_sq == pytest.approx(dd / 4.0, rel=1e-12)
    assert want.scaled_additive ** 2 <= 1e-20 * dd


def test_a_d_hat_of_rounding_noise_alone_is_zero():
    # cmds keeps only the axis along 1, whose eigenvalue is rounding noise: d_hat
    # is zero in exact arithmetic, and the entrywise one is noise of about 1e-32;
    # both paths take scaled_additive_error's rule for a zero d_hat
    d = draw_matrix("negative-heavy", 3, seed=2)
    dec = eig_sym(double_center(d))
    assert matches_direct(d, dec, [(1, CMDS), (2, CMDS)]) == []
    got = spectral_reports(dec, [(1, CMDS)])[0]
    assert got.scaled_additive == pytest.approx(math.sqrt(float(np.vdot(d, d))), rel=1e-12)


def test_an_exactly_zero_d_hat_takes_the_rule_for_one(monkeypatch):
    # cmds keeping two negative axes clamps both values to 0: ||d_hat||^2 is 0
    d, dec, _ = ones_axis_spectrum()
    picked = _result(dec.eigenvalues, [4, 5], CMDS)
    assert dec.eigenvalues[4] < 0.0 and not picked.values.any()
    hand_picked(monkeypatch, picked)
    assert matches_direct(d, dec, [(2, CMDS)]) == []


def test_spectral_reports_needs_eigenvectors():
    d = random_hollow(np.random.default_rng(3), 6)
    with pytest.raises(ValueError, match="eigenvectors"):
        spectral_reports(eig_sym(double_center(d), vectors=False), [(2, NEUC)])
