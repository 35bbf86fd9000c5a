"""The one selection walk behind ``metrics.spectral_reports``.

Each method selects once, at its largest k; a smaller k takes the prefix of
those picks, and the rows read running sums along the pick order.  These
tests hold dense curves to the direct path through d_hat, count the
selections, compare a row alone with the same row inside a dense grid and
bound what the walk allocates.
"""

import tracemalloc

import numpy as np
import pytest

from neucmds import metrics
from neucmds.linalg import SpectralDecomposition, double_center, eig_sym
from neucmds.metrics import spectral_reports
from neucmds.selection import CMDS, METHODS, NEUC, select

from conftest import random_hollow
from test_spectral_sweep import KINDS, assert_fell_where_it_cancels, draw_matrix, matches_direct


def zeros_spectrum(n, seed):
    """A hollow d of n points and its exact spectrum, built by hand: mixed
    signs, exact zeros (one of them the axis along 1) and a tie."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, n - 1))]))[0]
    lam = rng.uniform(-1.0, 1.0, size=n)
    lam[:1 + n // 4] = 0.0  # the first column is the axis along 1
    lam[-1] = lam[-2]
    order = np.argsort(-lam, kind="stable")
    lam, u = lam[order], np.ascontiguousarray(u[:, order])
    b = (u * lam) @ u.T
    diag = np.diagonal(b)
    d = np.triu(diag[:, None] + diag[None, :] - 2.0 * b, 1)
    return d + d.T, SpectralDecomposition(lam, u)


@pytest.mark.parametrize("kind", [*KINDS, "zeros"])
@pytest.mark.parametrize("n", [12, 40])
def test_full_curve_matches_direct(n, kind):
    if kind == "zeros":
        d, dec = zeros_spectrum(n, seed=n)
        lam = dec.eigenvalues
        # k = n reaches the zero axes the signed walk takes last and the
        # negative axes cmds clamps to 0
        assert lam[select(lam, n, NEUC).chosen[-1]] == 0.0
        assert np.any(lam[select(lam, n, CMDS).chosen] < 0.0)
    else:
        d = draw_matrix(kind, n, seed=n)
        dec = eig_sym(double_center(d))
    grid = [(k, m) for m in METHODS for k in range(1, n + 1)]
    assert_fell_where_it_cancels(d, matches_direct(d, dec, grid))


def test_one_selection_per_method(monkeypatch):
    d = random_hollow(np.random.default_rng(8), 320)
    dec = eig_sym(double_center(d))
    calls = []

    def counted(lam, k, method):
        calls.append((k, method))
        return select(lam, k, method)

    monkeypatch.setattr(metrics, "select", counted)
    grid = [(k, m) for k in range(20, 301, 20) for m in METHODS]
    assert len(grid) == 45
    spectral_reports(d, dec, grid)
    assert sorted(calls) == sorted((300, m) for m in METHODS)


@pytest.mark.parametrize("kind", KINDS)
def test_a_row_alone_matches_the_row_in_a_dense_grid(kind):
    # the running sums add the same terms in another order; the closed forms
    # are differences of sums of the size of ||d||^2, so that is the scale
    n = 40
    d = draw_matrix(kind, n, seed=3)
    dec = eig_sym(double_center(d))
    dd = float(np.vdot(d, d))
    grid = [(k, m) for m in METHODS for k in range(1, n + 1)]
    for where, dense in zip(grid, spectral_reports(d, dec, grid)):
        alone = spectral_reports(d, dec, [where])[0]
        assert (alone is None) == (dense is None), where
        if alone is None:
            continue
        assert (alone.c1, alone.c2, alone.neg_axes_count) == (dense.c1, dense.c2, dense.neg_axes_count)
        for got, want in ((alone.stress_sq, dense.stress_sq), (alone.c3, dense.c3),
                          (alone.scaled_additive ** 2, dense.scaled_additive ** 2)):
            assert abs(got - want) <= 1e-12 * dd, where


def test_a_dense_grid_gathers_no_block_per_row():
    # a row that gathered its own n x k eigenvectors would hold n^2 floats at
    # k = n; the walk gathers each pick once, one column at a time here
    n = 300
    d = random_hollow(np.random.default_rng(9), n)
    dec = eig_sym(double_center(d))
    grid = [(k, m) for m in METHODS for k in range(1, n + 1)]
    spectral_reports(d, dec, grid)  # first-call allocations out of the count
    tracemalloc.start()
    try:
        rows = spectral_reports(d, dec, grid)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 3 * n
    assert peak - held < n * (n // 4) * 8
