"""The one selection walk behind ``metrics.spectral_reports``.

Each method selects once, at its largest k; a smaller k takes the prefix of
those picks, and the walk down the ks moves each block of picks from the
head sums to the tail sums.  These tests hold dense curves to the direct path
through d_hat, count the selections, compare a row alone with the same row
inside a dense grid, bound what the walk allocates, check that ``sweep``
runs no entrywise path and that a grid overflows where its ks alone do.
"""

import tracemalloc

import numpy as np
import pytest

from neucmds import embedding, metrics, selection
from neucmds.embedding import sweep
from neucmds.linalg import SpectralDecomposition, double_center, eig_sym
from neucmds.metrics import spectral_reports
from neucmds.selection import CMDS, METHODS, NEUC, select

from conftest import random_hollow
from test_spectral_sweep import KINDS, draw_matrix, matches_direct


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
    matches_direct(d, dec, grid)


def test_one_selection_per_method(monkeypatch):
    # one walk per method, and one built SelectionResult: a smaller k reads
    # the first k picks of the top k's selection, not a selection of its own
    d = random_hollow(np.random.default_rng(8), 320)
    dec = eig_sym(double_center(d))
    calls, built = [], []
    result = selection._result

    def counted(lam, k, method):
        calls.append((k, method))
        return select(lam, k, method)

    def counted_result(lam, order, mode):
        built.append((len(order), mode))
        return result(lam, order, mode)

    monkeypatch.setattr(metrics, "select", counted)
    monkeypatch.setattr(selection, "_result", counted_result)
    grid = [(k, m) for k in range(20, 301, 20) for m in METHODS]
    assert len(grid) == 45
    spectral_reports(dec, grid)
    assert sorted(calls) == sorted((300, m) for m in METHODS)
    assert sorted(built) == sorted((300, m) for m in METHODS)


@pytest.mark.parametrize("kind", KINDS)
def test_a_row_alone_matches_the_row_in_a_dense_grid(kind):
    # the walk adds and takes off the same terms in another order; the
    # formulas are differences of sums of the size of ||d||^2, so that is the scale
    n = 40
    d = draw_matrix(kind, n, seed=3)
    dec = eig_sym(double_center(d))
    dd = float(np.vdot(d, d))
    grid = [(k, m) for m in METHODS for k in range(1, n + 1)]
    for where, dense in zip(grid, spectral_reports(dec, grid)):
        alone = spectral_reports(dec, [where])[0]
        assert ((alone.c1, alone.c2, alone.neg_axes_count)
                == (dense.c1, dense.c2, dense.neg_axes_count)), where
        for got, want in ((alone.stress_sq, dense.stress_sq), (alone.c3, dense.c3),
                          (alone.scaled_additive ** 2, dense.scaled_additive ** 2)):
            assert abs(got - want) <= 1e-12 * dd, where


def test_a_dense_grid_gathers_no_block_per_row():
    # a row that gathered its own n x k eigenvectors would hold n^2 floats at
    # k = n, and so would a walk from k = n to k = 1 that gathered the picks
    # between two ks as one block; the walk gathers a few columns at a time
    n = 300
    d = random_hollow(np.random.default_rng(9), n)
    dec = eig_sym(double_center(d))
    dense = [(k, m) for m in METHODS for k in range(1, n + 1)]
    sparse = [[(n, m)] for m in METHODS] + [[(1, m), (n, m)] for m in METHODS]
    for grid in [dense, *sparse]:
        spectral_reports(dec, grid)  # first-call allocations out of the count
        tracemalloc.start()
        try:
            rows = spectral_reports(dec, grid)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == len(grid)
        assert peak - held < n * (n // 4) * 8, grid


def test_sweep_builds_no_d_hat(monkeypatch):
    # acceptance 1's grid and the full curves at n = 40, exact fits included,
    # with every entrywise function sweep could reach made to raise
    rng = np.random.default_rng(1)
    inputs = [(random_hollow(rng, n), sorted({1, n // 4, n // 2, n - 1}))
              for n, count in ((10, 20), (50, 20), (200, 10)) for _ in range(count)]
    inputs += [(draw_matrix(kind, 40, seed=40), range(1, 41)) for kind in KINDS]
    inputs.append((zeros_spectrum(40, seed=40)[0], range(1, 41)))
    want = [[(e.k, e.method, e.report) for e in sweep(d, ks)] for d, ks in inputs]

    def entrywise(*args, **kwargs):
        raise AssertionError("sweep reached the entrywise path")

    for module, name in ((embedding, "report"), (embedding, "embed_from_decomposition"),
                         (embedding, "reconstruct"), (metrics, "report")):
        monkeypatch.setattr(module, name, entrywise)
    assert [[(e.k, e.method, e.report) for e in sweep(d, ks)] for d, ks in inputs] == want


def numerical_error(call):
    """The type of the numerical error ``call()`` raises, or None."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            call()
    except (FloatingPointError, OverflowError) as exc:
        return type(exc)
    return None


def test_rows_overflow_where_each_k_alone_overflows():
    # below the top k no SelectionResult is built, so its bound's finiteness check
    # does not run there; each row's own check must raise at the same scales as
    # select(lam, k, m) followed by the one-row sweep, at each power-of-two scale
    n = 12
    _, mixed = zeros_spectrum(n, seed=12)
    rest = np.random.default_rng(12).normal(size=(n, n - 1))
    spectra = [(mixed.eigenvalues, mixed.eigenvectors),
               # one-signed, its zero along 1
               (np.linspace(1.0, 0.0, n), np.linalg.qr(np.column_stack([rest, np.ones(n)]))[0])]
    seen = set()
    for lam, u in spectra:
        for p in range(500, 516):  # |lam| <= 1: from no overflow to every row's
            big = SpectralDecomposition(lam * 2.0 ** p, u)
            for m in METHODS:
                want = {k: numerical_error(lambda: (select(big.eigenvalues, k, m),
                                                    spectral_reports(big, [(k, m)])))
                        for k in range(1, n + 1)}
                for k in range(1, n):
                    alone = numerical_error(lambda: select(big.eigenvalues, k, m))
                    for top in range(k + 1, n + 1):
                        got = numerical_error(lambda: spectral_reports(big, [(k, m), (top, m)]))
                        assert got == (want[top] or want[k]), (p, m, k, top)
                        seen.add((alone, want[top]))
                grid = [(k, m) for k in range(1, n + 1)]
                assert numerical_error(lambda: spectral_reports(big, grid)) == next(
                    (want[k] for k in range(n, 0, -1) if want[k]), None), (p, m)
    # some k's selection alone overflows below a top k whose row does not: there
    # the row at k alone raises
    assert (FloatingPointError, None) in seen and (None, None) in seen
