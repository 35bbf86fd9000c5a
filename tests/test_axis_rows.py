"""One eigenvector layout, and one kernel that gathers eigenvector rows.

``linalg._eig_lower`` stores the eigenvectors in Fortran order, so that
``eigenvectors.T`` holds one eigenvector per contiguous row.  The coordinates
of ``embed_from_decomposition`` and the stress sums of ``metrics._add_axes``
(behind ``decompose`` and ``spectral_reports``) gather those rows.  They must
match the column path they replace, ``oracle.ref_coords`` bitwise and
``oracle.ref_axis_sums`` to rounding, for a solved decomposition and for a
C-ordered one built by hand.
"""

import numpy as np
import pytest

from neucmds.embedding import embed_from_decomposition, spectrum
from neucmds.linalg import BLOCK, SpectralDecomposition, double_center, eig_sym
from neucmds.metrics import _add_axes, decompose
from neucmds.selection import METHODS

from conftest import random_hollow
from oracle import full_axis_values, ref_axis_sums, ref_coords

SIZES = [1, 2, BLOCK - 1, BLOCK + 1, 300]
SUMS_RTOL = 1e-13  # of the largest entry


def layouts(n, seed=0):
    """The solved decomposition of a random hollow d, and a C-ordered copy of it."""
    dec = spectrum(random_hollow(np.random.default_rng(seed), n), [])[0]
    return {"solved": dec,
            "C-ordered": SpectralDecomposition(dec.eigenvalues,
                                               np.ascontiguousarray(dec.eigenvectors))}


@pytest.mark.parametrize("n", SIZES)
def test_coords_equal_the_column_path(n):
    for layout, dec in layouts(n).items():
        for method in METHODS:
            for k in sorted({1, max(1, n // 3), n}):
                emb = embed_from_decomposition(dec, k, method)
                want = ref_coords(dec.eigenvectors, emb.axis_values, emb.axis_indices)
                assert emb.coords.flags.c_contiguous, (layout, method, k)
                assert emb.coords.tobytes() == want.tobytes(), (layout, method, k)


@pytest.mark.parametrize("n", SIZES)
def test_the_split_reads_either_layout_alike(n):
    solved, hand = layouts(n, seed=1).values()
    for method in METHODS:
        emb = embed_from_decomposition(solved, max(1, n // 2), method)
        full = full_axis_values(emb)
        assert emb.split == decompose(hand.eigenvalues, hand.eigenvectors, full), method


def weights(rng, n):
    w = rng.normal(size=(n, 3))
    w[rng.random(n) < 0.3] = 0.0
    return w


@pytest.mark.parametrize("n", SIZES)
def test_kernel_sums_match_the_strip_path(n):
    rng = np.random.default_rng(n)
    for layout, dec in layouts(n, seed=2).items():
        u = dec.eigenvectors
        ones, w = u.sum(axis=0), weights(rng, n)
        square, plain = ref_axis_sums(u, w, ones)
        sums = np.zeros((2, 3, n))
        _add_axes(sums, u.T, np.arange(n), w, ones)
        for got, want in ((sums[0], square.T), (sums[1], plain.T)):
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=SUMS_RTOL * np.max(np.abs(want)), err_msg=layout)
        # one weight column and no axis sums: the call of decompose
        z = np.zeros((1, n))
        _add_axes(z, u.T, np.arange(n), w[:, 0])
        np.testing.assert_allclose(z[0], square[:, 0], rtol=0.0,
                                   atol=SUMS_RTOL * np.max(np.abs(square[:, 0])), err_msg=layout)


@pytest.mark.parametrize("n", SIZES)
def test_kernel_sums_over_some_axes_add_to_what_was_there(n):
    # the walk's call: a few axes in pick order, on top of sums already held
    rng = np.random.default_rng(n + 1)
    dec = layouts(n, seed=3)["solved"]
    u = dec.eigenvectors
    ones, w = u.sum(axis=0), weights(rng, n)
    axes = rng.permutation(n)[:max(1, (2 * n) // 3)]
    only = np.zeros_like(w)
    only[axes] = w[axes]
    square, plain = ref_axis_sums(u, only, ones)
    start = rng.normal(size=(2, 3, n))
    sums = start.copy()
    _add_axes(sums, u.T, axes, w[axes], ones)
    for got, want in ((sums[0] - start[0], square.T), (sums[1] - start[1], plain.T)):
        scale = max(np.max(np.abs(want)), np.max(np.abs(start)))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=SUMS_RTOL * scale)
    before = sums.copy()
    _add_axes(sums, u.T, axes[:0], w[:0], ones)
    assert sums.tobytes() == before.tobytes()


def test_solved_eigenvectors_are_rows_of_their_transpose():
    d = random_hollow(np.random.default_rng(4), 50)
    for dec in (spectrum(d, [])[0], eig_sym(double_center(d))):
        assert dec.eigenvectors.T.flags.c_contiguous
