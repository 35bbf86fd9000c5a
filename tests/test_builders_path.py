"""The in-place n x n constructions against the reference bodies they replaced.

The generators, the perturbations, ``double_center`` and ``mirror_upper``
build their result in one buffer (the GEMM output where there is one) and
mirror its upper triangle in place, tile by tile.  The ``ref_*`` functions
below are the straightforward versions they replaced; every result must
match them bitwise, with the same dtype and C layout.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from neucmds.datasets import (
    _distances,
    _signed_sq_gap,
    gen_euclidean_ball,
    gen_random_simplex,
    pairwise_sq,
    perturb_knn,
    perturb_missing,
    perturb_noise,
    signed_sq_dissimilarity,
)
from neucmds.linalg import BLOCK, double_center

from conftest import random_hollow
from oracle import mirror_upper

SIZES = [2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 600]
SEEDS = [0, 5, 2**31 + 3]


# ---------------------------------------------------------------- references

def ref_mirror_upper(m):
    upper = np.triu(m)
    return upper + np.triu(m, 1).T


def ref_double_center(d):
    row = d.mean(axis=1, keepdims=True)
    b = -0.5 * (d - row - row.T + d.mean())
    return ref_mirror_upper(b)


def ref_pairwise_sq(x):
    sq = np.einsum("ij,ij->i", x, x)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d, 0.0)
    return ref_mirror_upper(d)


def ref_signed_sq_dissimilarity(p, n_plus):
    return ref_pairwise_sq(p[:, :n_plus]) - ref_pairwise_sq(p[:, n_plus:])


def ref_gen_random_simplex(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    n_plus = -(-n // 10)
    mid = n - n_plus - 1
    coords = rng.uniform(0.0, 1.0, size=(n, n - 1))
    coords[:, :n_plus] *= 0.01
    if mid > 0:
        coords[:, n_plus:] *= np.sqrt(0.5 / mid)
    last = (np.arange(1, n + 1, dtype=np.float64) * 0.3 / n)[:, None]
    return ref_signed_sq_dissimilarity(np.hstack([coords, last]), n_plus)


def ref_ball_dissimilarity(centers, radii):
    cdist = np.sqrt(np.maximum(ref_pairwise_sq(centers), 0.0))
    gap = cdist - radii[:, None] - radii[None, :]
    d = gap * np.abs(gap)
    np.fill_diagonal(d, 0.0)
    return ref_mirror_upper(d)


def ref_gen_euclidean_ball(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    centers = rng.uniform(0.0, 100.0, size=(n, 10))
    branch = rng.uniform(size=n)
    candidate = rng.uniform(0.0, 5.0, size=n)
    cdist = np.sqrt(np.maximum(ref_pairwise_sq(centers), 0.0))
    np.fill_diagonal(cdist, np.inf)
    radii = np.where(branch < 0.9, candidate, 0.8 * cdist.min(axis=1))
    return ref_ball_dissimilarity(centers, radii)


def ref_perturb_knn(p, k_nn):
    n = p.shape[0]
    dist = np.sqrt(np.maximum(ref_pairwise_sq(p), 0.0))
    np.fill_diagonal(dist, np.inf)
    nbrs = np.argsort(dist, axis=1, kind="stable")[:, :k_nn]
    rows = np.repeat(np.arange(n), k_nn)
    cols = nbrs.ravel()
    np.fill_diagonal(dist, 0.0)
    graph = csr_matrix((dist[rows, cols], (rows, cols)), shape=(n, n))
    graph = graph.maximum(graph.T)
    assert connected_components(graph, directed=False)[0] == 1
    paths = dijkstra(graph, directed=False)
    d = paths * paths
    np.fill_diagonal(d, 0.0)
    return ref_mirror_upper(d)


def ref_perturb_noise(p, sigma, seed):
    n = p.shape[0]
    dist = np.sqrt(np.maximum(ref_pairwise_sq(p), 0.0))
    if sigma == "auto":
        sigma = float(dist.max()) / 500.0
    iu = np.triu_indices(n, 1)
    noise = np.zeros((n, n))
    noise[iu] = np.random.Generator(np.random.Philox(seed)).normal(
        0.0, sigma, size=iu[0].shape[0])
    noisy = dist + noise + noise.T
    d = noisy * noisy
    np.fill_diagonal(d, 0.0)
    return ref_mirror_upper(d)


def ref_perturb_missing(p, keep_prob, seed):
    mask = np.random.Generator(np.random.Philox(seed)).uniform(size=p.shape) < keep_prob
    m = mask.astype(np.float64)
    pm = p * m
    p2m = p * p * m
    a = p2m @ m.T
    d = a + a.T - 2.0 * (pm @ pm.T)
    np.fill_diagonal(d, 0.0)
    return ref_mirror_upper(d)


def assert_same(got, want):
    assert got.tobytes() == want.tobytes()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous


def cloud(n, seed, dim=6):
    return np.random.default_rng(seed).normal(scale=3.0, size=(n, dim))


# ---------------------------------------------------------------- equivalence

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
class TestInPlaceEquivalence:
    def test_pairwise_sq(self, n, seed):
        x = cloud(n, seed)
        assert_same(pairwise_sq(x), ref_pairwise_sq(x))
        assert_same(pairwise_sq(x[:, :0]), ref_pairwise_sq(x[:, :0]))

    def test_signed_sq_dissimilarity(self, n, seed):
        p = cloud(n, seed)
        for n_plus in (0, 2, 6):
            assert_same(signed_sq_dissimilarity(p, n_plus), ref_signed_sq_dissimilarity(p, n_plus))

    def test_ball_dissimilarity(self, n, seed):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0.0, 10.0, size=(n, 3))
        radii = rng.uniform(0.0, 4.0, size=n)  # many overlaps: negative gaps
        radii[::3] = 0.0
        assert_same(_signed_sq_gap(_distances(centers), radii),
                    ref_ball_dissimilarity(centers, radii))

    def test_gen_euclidean_ball(self, n, seed):
        assert_same(gen_euclidean_ball(n, seed=seed), ref_gen_euclidean_ball(n, seed))

    def test_gen_random_simplex(self, n, seed):
        assert_same(gen_random_simplex(n, seed=seed), ref_gen_random_simplex(n, seed))

    def test_perturb_knn(self, n, seed):
        p = cloud(n, seed, dim=3)
        k_nn = min(n - 1, 12)  # connected at every size and seed here
        assert_same(perturb_knn(p, k_nn), ref_perturb_knn(p, k_nn))

    def test_perturb_noise(self, n, seed):
        p = cloud(n, seed)
        assert_same(perturb_noise(p, seed=seed), ref_perturb_noise(p, "auto", seed))
        assert_same(perturb_noise(p, sigma=0.7, seed=seed + 1),
                    ref_perturb_noise(p, 0.7, seed + 1))

    def test_perturb_missing(self, n, seed):
        p = cloud(n, seed, dim=14)
        for keep_prob in (0.9, 1.0):
            assert_same(perturb_missing(p, keep_prob, seed=seed),
                        ref_perturb_missing(p, keep_prob, seed))

    def test_double_center(self, n, seed):
        rng = np.random.default_rng(seed)
        for d in (random_hollow(rng, n), gen_euclidean_ball(n, seed=seed)):
            for a in (d, np.asfortranarray(d)):  # the row means' order follows the layout
                assert_same(double_center(a), ref_double_center(a))

    def test_mirror_upper(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        m[rng.random((n, n)) < 0.2] = 0.0
        m[rng.random((n, n)) < 0.2] = -0.0
        for a in (m, np.asfortranarray(m), m.astype(np.float32), (m * 100).astype(np.int64)):
            assert_same(mirror_upper(a), ref_mirror_upper(a))


def test_gen_random_simplex_draws_into_the_point_array():
    # the points are drawn row by row into one n x n array, so the peak is that
    # array, the output, one Gram product and strips; an n x (n-1) draw copied
    # into the point array would add one more n x n
    n = 400
    gen_random_simplex(n, seed=1)
    tracemalloc.start()
    try:
        gen_random_simplex(n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.75 * 8 * n * n


def test_mirror_upper_signed_zeros():
    m = np.array([[-0.0, -0.0, 1.0], [2.0, -0.0, -0.0], [-0.0, 3.0, 0.0]])
    got = mirror_upper(m)
    assert_same(got, ref_mirror_upper(m))
    assert not np.signbit(got).any()  # "+ 0" on every kept entry: no -0.0 left
    assert got[2, 0] == 1.0 and got[1, 0] == 0.0 and got[2, 1] == 0.0


def test_mirror_upper_keeps_int64_and_input():
    m = np.arange(16, dtype=np.int64).reshape(4, 4)
    before = m.copy()
    got = mirror_upper(m)
    assert got.dtype == np.int64
    assert_same(got, ref_mirror_upper(m))
    assert np.array_equal(m, before)  # a copy, never the input


def test_mirror_upper_crosses_tiles():
    n = 2 * BLOCK + 5
    m = np.arange(n * n, dtype=np.float64).reshape(n, n)
    got = mirror_upper(m)
    assert np.array_equal(got, got.T)
    assert np.array_equal(np.triu(got), np.triu(m))
