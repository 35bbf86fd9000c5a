"""Synthetic dissimilarity generators and point-cloud perturbations.

All generators draw from a Philox counter-based stream keyed by the seed, in
a fixed documented order, so identical (parameters, seed) reproduce the same
matrix bitwise.  Every output is exactly hollow and symmetric.
"""

from __future__ import annotations

import numpy as np

from .linalg import BLOCK, _check_sigma, _require_integer, mirror_upper_inplace, sum_minus_twice


def _rng(seed: int) -> np.random.Generator:  # every seeded draw of the package
    _require_integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.Philox(int(seed)))


def _check_n(n: int) -> int:  # the order of every generated matrix
    _require_integer(n, "n")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return int(n)


def _as_points(points) -> np.ndarray:
    p = np.asarray(points, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"point cloud must be 2-d (n, d), got shape {p.shape}")
    if not np.all(np.isfinite(p)):  # the first in row-major order, as check_dissimilarity names it
        i, j = np.argwhere(~np.isfinite(p))[0]
        raise ValueError(f"point cloud has a non-finite entry: ({i},{j}) is {float(p[i, j])}")
    return p


def pairwise_sq(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances of the rows of x, exactly hollow/symmetric."""
    sq = np.einsum("ij,ij->i", x, x)
    return sum_minus_twice(x @ x.T, lambda i0, i1: np.add.outer(sq[i0:i1], sq[i0:]))


def _distances(x: np.ndarray) -> np.ndarray:
    d = pairwise_sq(x)
    return np.sqrt(np.maximum(d, 0.0, out=d), out=d)


def signed_sq_dissimilarity(points, n_plus: int) -> np.ndarray:
    """Signed squared dissimilarity: the first n_plus coordinates contribute
    positively, the rest negatively.  Identical points give exactly zero."""
    p = _as_points(points)
    if not 0 <= n_plus <= p.shape[1]:
        raise ValueError(f"n_plus must be in [0, {p.shape[1]}], got {n_plus}")
    d = pairwise_sq(p[:, :n_plus])
    return np.subtract(d, pairwise_sq(p[:, n_plus:]), out=d)


def gen_random_simplex(n: int, seed: int = 0) -> np.ndarray:
    """Near-simplex cloud whose last, dominant coordinate is negative-signed.

    Points have n-1 random coordinates: the first ceil(n/10) uniform in
    [0, 0.01], the rest uniform in [0, sqrt(0.5/mid)] with mid = n-ceil(n/10)-1,
    plus a deterministic last coordinate (i+1)*0.3/n.  The dissimilarity is
    the signed squared form with only the first block positive, which drives
    roughly nine tenths of the centered spectrum negative.

    Draw order: one uniform block of shape (n, n-1), row-major.
    """
    n = _check_n(n)
    rng = _rng(seed)
    n_plus = -(-n // 10)  # ceil
    mid = n - n_plus - 1
    points = np.empty((n, n))
    for row in points:  # row by row draws the same stream as one block
        rng.random(out=row[:-1])
    points[:, :n_plus] *= 0.01
    if mid > 0:
        points[:, n_plus:-1] *= np.sqrt(0.5 / mid)
    points[:, -1] = np.arange(1, n + 1, dtype=np.float64) * 0.3 / n
    return signed_sq_dissimilarity(points, n_plus)


def _signed_sq_gap(cdist: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Signed squared gap g*|g| for g = cdist_ij - r_i - r_j, written over the
    center distances cdist: negative where balls overlap."""
    for i0 in range(0, cdist.shape[0], BLOCK):
        gap = cdist[i0:i0 + BLOCK, i0:]
        gap -= radii[i0:i0 + BLOCK, None]
        gap -= radii[None, i0:]
        gap *= np.abs(gap)
    np.fill_diagonal(cdist, 0.0)
    return mirror_upper_inplace(cdist)


def gen_euclidean_ball(n: int, seed: int = 0) -> np.ndarray:
    """Signed squared gap distances between random balls in [0, 100]^10.

    Ball i gets a radius uniform in [0, 5] with probability 0.9, otherwise
    0.8 times the center-to-center distance to its nearest neighbor, so some
    balls overlap heavily and the triangle inequality breaks.

    Draw order: centers (n, 10) row-major, then n branch selectors, then n
    radius candidates.
    """
    n = _check_n(n)
    rng = _rng(seed)
    centers = rng.uniform(0.0, 100.0, size=(n, 10))
    branch = rng.uniform(size=n)
    candidate = rng.uniform(0.0, 5.0, size=n)
    cdist = _distances(centers)
    np.fill_diagonal(cdist, np.inf)
    radii = np.where(branch < 0.9, candidate, 0.8 * cdist.min(axis=1))
    return _signed_sq_gap(cdist, radii)


def perturb_knn(points, k_nn: int) -> np.ndarray:
    """Squared shortest-path distances over a symmetric k-nearest-neighbor graph.

    Edges join a pair when either endpoint lists the other among its k_nn
    Euclidean nearest; weights are the Euclidean distances.  Raises if the
    graph is disconnected, reporting the component sizes.
    """
    from scipy.sparse import csr_matrix  # the only scipy user: imported on demand
    from scipy.sparse.csgraph import connected_components, dijkstra

    p = _as_points(points)
    n = p.shape[0]
    _require_integer(k_nn, "k_nn")
    if not 1 <= k_nn <= n - 1:
        raise ValueError(f"k_nn must be in [1, {n - 1}], got {k_nn}")
    k_nn = int(k_nn)
    dist = _distances(p)
    np.fill_diagonal(dist, np.inf)
    nbrs = np.argsort(dist, axis=1, kind="stable")[:, :k_nn]
    rows = np.repeat(np.arange(n), k_nn)
    cols = nbrs.ravel()
    np.fill_diagonal(dist, 0.0)
    graph = csr_matrix((dist[rows, cols], (rows, cols)), shape=(n, n))
    graph = graph.maximum(graph.T)
    n_comp, labels = connected_components(graph, directed=False)
    if n_comp > 1:
        sizes = np.bincount(labels)
        raise ValueError(
            f"k-nn graph is disconnected: {n_comp} components with sizes {sizes.tolist()}"
        )
    paths = dijkstra(graph, directed=False)
    paths *= paths
    np.fill_diagonal(paths, 0.0)
    return mirror_upper_inplace(paths)


def perturb_noise(points, sigma="auto", seed: int = 0) -> np.ndarray:
    """Squared Euclidean distances with Gaussian noise added to the distances.

    ``sigma`` is the noise scale, or "auto" for max pairwise distance / 500.
    Noise is drawn once per unordered pair (upper triangle, row-major).
    """
    p = _as_points(points)
    n = p.shape[0]
    dist = _distances(p)
    if isinstance(sigma, str):
        if sigma != "auto":
            raise ValueError(f"sigma must be a positive number or 'auto', got {sigma!r}")
        sigma = float(dist.max()) / 500.0
        if sigma == 0.0:
            raise ValueError("the automatic noise scale needs points that do not all coincide")
    sigma = _check_sigma(sigma)
    rng = _rng(seed)
    for i in range(n - 1):  # row by row draws the same stream as one draw
        dist[i, i + 1:] += rng.normal(0.0, sigma, size=n - 1 - i)
    dist *= dist
    np.fill_diagonal(dist, 0.0)
    return mirror_upper_inplace(dist)


def perturb_missing(points, keep_prob: float, seed: int = 0) -> np.ndarray:
    """Squared distances over the coordinates both points retained.

    Each (point, coordinate) survives independently with ``keep_prob``.
    Raises if some pair shares no surviving coordinate.

    Draw order: one uniform mask block of shape (n, d), row-major.
    """
    p = _as_points(points)
    keep_prob = float(keep_prob)
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")
    m = (_rng(seed).uniform(size=p.shape) < keep_prob).astype(np.float64)
    shared = m @ m.T  # exact counts while d < 2**53
    np.fill_diagonal(shared, 1.0)
    i, j = divmod(int(shared.argmin()), shared.shape[0])  # the first 0: counts are >= 0
    if shared[i, j] == 0.0:
        raise ValueError(f"points {i} and {j} share no surviving coordinate")
    del shared
    pm = p * m
    a = (p * p * m) @ m.T
    return sum_minus_twice(pm @ pm.T, lambda i0, i1: a[i0:i1, i0:] + a[i0:, i0:i1].T)
