"""Landmark-accelerated embedding.

Embed a small landmark subset, then place every remaining point by a linear
triangulation against the landmark eigenvectors.  The triangulation divides
by the signed landmark eigenvalue, which reduces to the classical landmark
pseudo-inverse step when the spectrum is positive and stays exact for points
whose dissimilarity rows lie in the landmark span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import Embedding, embed_from_decomposition
from .linalg import check_dissimilarity, double_center, eig_sym
from .selection import NEUC, normalize_method

# axes whose |axis value| falls below this fraction of the largest are
# dropped from the model instead of divided by
AXIS_DROP_REL_TOL = 1e-12

RANDOM = "random"
MAXMIN = "maxmin"


@dataclass(frozen=True)
class LandmarkModel:
    """Embedded landmark subset plus what triangulation needs.

    ``vectors[l]`` is the landmark eigenvector of axis l (length m) and
    ``axis_eigenvalues[l]`` its original, unshifted eigenvalue; both follow
    the axis order of ``base``.  ``mean_dissim`` holds the column means of
    the landmark submatrix.
    """

    landmark_indices: np.ndarray
    base: Embedding
    mean_dissim: np.ndarray
    vectors: np.ndarray
    axis_eigenvalues: np.ndarray

    @property
    def m(self) -> int:
        return int(self.landmark_indices.shape[0])

    @property
    def k(self) -> int:
        return int(self.base.coords.shape[0])


def _pick_landmarks(d: np.ndarray, m: int, seed: int, strategy: str) -> np.ndarray:
    n = d.shape[0]
    rng = np.random.Generator(np.random.Philox(seed))
    if strategy == RANDOM:
        idx = rng.choice(n, size=m, replace=False)
    elif strategy == MAXMIN:
        # farthest-point: seed one landmark, then repeatedly take the point
        # with the largest minimum dissimilarity to the current set
        idx = np.empty(m, dtype=np.intp)
        idx[0] = rng.integers(n)
        best = d[idx[0]].copy()
        best[idx[0]] = -np.inf
        for t in range(1, m):
            idx[t] = int(np.argmax(best))
            best = np.minimum(best, d[idx[t]])
            best[idx[t]] = -np.inf
    else:
        raise ValueError(f"unknown landmark strategy {strategy!r}")
    return np.sort(np.asarray(idx, dtype=np.intp))


def fit_landmarks(d, m: int, k: int, method: str = NEUC, seed: int = 0,
                  strategy: str = RANDOM) -> LandmarkModel:
    """Embed m seeded landmarks with the requested method.

    Requires k < m <= n.  Axes whose value vanishes (relatively) are excluded
    from the model so triangulation never divides by zero.
    """
    d = check_dissimilarity(d)
    n = d.shape[0]
    m = int(m)
    k = int(k)
    if m > n:
        raise ValueError(f"cannot draw {m} landmarks from {n} points")
    if m <= k:
        raise ValueError(f"need more landmarks than axes: m={m}, k={k}")
    idx = _pick_landmarks(d, m, seed, strategy)
    sub = d[np.ix_(idx, idx)]
    dec = eig_sym(double_center(sub))
    emb = embed_from_decomposition(dec, k, normalize_method(method))

    scale = float(np.max(np.abs(emb.axis_values))) if emb.k else 0.0
    keep = np.abs(emb.axis_values) > AXIS_DROP_REL_TOL * scale if scale else np.zeros(emb.k, bool)
    base = Embedding(
        coords=emb.coords[keep],
        signature=emb.signature[keep],
        axis_values=emb.axis_values[keep],
        axis_indices=emb.axis_indices[keep],
        selection=emb.selection,
        method=emb.method,
    )
    vectors = base.coords / np.sqrt(np.abs(base.axis_values))[:, None]
    return LandmarkModel(
        landmark_indices=idx,
        base=base,
        mean_dissim=sub.mean(axis=0),
        vectors=vectors,
        axis_eigenvalues=dec.eigenvalues[base.axis_indices],
    )


def _triangulate_block(model: LandmarkModel, deltas: np.ndarray) -> np.ndarray:
    centered = deltas.T - model.mean_dissim[:, None]
    coef = (model.vectors @ centered) / (-2.0 * model.axis_eigenvalues[:, None])
    return np.sqrt(np.abs(model.base.axis_values))[:, None] * coef


def triangulate(model: LandmarkModel, delta) -> np.ndarray:
    """Coordinates of one new point from its dissimilarities to the landmarks.

    ``delta`` follows the same convention as the input matrix.  Triangulating
    a landmark's own row reproduces its base coordinates; the mean row maps
    to the origin.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (model.m,):
        raise ValueError(f"expected {model.m} dissimilarities, got shape {delta.shape}")
    return _triangulate_block(model, delta[None, :])[:, 0]


def embed_landmark(d, m: int, k: int, method: str = NEUC, seed: int = 0,
                   strategy: str = RANDOM) -> Embedding:
    """Fit landmarks, then triangulate every non-landmark point.

    Returns an embedding over all n points carrying the landmark signature;
    its selection and axis indices refer to the landmark submatrix spectrum.
    """
    d = check_dissimilarity(d)
    model = fit_landmarks(d, m, k, method=method, seed=seed, strategy=strategy)
    n = d.shape[0]
    coords = np.empty((model.k, n), dtype=np.float64)
    coords[:, model.landmark_indices] = model.base.coords
    rest = np.setdiff1d(np.arange(n), model.landmark_indices, assume_unique=True)
    if rest.size:
        deltas = d[np.ix_(rest, model.landmark_indices)]
        coords[:, rest] = _triangulate_block(model, deltas)
    return Embedding(
        coords=coords,
        signature=model.base.signature,
        axis_values=model.base.axis_values,
        axis_indices=model.base.axis_indices,
        selection=model.base.selection,
        method=model.base.method,
    )
