"""Landmark-accelerated embedding.

Embed a small landmark subset, then place every remaining point by a linear
triangulation against the landmark eigenvectors.  The triangulation divides
by the signed landmark eigenvalue, which reduces to the classical landmark
pseudo-inverse step when the spectrum is positive and stays exact for points
whose dissimilarity rows lie in the landmark span.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datasets import _rng
from .embedding import Embedding, embed_from_decomposition, spectrum
from .linalg import as_square_matrix, check_dissimilarity
from .selection import NEUC

# axes whose |axis value| falls below this fraction of the largest are
# dropped from the model instead of divided by
AXIS_DROP_REL_TOL = 1e-12

RANDOM = "random"
MAXMIN = "maxmin"


@dataclass(frozen=True)
class LandmarkModel:
    """Embedded landmark subset plus what triangulation needs.

    ``projection`` (k x m) maps a point's landmark dissimilarities, less the
    column means ``mean_dissim`` of the landmark submatrix, to its
    coordinates: row l is ``base.coords[l]`` divided by -2 times the
    original, unshifted eigenvalue of axis l.
    """

    landmark_indices: np.ndarray
    base: Embedding
    mean_dissim: np.ndarray
    projection: np.ndarray

    @property
    def m(self) -> int:
        return int(self.landmark_indices.shape[0])

    @property
    def k(self) -> int:
        return int(self.base.coords.shape[0])


def _pick_landmarks(d: np.ndarray, m: int, seed: int, strategy: str) -> np.ndarray:
    n = d.shape[0]
    rng = _rng(seed)
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
                  strategy: str = RANDOM, name: str = "dissimilarity matrix") -> LandmarkModel:
    """Embed m seeded landmarks with the requested method.

    Requires k < m <= n.  Axes whose value vanishes (relatively) are excluded
    from the model so triangulation never divides by zero.  ``name`` is what
    validation errors call the input.
    """
    d = check_dissimilarity(d, name)
    n = d.shape[0]
    m = int(m)
    k = int(k)
    if m > n:
        raise ValueError(f"cannot draw {m} landmarks from {n} points")
    if m <= k:
        raise ValueError(f"need more landmarks than axes: m={m}, k={k}")
    idx = _pick_landmarks(d, m, seed, strategy)
    sub = d[np.ix_(idx, idx)]
    dec, [(k, method)] = spectrum(sub, [(k, method)])
    emb = embed_from_decomposition(dec, k, method)
    keep = np.abs(emb.axis_values) > AXIS_DROP_REL_TOL * float(np.max(np.abs(emb.axis_values)))
    base = replace(emb, coords=emb.coords[keep], signature=emb.signature[keep],
                   axis_values=emb.axis_values[keep], axis_indices=emb.axis_indices[keep],
                   split=None)
    return LandmarkModel(
        landmark_indices=idx,
        base=base,
        mean_dissim=sub.mean(axis=0),
        projection=base.coords / (-2.0 * dec.eigenvalues[base.axis_indices])[:, None],
    )


def triangulate(model: LandmarkModel, delta) -> np.ndarray:
    """Coordinates of one new point from its dissimilarities to the landmarks.

    ``delta`` follows the same convention as the input matrix.  Triangulating
    a landmark's own row reproduces its base coordinates; the mean row maps
    to the origin.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (model.m,):
        raise ValueError(f"expected {model.m} dissimilarities, got shape {delta.shape}")
    return model.projection @ (delta - model.mean_dissim)


def embed_landmark(d, m: int, k: int, method: str = NEUC, seed: int = 0,
                   strategy: str = RANDOM, name: str = "dissimilarity matrix") -> Embedding:
    """Fit landmarks, then triangulate every non-landmark point.

    Returns an embedding over all n points carrying the landmark signature;
    its axis indices refer to the landmark submatrix spectrum.
    """
    d = as_square_matrix(d, name)  # fit_landmarks validates it
    model = fit_landmarks(d, m, k, method=method, seed=seed, strategy=strategy, name=name)
    n = d.shape[0]
    coords = np.empty((model.k, n), dtype=np.float64)
    coords[:, model.landmark_indices] = model.base.coords
    rest = np.setdiff1d(np.arange(n), model.landmark_indices, assume_unique=True)
    # column j holds rest[j]'s dissimilarities to the landmarks (d is symmetric)
    deltas = d[np.ix_(model.landmark_indices, rest)]
    coords[:, rest] = model.projection @ (deltas - model.mean_dissim[:, None])
    return replace(model.base, coords=coords)
