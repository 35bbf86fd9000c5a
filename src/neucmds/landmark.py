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
from .linalg import BLOCK, _require_integer, as_square_matrix, check_dissimilarity
from .selection import NEUC, normalize_method

# axes whose |axis value| falls below this fraction of the largest are
# dropped from the model instead of divided by
AXIS_DROP_REL_TOL = 1e-12


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


def fit_landmarks(d, m: int, k: int, method: str = NEUC, seed: int = 0,
                  name: str = "dissimilarity matrix") -> LandmarkModel:
    """Embed m landmarks, drawn uniformly by ``seed``, with the requested method.

    Requires 2 <= m <= n and 1 <= k <= m - 1.  Axes whose value vanishes
    (relatively) are excluded from the model so triangulation never divides
    by zero.  ``name`` is what validation errors call the input.
    """
    d = check_dissimilarity(d, name)
    n = d.shape[0]
    _require_integer(m, "the landmark count")
    if m < 2:
        raise ValueError(f"the landmark count must be at least 2, got {m}")
    m = int(m)
    if m > n:
        raise ValueError(f"cannot draw {m} landmarks from {n} points")
    method = normalize_method(method)  # the method before k, as ``spectrum`` checks a pair
    _require_integer(k, "k")
    if not 1 <= k <= m - 1:
        raise ValueError(f"k must satisfy 1 <= k <= m - 1 = {m - 1} for m={m} landmarks, got {k}")
    idx = np.sort(_rng(seed).choice(n, size=m, replace=False))
    sub = d[np.ix_(idx, idx)]
    try:  # taken before sub is centered in place; it overflows where the centering would
        with np.errstate(over="raise"):
            mean_dissim = sub.mean(axis=0)
    except FloatingPointError:
        raise FloatingPointError("double centering overflowed; rescale the input") from None
    dec, [(k, method)] = spectrum(sub, [(k, method)], overwrite=True)
    emb = embed_from_decomposition(dec, k, method)
    keep = np.abs(emb.axis_values) > AXIS_DROP_REL_TOL * float(np.max(np.abs(emb.axis_values)))
    base = replace(emb, coords=emb.coords[keep], signature=emb.signature[keep],
                   axis_values=emb.axis_values[keep], axis_indices=emb.axis_indices[keep],
                   split=None)
    return LandmarkModel(
        landmark_indices=idx,
        base=base,
        mean_dissim=mean_dissim,
        projection=base.coords / (-2.0 * dec.eigenvalues[base.axis_indices])[:, None],
    )


def triangulate(model: LandmarkModel, delta) -> np.ndarray:
    """Coordinates of a new point from its m dissimilarities to the landmarks,
    or k x p coordinates from an m x p array with one point per column.

    ``delta`` follows the same convention as the input matrix.  Triangulating
    a landmark's own row reproduces its base coordinates; the mean row maps
    to the origin.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim > 2 or delta.shape[:1] != (model.m,):
        raise ValueError(f"expected {model.m} dissimilarities, got shape {delta.shape}")
    mean = model.mean_dissim if delta.ndim == 1 else model.mean_dissim[:, None]
    return model.projection @ (delta - mean)


def embed_landmark(d, m: int, k: int, method: str = NEUC, seed: int = 0,
                   name: str = "dissimilarity matrix") -> Embedding:
    """Fit landmarks, triangulate every point, then keep the landmarks' base coordinates.

    Returns an embedding over all n points carrying the landmark signature;
    its axis indices refer to the landmark submatrix spectrum.  The points are
    placed ``BLOCK`` columns at a time, so no m x n array is held.
    """
    d = as_square_matrix(d, name)  # fit_landmarks validates it
    model = fit_landmarks(d, m, k, method=method, seed=seed, name=name)
    idx, n = model.landmark_indices, d.shape[0]
    coords = np.empty((model.base.k, n))
    # column j of the landmarks' rows holds point j's dissimilarities to them (d is symmetric)
    for j0 in range(0, n, BLOCK):
        coords[:, j0:j0 + BLOCK] = triangulate(model, d[idx, j0:j0 + BLOCK])
    coords[:, idx] = model.base.coords
    return replace(model.base, coords=coords)
