"""Stress and its exact decomposition, plus secondary error metrics.

Stress here is the squared Frobenius norm of the difference between the
reconstructed and the input dissimilarity matrices.  For any rank-k diagonal
substitution of the spectrum it splits exactly into three terms c1 + c2 + c3,
which is the identity the acceptance suite verifies.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class StressReport:
    """Flat error report for one embedding of one dissimilarity matrix.

    ``avg_distortion`` is None when no pair has positive dissimilarity on
    both sides, and ``c1``/``c2``/``c3`` are None when the embedding has no
    decomposition of the full matrix (both serialized as JSON null).
    """

    stress_sq: float
    stress: float
    c1: float | None
    c2: float | None
    c3: float | None
    scaled_additive: float
    avg_distortion: float | None
    neg_dissim_count: int
    neg_axes_count: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _pair(d, d_hat) -> tuple[np.ndarray, np.ndarray]:
    d = np.asarray(d, dtype=np.float64)
    d_hat = np.asarray(d_hat, dtype=np.float64)
    if d.shape != d_hat.shape or d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"matrix shapes do not match: {d.shape} vs {d_hat.shape}")
    return d, d_hat


def stress(d, d_hat) -> float:
    """Squared Frobenius norm of (d_hat - d), summed over all entries."""
    d, d_hat = _pair(d, d_hat)
    diff = d_hat - d
    return float(np.sum(diff * diff))


def decompose(lam, u, w, lam_tilde) -> tuple[float, float, float]:
    """Exact three-term stress split for axis values ``lam_tilde``.

    Parameters
    ----------
    lam : (n,) array
        Eigenvalues of the centered Gram matrix, sorted descending.
    u : (n, n) array
        Paired eigenvectors, one per column.
    w : (n,) bool array
        Indicator of the selected axes.
    lam_tilde : (n,) array
        Axis values actually used; must vanish outside the support of w.

    Returns
    -------
    (c1, c2, c3) : floats summing to the stress of the reconstruction built
    from ``lam_tilde`` against the one built from ``lam`` itself.
    """
    lam = np.asarray(lam, dtype=np.float64)
    lam_tilde = np.asarray(lam_tilde, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    w = np.asarray(w, dtype=bool)
    n = lam.shape[0]
    if lam_tilde.shape != lam.shape or w.shape != lam.shape or u.shape != (n, n):
        raise ValueError("inconsistent dimensions in decompose()")
    if np.any(lam_tilde[~w] != 0.0):
        i = int(np.flatnonzero(~w & (lam_tilde != 0.0))[0])
        raise ValueError(f"axis value {i} is nonzero outside the selected set")

    dl = lam - lam_tilde
    c1 = 4.0 * (float(np.sum(lam[~w] ** 2)) + float(np.sum(dl[w] ** 2)))
    total = float(np.sum(lam[~w])) + float(np.sum(dl[w]))
    c2 = 4.0 * total * total
    v = (u * u) @ dl
    c3 = 2.0 * n * float(np.sum(v * v)) - c2 / 2.0
    return c1, c2, c3


def scaled_additive_error(d, d_hat) -> float:
    """Residual norm after projecting d onto the line through d_hat.

    Both matrices are flattened; the best scaling of d_hat is applied before
    taking the (un-squared) norm of the difference.  A zero d_hat gives the
    norm of d itself.
    """
    d, d_hat = _pair(d, d_hat)
    x = d.ravel()
    y = d_hat.ravel()
    yy = float(np.dot(y, y))
    if yy == 0.0:
        return float(np.linalg.norm(x))
    t = float(np.dot(x, y)) / yy
    return float(np.linalg.norm(x - t * y))


def avg_geometric_distortion(d, d_hat) -> float | None:
    """Scale-free geometric mean distortion over comparable pairs.

    Uses off-diagonal pairs with positive values on both sides, rescales the
    ratio set by the reciprocal of its median so equal counts lie above and
    below one, flips ratios below one, and returns the geometric mean.
    None when no pair qualifies.
    """
    d, d_hat = _pair(d, d_hat)
    iu = np.triu_indices(d.shape[0], 1)
    a = d[iu]
    b = d_hat[iu]
    ok = (a > 0.0) & (b > 0.0)
    if not np.any(ok):
        return None
    logs = 0.5 * (np.log(a[ok]) - np.log(b[ok]))
    logs -= np.median(logs)
    return float(math.exp(np.mean(np.abs(logs))))


def negativity_stats(d_hat, signature) -> tuple[int, int]:
    """Counts of negative off-diagonal dissimilarities (each pair once) and
    of axes carrying negative signature."""
    d_hat = np.asarray(d_hat, dtype=np.float64)
    iu = np.triu_indices(d_hat.shape[0], 1)
    neg_pairs = int(np.sum(d_hat[iu] < 0.0))
    neg_axes = int(np.sum(np.asarray(signature) < 0))
    return neg_pairs, neg_axes

