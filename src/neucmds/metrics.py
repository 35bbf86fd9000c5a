"""Stress and its exact decomposition, plus secondary error metrics.

Stress here is the squared Frobenius norm of the difference between the
reconstructed and the input dissimilarity matrices.  For any rank-k diagonal
substitution of the spectrum it splits exactly into three terms c1 + c2 + c3,
which is the identity the acceptance suite verifies.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .linalg import BLOCK


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
    return float(np.sum(np.square(diff, out=diff)))


def decompose(lam, u, lam_tilde) -> tuple[float, float, float]:
    """Exact three-term stress split for axis values ``lam_tilde``.

    Parameters
    ----------
    lam : (n,) array
        Eigenvalues of the centered Gram matrix, sorted descending.
    u : (n, n) array
        Paired eigenvectors, one per column; None (a values-only solve)
        raises ``ValueError``.
    lam_tilde : (n,) array
        Axis values actually used, zero off the selected axes.

    Returns
    -------
    (c1, c2, c3) : floats summing to the stress of the reconstruction built
    from ``lam_tilde`` against the one built from ``lam`` itself.
    """
    if u is None:
        raise ValueError("the decomposition was computed without eigenvectors")
    lam = np.asarray(lam, dtype=np.float64)
    lam_tilde = np.asarray(lam_tilde, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    n = lam.shape[0]
    if lam_tilde.shape != lam.shape or u.shape != (n, n):
        raise ValueError("inconsistent dimensions in decompose()")

    dl = lam - lam_tilde
    c1 = 4.0 * float(np.sum(dl * dl))
    total = float(np.sum(dl))
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
    residual = t * y
    return float(np.linalg.norm(np.subtract(x, residual, out=residual)))


def _above_diagonal(mask: np.ndarray) -> np.ndarray:
    """Clear, in a mask of the strip ``[i0:i0 + BLOCK, i0:]``, the entries on and
    below the diagonal; returns the mask."""
    tile = mask[:, :mask.shape[0]]
    np.copyto(tile, False, where=np.tri(*tile.shape, dtype=bool))
    return mask


def _qualifying(d, d_hat, i0) -> np.ndarray:
    """Mask of the strict-upper pairs in strip i0 positive on both sides."""
    rows = slice(i0, i0 + BLOCK)
    ok = d[rows, i0:] > 0.0
    ok &= d_hat[rows, i0:] > 0.0
    return _above_diagonal(ok)


def avg_geometric_distortion(d, d_hat) -> float | None:
    """Scale-free geometric mean distortion over comparable pairs.

    Uses off-diagonal pairs with positive values on both sides, rescales the
    ratio set by the reciprocal of its median so equal counts lie above and
    below one, flips ratios below one, and returns the geometric mean.
    None when no pair qualifies.

    Reads d and d_hat in strips of ``BLOCK`` rows and holds two float
    buffers of the qualifying count: the log-ratios and the copy the median
    partitions.
    """
    d, d_hat = _pair(d, d_hat)
    starts = range(0, d.shape[0], BLOCK)
    count = sum(int(np.count_nonzero(_qualifying(d, d_hat, i0))) for i0 in starts)
    if count == 0:
        return None
    logs, end = np.empty(count), 0
    for i0 in starts:  # row-major over the upper triangle: fixes the mean's order
        ok = _qualifying(d, d_hat, i0)
        rows = slice(i0, i0 + BLOCK)
        out = logs[end:end + int(np.count_nonzero(ok))]
        end += out.size
        np.log(d[rows, i0:][ok], out=out)
        other = d_hat[rows, i0:][ok]
        np.subtract(out, np.log(other, out=other), out=out)
    logs *= 0.5
    # np.median's value up to the sign of a zero, which the abs drops; it needs
    # no NaN check, as a NaN log-ratio (+inf on both sides) makes the mean NaN
    half = count // 2
    part = logs.copy()
    part.partition(half)
    logs -= part[half] if count % 2 else (part[:half].max() + part[half]) / 2.0
    return float(math.exp(np.mean(np.abs(logs, out=logs))))


def negativity_stats(d_hat, signature) -> tuple[int, int]:
    """Counts of negative off-diagonal dissimilarities (each pair once) and
    of axes carrying negative signature.  Reads d_hat in strips of ``BLOCK``
    rows."""
    d_hat = np.asarray(d_hat, dtype=np.float64)
    neg_pairs = sum(int(np.count_nonzero(_above_diagonal(d_hat[i0:i0 + BLOCK, i0:] < 0.0)))
                    for i0 in range(0, d_hat.shape[0], BLOCK))
    neg_axes = int(np.sum(np.asarray(signature) < 0))
    return neg_pairs, neg_axes
