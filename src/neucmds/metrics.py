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
from .selection import select

# Below this share of ||d||^2 a closed-form stress or scaled-additive residual
# is a difference of near-equal sums, and ``spectral_reports`` leaves the row to
# the entrywise path.  The closed forms err by up to about 1.5e-15 ||d||^2, so a
# row above the floor stays within 3e-11 of the entrywise value.
SPECTRAL_FLOOR = 5e-5


@dataclass(frozen=True)
class StressReport:
    """Flat error report for one embedding of one dissimilarity matrix.

    ``avg_distortion`` is None when no pair has positive dissimilarity on
    both sides, and ``c1``/``c2``/``c3`` are None when the embedding has no
    decomposition of the full matrix (both serialized as JSON null).
    ``avg_distortion`` and ``neg_dissim_count`` read the reconstruction entry
    by entry; both are None on the rows ``spectral_reports`` gives.
    """

    stress_sq: float
    stress: float
    c1: float | None
    c2: float | None
    c3: float | None
    scaled_additive: float
    avg_distortion: float | None
    neg_dissim_count: int | None
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
    c1, c2 = _dropped_terms(dl)
    v = (u * u) @ dl
    c3 = 2.0 * n * float(np.sum(v * v)) - c2 / 2.0
    return c1, c2, c3


def _dropped_terms(dl) -> tuple[float, float]:
    """c1 and c2 of the split from the per-axis differences lam - lam_tilde."""
    c1 = 4.0 * float(np.sum(dl * dl))
    total = float(np.sum(dl))
    return c1, 4.0 * total * total


def spectral_reports(d, dec, grid) -> list[StressReport | None]:
    """Stress reports of every (k, method) in ``grid`` from the spectrum alone.

    ``dec`` decomposes the centered Gram matrix B of the hollow symmetric d,
    so d_ij = B_ii + B_jj - 2 B_ij.  With the selected eigenvectors U_S, their
    eigenvalues lam_S and axis values t, the reconstruction is
    d_hat_ij = y_i + y_j - 2 G_ij for G = U_S diag(t) U_S^T and y = diag G, and
    with g = G 1 and b = diag B:

        <d, d_hat> = 2 rowsum(d).y - 4 b.g + 4 t.lam_S
        ||d_hat||^2 = 2n ||y||^2 + 2 (sum y)^2 + 4 t.t - 8 y.g
        stress_sq = ||d||^2 - 2 <d, d_hat> + ||d_hat||^2
        scaled_additive^2 = ||d||^2 - <d, d_hat>^2 / ||d_hat||^2
        c3 = 2n ||b - y||^2 - c2 / 2

    and c1, c2 are ``decompose``'s, bitwise.  Each row costs O(n k) and no
    n x n array.  A row is None where the subtractions cancel: stress_sq or
    scaled_additive^2 at or below ``SPECTRAL_FLOOR`` ||d||^2, or ||d_hat||^2
    below ``SPECTRAL_FLOOR`` 4 t.t.  Axes orthogonal to 1 give
    ||d_hat||^2 >= 4 t.t; a smaller one comes from an axis along 1, which adds
    nothing to d_hat.  ``avg_distortion`` and ``neg_dissim_count`` are None on
    every row.
    """
    d = np.asarray(d, dtype=np.float64)
    lam, u = dec.eigenvalues, dec.eigenvectors
    n = dec.n
    if u is None or d.shape != (n, n):
        raise ValueError("spectral_reports() needs d and its decomposition with eigenvectors")
    rowsum = d.sum(axis=1)
    b = rowsum / n - float(rowsum.sum()) / (2.0 * n * n)
    dd = float(np.vdot(d, d))
    floor = SPECTRAL_FLOOR * dd
    reports: list[StressReport | None] = []
    for k, method in grid:
        sel = select(lam, k, method)
        full = np.zeros(n)
        full[sel.chosen] = sel.values
        # ascending indices: the arithmetic depends on the chosen set, not the pick order
        idx = np.sort(sel.chosen)
        t = full[idx]
        us = np.take(u, idx, axis=1)
        g = us @ (t * us.sum(axis=0))
        y = np.square(us, out=us) @ t
        cross = 2.0 * float(rowsum @ y) - 4.0 * float(b @ g) + 4.0 * float(t @ lam[idx])
        sy, tt = float(y.sum()), float(t @ t)
        hat = 2.0 * n * float(y @ y) + 2.0 * sy * sy + 4.0 * tt - 8.0 * float(y @ g)
        ssq = dd - 2.0 * cross + hat
        resid = dd - cross * cross / hat if hat > 0.0 else dd
        if ssq <= floor or resid <= floor or hat < SPECTRAL_FLOOR * 4.0 * tt:
            reports.append(None)
            continue
        c1, c2 = _dropped_terms(lam - full)
        v = b - y
        reports.append(StressReport(
            stress_sq=ssq,
            stress=math.sqrt(ssq),
            c1=c1,
            c2=c2,
            c3=2.0 * n * float(v @ v) - c2 / 2.0,
            scaled_additive=math.sqrt(resid),
            avg_distortion=None,
            neg_dissim_count=None,
            neg_axes_count=int(np.sum(t < 0.0)),
        ))
    return reports


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
