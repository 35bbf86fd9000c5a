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
from .selection import PLUS, _check_k, _prefix, select

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
    # (u * u) @ dl a strip of rows at a time: no n x n temporary
    v = np.concatenate([np.square(u[i0:i0 + BLOCK]) @ dl for i0 in range(0, n, BLOCK)])
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

    and c1, c2 are ``decompose``'s, bitwise.  Each method runs ``select`` once,
    at its largest k; the selection at a smaller k is the prefix of its picks
    (``selection._prefix``), and y and g are running sums along the pick order
    (``_prefix_sums``), so each eigenvector is gathered once per method and each
    row costs O(n) past the sums, with no n x n array.  A row is None where the
    subtractions cancel: stress_sq or scaled_additive^2 at or below
    ``SPECTRAL_FLOOR`` ||d||^2, or ||d_hat||^2 below ``SPECTRAL_FLOOR`` 4 t.t.
    Axes orthogonal to 1 give ||d_hat||^2 >= 4 t.t; a smaller one comes from an
    axis along 1, which adds nothing to d_hat.  ``avg_distortion`` and
    ``neg_dissim_count`` are None on every row.  Rows come in ``grid``'s order.
    """
    d = np.asarray(d, dtype=np.float64)
    lam, u = dec.eigenvalues, dec.eigenvectors
    n = dec.n
    if u is None or d.shape != (n, n):
        raise ValueError("spectral_reports() needs d and its decomposition with eigenvectors")
    rowsum = d.sum(axis=1)
    b = rowsum / n - float(rowsum.sum()) / (2.0 * n * n)
    dd = float(np.vdot(d, d))
    reports: list[StressReport | None] = [None] * len(grid)
    for method in dict.fromkeys(m for _, m in grid):
        rows = sorted((_check_k(k, n), i) for i, (k, m) in enumerate(grid) if m == method)
        top = select(lam, rows[-1][0], method)
        # per-pick weights: the axis value, or for neuc-plus the eigenvalue and a
        # unit weight, which the shift s1 / (1 + k) of each k scales
        shifted = top.mode == PLUS
        w = np.column_stack([lam[top.chosen], np.ones(top.k)]) if shifted else top.values[:, None]
        for (k, i), (ys, gs) in zip(rows, _prefix_sums(u, top.chosen, w, [k for k, _ in rows])):
            sel = _prefix(lam, top, k)
            # _result's s1 / (1 + k): the dropped values' sum in ascending index order
            coef = [1.0, float(np.sum(np.delete(lam, sel.chosen))) / (1.0 + k)] if shifted else [1.0]
            reports[i] = _spectral_row(lam, sel, ys @ coef, gs @ coef, rowsum, b, dd)
    return reports


def _prefix_sums(u, chosen, w, ks):
    """For each k of the ascending ``ks``, the n x p running sums over the first
    k picks in ``chosen``: Y = sum_j u_j^2 w_j and G = sum_j (1.u_j) u_j w_j, for
    the eigenvectors u_j and the rows w_j of the weights w (one per pick).  The
    picks between two ks are gathered once, together; the two arrays yielded
    are updated in place by the next step."""
    ys, gs = np.zeros((2, u.shape[0], w.shape[1]))
    done = 0
    for k in ks:
        block = np.take(u, chosen[done:k], axis=1)
        gs += block @ (block.sum(axis=0)[:, None] * w[done:k])
        ys += np.square(block, out=block) @ w[done:k]
        done = k
        yield ys, gs


def _spectral_row(lam, sel, y, g, rowsum, b, dd) -> StressReport | None:
    """The report of ``sel`` from y = diag G and g = G 1 by the closed forms of
    ``spectral_reports``, or None where they cancel."""
    n, t = y.size, sel.values
    cross = 2.0 * float(rowsum @ y) - 4.0 * float(b @ g) + 4.0 * float(t @ lam[sel.chosen])
    sy, tt = float(y.sum()), float(t @ t)
    hat = 2.0 * n * float(y @ y) + 2.0 * sy * sy + 4.0 * tt - 8.0 * float(y @ g)
    ssq = dd - 2.0 * cross + hat
    resid = dd - cross * cross / hat if hat > 0.0 else dd
    floor = SPECTRAL_FLOOR * dd
    if ssq <= floor or resid <= floor or hat < SPECTRAL_FLOOR * 4.0 * tt:
        return None
    full = np.zeros(n)
    full[sel.chosen] = t
    c1, c2 = _dropped_terms(lam - full)
    v = b - y
    return StressReport(
        stress_sq=ssq,
        stress=math.sqrt(ssq),
        c1=c1,
        c2=c2,
        c3=2.0 * n * float(v @ v) - c2 / 2.0,
        scaled_additive=math.sqrt(resid),
        avg_distortion=None,
        neg_dissim_count=None,
        neg_axes_count=int(np.sum(t < 0.0)),
    )


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


def _above_diagonal(strip: np.ndarray) -> np.ndarray:
    """Zero, in the strip ``[i0:i0 + BLOCK, i0:]`` of a mask or a float matrix,
    the entries on and below the diagonal; returns the strip."""
    tile = strip[:, :strip.shape[0]]
    np.copyto(tile, False, where=np.tri(*tile.shape, dtype=bool))
    return strip


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
    partitions, which keeps the mean's summation in row-major order.
    """
    d, d_hat = _pair(d, d_hat)
    starts = range(0, d.shape[0], BLOCK)
    count = sum(int(np.count_nonzero(_qualifying(d, d_hat, i0))) for i0 in starts)
    if count == 0:
        return None
    logs, end = np.empty(count), 0
    for i0 in starts:  # row-major over the upper triangle: fixes the mean's order
        rows = slice(i0, i0 + BLOCK)
        end += _log_ratios(d[rows, i0:], d_hat[rows, i0:], _qualifying(d, d_hat, i0), logs[end:])
    return _distortion(logs)


def _log_ratios(a, b, ok, out) -> int:
    """Write (log a - log b) / 2 over the mask ``ok`` of two strips, in row-major
    order, at the start of ``out``; returns the count written."""
    out = out[:int(np.count_nonzero(ok))]
    np.log(a[ok], out=out)
    other = b[ok]
    np.subtract(out, np.log(other, out=other), out=out)
    out *= 0.5
    return out.size


def _distortion(logs, in_place: bool = False) -> float:
    """exp of the mean |l - median| over the half log-ratios ``logs``, which it
    overwrites; the median partitions a copy, or ``logs`` itself if ``in_place``."""
    # np.median's value up to the sign of a zero, which the abs drops; it needs
    # no NaN check, as a NaN log-ratio (+inf on both sides) makes the mean NaN
    half = logs.size // 2
    part = logs if in_place else logs.copy()
    part.partition(half)
    logs -= part[half] if logs.size % 2 else (part[:half].max() + part[half]) / 2.0
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


def _upper_strips(d, x, signature, bufs):
    """Rows i0:i1 of d and of d_hat = (y_i + y_j) - 2 g_ij, g = x^T S x, y = diag g,
    from column i0 on and zero on and below the diagonal, per strip of ``BLOCK``
    rows (one GEMM each), in the two rows of ``bufs`` (2 x BLOCK n floats)."""
    s, n = np.asarray(signature, dtype=np.float64), x.shape[1]
    y = np.einsum("l,li,li->i", s, x, x)
    for i0 in range(0, n, BLOCK):
        i1, m = i0 + BLOCK, n - i0
        part, hat = (b[:min(BLOCK, m) * m].reshape(-1, m) for b in bufs)
        np.add.outer(y[i0:i1], y[i0:], out=part)
        np.matmul((s[:, None] * x[:, i0:i1]).T, x[:, i0:], out=hat)
        hat *= 2.0
        np.subtract(part, hat, out=hat)
        np.copyto(part, d[i0:i1, i0:])  # the pair sums' buffer takes d's strip
        yield _above_diagonal(part), _above_diagonal(hat)


def strip_report(d, coords, signature, split=None) -> StressReport:
    """Error report of the embedding ``coords`` (k x n) under ``signature`` against
    the hollow symmetric d, with ``split`` as (c1, c2, c3), summed over the pairs
    i < j of strips of d_hat in one pass, plus a second for the scaled additive
    error where ||d - d_hat||^2 - <d - d_hat, d_hat>^2 / ||d_hat||^2 would cancel
    a digit.  Equal to the whole-matrix metrics up to rounding."""
    d, x = np.asarray(d, dtype=np.float64), np.asarray(coords, dtype=np.float64)
    n = x.shape[1]
    if d.shape != (n, n):
        raise ValueError(f"matrix shapes do not match: {d.shape} vs {(n, n)}")
    bufs, logs = np.empty((2, min(BLOCK, n) * n)), np.empty(n * (n - 1) // 2)
    dd = cross = hh = ssq = along = neg = count = 0
    for dp, hat in _upper_strips(d, x, signature, bufs):
        dd += float(np.vdot(dp, dp))
        cross += float(np.vdot(dp, hat))
        hh += float(np.vdot(hat, hat))
        neg += int(np.count_nonzero(hat < 0.0))
        count += _log_ratios(dp, hat, (dp > 0.0) & (hat > 0.0), logs[count:])
        miss = np.subtract(dp, hat, out=dp)
        ssq += float(np.vdot(miss, miss))
        along += float(np.vdot(miss, hat))
    resid = dd if hh == 0.0 else ssq - along * along / hh
    if hh > 0.0 and resid < 0.1 * ssq:
        t, resid = cross / hh, 0.0
        for dp, hat in _upper_strips(d, x, signature, bufs):
            hat *= t
            resid += float(np.vdot(np.subtract(dp, hat, out=hat), hat))
    c1, c2, c3 = split or (None, None, None)
    return StressReport(stress_sq=2.0 * ssq, stress=math.sqrt(2.0 * ssq), c1=c1, c2=c2, c3=c3,
                        scaled_additive=math.sqrt(2.0 * resid),
                        avg_distortion=_distortion(logs[:count], in_place=True) if count else None,
                        neg_dissim_count=neg, neg_axes_count=int(np.sum(np.asarray(signature) < 0)))
