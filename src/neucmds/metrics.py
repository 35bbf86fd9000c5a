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

from .linalg import BLOCK, _check_finite
from .selection import PLUS, _check_k, select


@dataclass(frozen=True)
class StressReport:
    """Flat error report for one embedding of one dissimilarity matrix.

    ``avg_distortion`` is None when no pair has positive dissimilarity on
    both sides, and ``c1``/``c2``/``c3`` are None when the embedding has no
    decomposition of the full matrix (both serialized as JSON null).
    ``avg_distortion`` and ``neg_dissim_count`` read the reconstruction entry
    by entry; both are None on the sweep rows, which come from the spectrum.
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
    """Exact three-term stress split (c1, c2, c3) for the axis values
    ``lam_tilde`` (zero off the selected axes) on the eigenvalues ``lam``
    (descending) and eigenvectors ``u`` (one per column; None raises
    ``ValueError``) of the centered Gram matrix.  With dl = lam - lam_tilde,
    c1 = 4 ||dl||^2, c2 = 4 (sum dl)^2 and c3 = 2n ||z||^2 - c2 / 2 for
    z = (U o U) dl, the one-column call of ``_add_axes``, the sums of ``spectral_reports``.
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
    c1, c2, _ = _dropped_terms(dl)
    z = np.zeros((1, n))
    _add_axes(z, u.T, np.arange(n), dl)
    return c1, c2, 2.0 * n * float(z[0] @ z[0]) - c2 / 2.0


def _dropped_terms(dl) -> tuple[float, float, float]:
    """c1, c2 and sum dl of the split from the per-axis differences dl = lam - lam_tilde."""
    c1 = 4.0 * float(np.sum(dl * dl))
    total = float(np.sum(dl))
    return c1, 4.0 * total * total, total


def _add_axes(sums, vt, axes, w, ones=None) -> None:
    """Add w^T (V o V) to ``sums[0]`` and, with the axis sums ``ones`` = 1^T U,
    (ones o w)^T V to ``sums[1]``, for the eigenvectors V = ``vt[axes]`` (one per
    row of vt = U^T) and their weights w (one entry or row per axis).  The rows
    are gathered into one buffer, min(BLOCK, n / 16) at a time, so no call holds
    an n x n array."""
    n = vt.shape[1]
    rows = min(BLOCK, max(1, n // 16))
    buf = np.empty((min(rows, len(axes)), n))
    for a0 in range(0, len(axes), rows):
        picks, wb = axes[a0:a0 + rows], w[a0:a0 + rows]
        # "clip" writes straight into buf, where the default mode buffers its out
        v = np.take(vt, picks, axis=0, out=buf[:len(picks)], mode="clip")
        if ones is not None:
            sums[1] += (ones[picks, None] * wb).T @ v
        sums[0] += wb.T @ np.square(v, out=v)


def spectral_reports(dec, grid) -> list[StressReport]:
    """Stress reports of every (k, method) in ``grid`` from the spectrum alone,
    in ``grid``'s order, with ``avg_distortion`` and ``neg_dissim_count`` None.

    ``dec`` decomposes the centered Gram matrix B = U diag(lam) U^T of a hollow
    symmetric d, so d_ij = B_ii + B_jj - 2 B_ij (Gower).  With the axis values t
    on the chosen axes S and dl = lam - lam_tilde, the head sums
    y = sum_S t_j u_j^2 and g = sum_S t_j (1.u_j) u_j and the tail sums
    z = sum dl_j u_j^2 and h = sum dl_j (1.u_j) u_j give

        stress_sq = 2n ||z||^2 + 2 (sum z)^2 + 4 ||dl||^2 - 8 z.h
        ||d_hat||^2 = 2n ||y||^2 + 2 (sum y)^2 + 4 t.t - 8 y.g
        <d_hat, d - d_hat> = 2n y.z + 2 sum y sum z - 4 y.h - 4 z.g + 4 t.dl_S
        scaled_additive^2 = stress_sq - <d_hat, d - d_hat>^2 / ||d_hat||^2
        c3 = 2n ||z||^2 - c2 / 2

    with ``scaled_additive_error``'s rule for a zero d_hat (||d_hat||^2 <= 0),
    and c1, c2 ``decompose``'s, bitwise.  Each method selects once, at its
    largest k: no selector's steps depend on k, so a smaller k's picks are a prefix.
    One pass over every eigenvector (``_add_axes``) gives each method's head at
    that k and its tail over the other axes; the walk down the ks moves the picks
    between two ks from the head to the tail.  No row builds an n x n array.
    """
    lam, u, n = dec.eigenvalues, dec.eigenvectors, dec.n
    if u is None:
        raise ValueError("spectral_reports() needs a decomposition with eigenvectors")
    walks = []
    for method in dict.fromkeys(m for _, m in grid):
        rows = sorted(((_check_k(k, n), i) for i, (k, m) in enumerate(grid) if m == method),
                      reverse=True)
        top = select(lam, rows[0][0], method)
        # on the picks, the head's axis value and 0, or for neuc-plus the eigenvalue and
        # 1, which each k's shift s1 / (1 + k) scales; then the tail's, lam less the first
        w = np.zeros((n, 3))
        w[top.chosen, 0] = lam[top.chosen] if top.mode == PLUS else top.values
        w[top.chosen, 1] = top.mode == PLUS
        w[:, 2] = lam - w[:, 0]
        walks.append((rows, top, w))
    vt, ones = u.T, u.sum(axis=0)
    reports: list[StressReport] = [None] * len(grid)
    for rows, top, w in walks:
        sums = np.zeros((2, 3, n))
        _add_axes(sums, vt, np.arange(n), w, ones)
        # a pick leaving the head for the tail: -w0 and -w1 on the head, +w0 on the tail
        move = w[top.chosen][:, [0, 1, 0]] * [-1.0, -1.0, 1.0]
        done = top.k
        for k, i in rows:
            _add_axes(sums, vt, top.chosen[k:done], move[k:done], ones)
            done = k
            reports[i] = _spectral_row(lam, top, k, sums)
    return reports


def _spectral_row(lam, top, k, sums) -> StressReport:
    """The report of the first k picks of ``top`` by the formulas of ``spectral_reports``,
    from the 2 x 3 x n sums (w^T (U o U)^T and (ones o w)^T U^T) of its walk's weights w."""
    n, chosen = lam.size, top.chosen[:k]
    # select(lam, k, top.mode)'s axis values, bitwise: neuc-plus shifts each pick
    # by _result's s1 / (1 + k), the others' rules act entry by entry
    shift = float(np.sum(np.delete(lam, chosen))) / (1.0 + k) if top.mode == PLUS else 0.0
    t = lam[chosen] + shift if top.mode == PLUS else top.values[:k]
    dl = lam.copy()
    dl[chosen] -= t
    c1, c2, sz = _dropped_terms(dl)
    # [y z] and [g h]
    yz, gh = np.array([[1.0, shift, 0.0], [0.0, -shift, 1.0]]) @ sums
    (yy, y_z), (_, zz) = (yz @ yz.T).tolist()
    (yg, yh), (zg, zh) = (yz @ gh.T).tolist()
    sy = float(np.sum(t))  # sum y, and sum z = sum dl: each u_j has unit norm
    hat = 2.0 * n * yy + 2.0 * sy * sy + 4.0 * float(t @ t) - 8.0 * yg
    # stress_sq and the residual are squared norms: only rounding takes them below 0
    ssq = max(2.0 * n * zz + 2.0 * sz * sz + c1 - 8.0 * zh, 0.0)
    along = 2.0 * n * y_z + 2.0 * sy * sz - 4.0 * yh - 4.0 * zg + 4.0 * float(t @ dl[chosen])
    resid = max(ssq - along * along / hat, 0.0) if hat > 0.0 else ssq
    c3 = 2.0 * n * zz - c2 / 2.0
    _check_finite("the report's sums", ssq, hat, resid, c1, c2, c3)
    return StressReport(stress_sq=ssq, stress=math.sqrt(ssq), c1=c1, c2=c2,
                        c3=c3, scaled_additive=math.sqrt(resid),
                        avg_distortion=None, neg_dissim_count=None,
                        neg_axes_count=int(np.count_nonzero(t < 0.0)))


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
    """Zero, in the float strip ``[i0:i0 + BLOCK, i0:]`` of ``_upper_strips``,
    the entries on and below the diagonal; returns the strip."""
    tile = strip[:, :strip.shape[0]]
    np.copyto(tile, False, where=np.tri(*tile.shape, dtype=bool))
    return strip


def avg_geometric_distortion(d, d_hat) -> float | None:
    """Scale-free geometric mean distortion over comparable pairs.

    Uses off-diagonal pairs with positive values on both sides, rescales the
    ratio set by the reciprocal of its median so equal counts lie above and
    below one, flips ratios below one, and returns the geometric mean.
    None when no pair qualifies.

    Reads d and d_hat once, in strips of ``BLOCK`` rows, sharing no helper with
    ``report``, and holds two float buffers of the qualifying count: the strips'
    log-ratios and their concatenation, then that and ``np.median``'s copy.
    """
    d, d_hat = _pair(d, d_hat)
    logs = []
    for i0 in range(0, d.shape[0], BLOCK):  # the strict upper triangle, row-major
        a, b = d[i0:i0 + BLOCK, i0:], d_hat[i0:i0 + BLOCK, i0:]
        ok = np.triu((a > 0.0) & (b > 0.0), 1)
        logs.append(0.5 * (np.log(a[ok]) - np.log(b[ok])))
    logs = np.concatenate(logs)
    if not logs.size:
        return None
    logs -= np.median(logs)
    return float(math.exp(np.mean(np.abs(logs, out=logs))))


def _log_ratios(a, b, ok, out) -> int:
    """Write (log a - log b) / 2 over the mask ``ok`` of two strips, in row-major
    order, at the start of ``out``; returns the count written."""
    out = out[:int(np.count_nonzero(ok))]
    np.log(a[ok], out=out)
    other = b[ok]
    np.subtract(out, np.log(other, out=other), out=out)
    out *= 0.5
    return out.size


def _distortion(logs) -> float:
    """exp of the mean |l - median| over the half log-ratios ``logs``, which it
    partitions and overwrites: ``report``'s value of ``avg_geometric_distortion``."""
    # np.median's value up to the sign of a zero, which the abs drops; it needs
    # no NaN check, as a NaN log-ratio (+inf on both sides) makes the mean NaN
    half = logs.size // 2
    logs.partition(half)
    logs -= logs[half] if logs.size % 2 else (logs[:half].max() + logs[half]) / 2.0
    return float(math.exp(np.mean(np.abs(logs, out=logs))))


def negativity_stats(d_hat, signature) -> tuple[int, int]:
    """Counts of negative off-diagonal dissimilarities (each pair once) and
    of axes carrying negative signature.  Reads d_hat in strips of ``BLOCK``
    rows."""
    d_hat = np.asarray(d_hat, dtype=np.float64)
    neg_pairs = sum(int(np.count_nonzero(np.triu(d_hat[i0:i0 + BLOCK, i0:] < 0.0, 1)))
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


def report(d, emb) -> StressReport:
    """Error report of the embedding ``emb`` against the hollow symmetric d, with
    ``emb.split`` as (c1, c2, c3), summed over the pairs i < j of strips of d_hat
    in one pass, plus a second for the scaled additive error where
    ||d - d_hat||^2 - <d - d_hat, d_hat>^2 / ||d_hat||^2 would cancel a digit.
    Equal to the whole-matrix metrics up to rounding, except that a d_hat of
    rounding noise alone counts as zero for the scaled additive error."""
    d, x = np.asarray(d, dtype=np.float64), np.asarray(emb.coords, dtype=np.float64)
    n = x.shape[1]
    if d.shape != (n, n):
        raise ValueError(f"matrix shapes do not match: {d.shape} vs {(n, n)}")
    bufs, logs = np.empty((2, min(BLOCK, n) * n)), np.empty(n * (n - 1) // 2)
    hh = ssq = along = neg = count = 0
    for dp, hat in _upper_strips(d, x, emb.signature, bufs):
        hh += float(np.vdot(hat, hat))
        neg += int(np.count_nonzero(hat < 0.0))
        count += _log_ratios(dp, hat, (dp > 0.0) & (hat > 0.0), logs[count:])
        miss = np.subtract(dp, hat, out=dp)
        ssq += float(np.vdot(miss, miss))
        along += float(np.vdot(miss, hat))
    # a d_hat of rounding noise alone, at the scale of its Gram form, is a zero d_hat
    scale = float(np.max(np.einsum("li,li->i", x, x), initial=0.0))
    zero = hh <= (8.0 * (x.shape[0] + 1) * n * np.finfo(np.float64).eps * scale) ** 2
    resid = ssq if zero else ssq - along * along / hh  # ssq is ||d||^2 for a zero d_hat
    if not zero and resid < 0.1 * ssq:
        t, resid = 1.0 + along / hh, 0.0  # <d, d_hat> / ||d_hat||^2
        for dp, hat in _upper_strips(d, x, emb.signature, bufs):
            hat *= t
            resid += float(np.vdot(np.subtract(dp, hat, out=hat), hat))
    _check_finite("the report's sums", hh, 2.0 * ssq, 2.0 * resid, *(emb.split or ()))
    c1, c2, c3 = emb.split or (None, None, None)
    return StressReport(stress_sq=2.0 * ssq, stress=math.sqrt(2.0 * ssq), c1=c1, c2=c2, c3=c3,
                        scaled_additive=math.sqrt(2.0 * resid),
                        avg_distortion=_distortion(logs[:count]) if count else None,
                        neg_dissim_count=neg,
                        neg_axes_count=int(np.sum(np.asarray(emb.signature) < 0)))
