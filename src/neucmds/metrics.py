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
    z = (U o U) dl, the one-column call of ``spectral_reports``' strip product.
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
    z = _strip_sums(u, [dl])[0][0]
    return c1, c2, 2.0 * n * float(z @ z) - c2 / 2.0


def _dropped_terms(dl) -> tuple[float, float]:
    """c1 and c2 of the split from the per-axis differences lam - lam_tilde."""
    c1 = 4.0 * float(np.sum(dl * dl))
    total = float(np.sum(dl))
    return c1, 4.0 * total * total


def _span(n: int) -> int:
    """Rows of U per strip, or columns per gather, of ``_strip_sums`` and the walk."""
    return min(BLOCK, max(1, n // 16))


def _strip_sums(u, weights, ones=None) -> list[np.ndarray]:
    """For each weight array w (n, or n x p) of ``weights``: (U o U) w, and with
    the axis sums ``ones`` = 1^T U also U (ones o w), on a new first axis; a
    strip of ``_span`` rows of U at a time, with no n x n temporary."""
    n = u.shape[0]
    rows = _span(n)
    scaled = [None if ones is None else ones[:, None] * w for w in weights]
    sums = [np.empty((1 if ones is None else 2, *w.shape)) for w in weights]
    buf = np.empty(rows * n)
    for i0 in range(0, n, rows):
        strip = u[i0:i0 + rows]
        square = np.square(strip, out=buf[:strip.size].reshape(strip.shape))
        for w, sw, out in zip(weights, scaled, sums):
            np.matmul(square, w, out=out[0, i0:i0 + rows])
            if sw is not None:
                np.matmul(strip, sw, out=out[1, i0:i0 + rows])
    return sums


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
    largest k, whose prefixes are the smaller ks' picks (``selection._prefix``).
    One strip pass over U (``_strip_sums``) gives each method's head at that k
    and its tail over the other axes; the walk down the ks moves each block of
    picks from the head to the tail.  No row builds an n x n array.
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
    ones = u.sum(axis=0)
    reports: list[StressReport] = [None] * len(grid)
    for (rows, top, w), s in zip(walks, _strip_sums(u, [w for *_, w in walks], ones)):
        # a pick leaving the head for the tail: -w0 and -w1 on the head, +w0 on the tail
        move = w[top.chosen][:, [0, 1, 0]] * [-1.0, -1.0, 1.0]
        scaled = ones[top.chosen, None] * move
        span, done = _span(n), top.k
        for k, i in rows:
            for c0 in range(k, done, span):
                picks = slice(c0, min(c0 + span, done))
                v = np.take(u, top.chosen[picks], axis=1)
                s[1] += v @ scaled[picks]
                s[0] += np.square(v, out=v) @ move[picks]
            done = k
            reports[i] = _spectral_row(lam, _prefix(lam, top, k), s)
    return reports


def _spectral_row(lam, sel, sums) -> StressReport:
    """The report of ``sel`` by the formulas of ``spectral_reports``, from the
    2 x n x 3 sums ((U o U) w and U (ones o w)) of its walk's weights w."""
    n, t = lam.size, sel.values
    dl = lam.copy()
    dl[sel.chosen] -= t
    c1, c2 = _dropped_terms(dl)
    # [y z] and [g h]; neuc-plus shifts each pick's value and difference by _result's s1 / (1 + k)
    shift = float(np.sum(np.delete(lam, sel.chosen))) / (1.0 + sel.k) if sel.mode == PLUS else 0.0
    yz, gh = sums @ np.array([[1.0, 0.0], [shift, -shift], [0.0, 1.0]])
    (yy, y_z), (_, zz) = (yz.T @ yz).tolist()
    (yg, yh), (zg, zh) = (yz.T @ gh).tolist()
    sy, sz = float(np.sum(t)), float(np.sum(dl))  # sum y and sum z: each u_j has unit norm
    hat = 2.0 * n * yy + 2.0 * sy * sy + 4.0 * float(t @ t) - 8.0 * yg
    # stress_sq and the residual are squared norms: only rounding takes them below 0
    ssq = max(2.0 * n * zz + 2.0 * sz * sz + c1 - 8.0 * zh, 0.0)
    along = 2.0 * n * y_z + 2.0 * sy * sz - 4.0 * yh - 4.0 * zg + 4.0 * float(t @ dl[sel.chosen])
    resid = max(ssq - along * along / hat, 0.0) if hat > 0.0 else ssq
    return StressReport(stress_sq=ssq, stress=math.sqrt(ssq), c1=c1, c2=c2,
                        c3=2.0 * n * zz - c2 / 2.0, scaled_additive=math.sqrt(resid),
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
    c1, c2, c3 = emb.split or (None, None, None)
    return StressReport(stress_sq=2.0 * ssq, stress=math.sqrt(2.0 * ssq), c1=c1, c2=c2, c3=c3,
                        scaled_additive=math.sqrt(2.0 * resid),
                        avg_distortion=_distortion(logs[:count], in_place=True) if count else None,
                        neg_dissim_count=neg,
                        neg_axes_count=int(np.sum(np.asarray(emb.signature) < 0)))
