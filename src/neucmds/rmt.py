"""Random-matrix laboratory.

Semicircle-law integrals, the threshold roots that realize a target selected
fraction c = k/n, the limiting dropped-eigenvalue errors for the classical
and the sign-balanced selector, and sampled symmetric matrices to compare
theory with empirics.  Errors here follow the plain convention
sum(dropped^2) + (sum dropped)^2, i.e. one quarter of the c1 + c2 stress
bound reported by the selection module.
"""

from __future__ import annotations

import math

import numpy as np

from .datasets import _check_n, _rng
from .linalg import BLOCK, _check_sigma, _eig_lower, _require_integer, mirror_upper_inplace
from .selection import CMDS, NEUC, PLUS, _check_k, _result, normalize_method, select

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"

_BISECT_LO = 1e-15
_BISECT_HI = 2.0
_BISECT_ITERS = 200

LAB_COLUMNS = ("c", "r", "theory", "empirical", "rel_err")


def _lab_mode(mode: str) -> str:
    mode = normalize_method(mode)
    if mode == PLUS:
        raise ValueError("mode must be 'cmds' or 'neuc'")
    return mode


def semicircle_mass(a: float, b: float, sigma: float = 1.0) -> float:
    """Limiting fraction of eigenvalues in (a*sqrt(n), b*sqrt(n)).

    The semicircle density is supported on [-2 sigma, 2 sigma] on this scale.
    """
    sigma = _check_sigma(sigma)

    def antideriv(x: float) -> float:
        x = min(max(x, -2.0 * sigma), 2.0 * sigma)
        return (
            x * math.sqrt(max(4.0 * sigma * sigma - x * x, 0.0)) / 2.0
            + 2.0 * sigma * sigma * math.asin(x / (2.0 * sigma))
        ) / (2.0 * math.pi * sigma * sigma)

    return antideriv(b) - antideriv(a)


def _selected_fraction(r: float, mode: str) -> float:
    """Fraction of the spectrum kept by thresholding at magnitude (2-r) sigma
    sqrt(n): the positive tail alone for cmds, both tails for neuc."""
    t = 1.0 - r / 2.0
    tail = math.asin(t) / math.pi + t * math.sqrt(r * (1.0 - r / 4.0)) / math.pi
    if mode == CMDS:
        return 0.5 - tail
    return 1.0 - 2.0 * tail


def solve_r(c: float, mode: str) -> float:
    """Bisection root of the selected-fraction equation, to 1e-12 in r."""
    mode = _lab_mode(mode)
    c = float(c)
    if mode == CMDS and not 0.0 < c <= 0.5:
        raise ValueError(f"cmds selected fraction must be in (0, 0.5], got {c}")
    if mode == NEUC and not 0.0 < c < 1.0:
        raise ValueError(f"neuc selected fraction must be in (0, 1), got {c}")
    lo, hi = _BISECT_LO, _BISECT_HI
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if _selected_fraction(mid, mode) < c:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def theory_error_coeffs(c: float, mode: str) -> tuple[float, float]:
    """Coefficients (a, b) of the limiting error e = (a + b*n) * n^2 sigma^2."""
    mode = _lab_mode(mode)
    r = solve_r(c, mode)
    t = 1.0 - r / 2.0
    poly = 1.0 - 2.0 * r + r * r / 2.0
    root = math.sqrt(r * (1.0 - r / 4.0))
    if mode == CMDS:
        a = 0.5 + math.asin(t) / math.pi + t * poly * root / math.pi
        b = 16.0 / (9.0 * math.pi**2) * r**3 * (1.0 - r / 4.0) ** 3
        return a, b
    a = 2.0 * math.asin(t) / math.pi + 2.0 * t * poly * root / math.pi
    return a, 0.0


def theory_error(n: int, sigma: float, c: float, mode: str) -> float:
    """Limiting dropped-eigenvalue error at dimension fraction c = k/n."""
    a, b = theory_error_coeffs(c, mode)
    return (a + b * n) * n * n * sigma * sigma


def _wigner_buffer(n: int, sigma: float, seed: int, dist: str) -> np.ndarray:
    """An uninitialized n x n buffer, after checking n, sigma, seed and dist in order."""
    n = _check_n(n)
    _check_sigma(sigma)
    _rng(seed)
    if dist not in (GAUSSIAN, RADEMACHER):
        raise ValueError(f"dist must be 'gaussian' or 'rademacher', got {dist!r}")
    try:  # an impossible n fails before any draw
        return np.empty((n, n))
    except ValueError as exc:  # numpy's "array is too big", past any address space
        raise MemoryError(f"Unable to allocate an array with shape ({n}, {n}) "
                          f"and data type float64: {exc}") from None


def _draw_upper(m: np.ndarray, rng, sigma: float, dist: str) -> None:
    """Draw m's upper triangle with its diagonal, row-major, one draw call per strip of
    ``BLOCK`` rows (one block's stream); off the diagonal ``+ 0``, as the mirror writes."""
    n = len(m)
    for i0 in range(0, n, BLOCK):
        rows = range(i0, min(i0 + BLOCK, n))
        size, at = sum(n - i for i in rows), 0
        vals = (rng.normal(0.0, sigma, size=size) if dist == GAUSSIAN
                else sigma * (2.0 * rng.integers(0, 2, size=size) - 1.0))
        for i in rows:
            m[i, i] = vals[at]
            np.add(vals[at + 1:at + n - i], 0.0, out=m[i, i + 1:])
            at += n - i


def sample_wigner(n: int, sigma: float = 1.0, dist: str = GAUSSIAN, seed: int = 0) -> np.ndarray:
    """Symmetric matrix with i.i.d. upper-triangle entries of variance sigma^2.

    ``dist`` is "gaussian" or "rademacher" (values +-sigma).  Deterministic per
    seed: ``_draw_upper``'s Philox strips, mirrored; the diagonal keeps a -0.0.
    """
    m = _wigner_buffer(n, sigma, seed, dist)
    _draw_upper(m, _rng(seed), _check_sigma(sigma), dist)
    diag = np.diagonal(m).copy()
    np.fill_diagonal(mirror_upper_inplace(m), diag)
    return m


def empirical_error_from_eigenvalues(lam, k, mode: str):
    """Dropped-eigenvalue error of a selection on an existing spectrum at k;
    for a sequence of ks, as for ``np.percentile``'s q, the list of errors at
    each.  One selection, at the largest k: no selector's steps depend on k,
    so each k's selection is that of the first k picks, bitwise."""
    mode = _lab_mode(mode)
    ks = np.atleast_1d(k)
    top = select(lam, max(ks, default=1), mode)
    lam = np.asarray(lam, dtype=np.float64)  # as ``select`` checked it
    errors = [_result(lam, top.chosen[:_check_k(j, lam.size)], mode).objective / 4.0 for j in ks]
    return errors if np.ndim(k) else errors[0]


def lab_table(n: int, c_values, mode: str, sigma: float = 1.0, trials: int = 1,
              dist: str = GAUSSIAN, seed: int = 0) -> list[list[float]]:
    """One row of ``LAB_COLUMNS`` per fraction c: theory against the mean error
    at k = max(1, round(c*n)) over ``trials`` Wigner matrices of seeds seed,
    seed+1, ...  Each trial selects once, at the largest k
    (``empirical_error_from_eigenvalues`` of all the ks).  Every argument is
    checked before the first sample.  One n x n buffer serves every trial: its upper
    triangle, drawn as ``sample_wigner`` draws it, is solved alone (as ``m.T``)."""
    _require_integer(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    sigma = _check_sigma(sigma)
    theory = [(c, solve_r(c, mode), theory_error(n, sigma, c, mode)) for c in c_values]
    ks = [max(1, int(round(c * n))) for c, _, _ in theory]
    m = _wigner_buffer(n, sigma, seed, dist)
    errors = []  # per trial, the error at each k
    for trial in range(int(trials)):
        _draw_upper(m, _rng(seed + trial), sigma, dist)
        errors.append(empirical_error_from_eigenvalues(
            _eig_lower(m.T, vectors=False).eigenvalues, ks, mode))
    rows = []
    for (c, r, expected), column in zip(theory, zip(*errors)):
        empirical = float(np.mean(column))
        rows.append([c, r, expected, empirical, (empirical - expected) / expected])
    return rows
