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

from .datasets import _rng
from .linalg import _check_sigma, eig_sym, mirror_upper_inplace
from .selection import CMDS, NEUC, PLUS, normalize_method, select

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


def sample_wigner(n: int, sigma: float = 1.0, dist: str = GAUSSIAN, seed: int = 0) -> np.ndarray:
    """Symmetric matrix with i.i.d. upper-triangle entries of variance sigma^2.

    ``dist`` is "gaussian" or "rademacher" (values +-sigma).  The diagonal is
    drawn like any other entry.  Deterministic per seed (Philox stream; upper
    triangle including the diagonal, row-major).
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    sigma = _check_sigma(sigma)
    rng = _rng(seed)
    try:  # the n x n result first: an impossible n fails before any index vector
        m = np.empty((n, n))  # the mirror writes the lower triangle
    except ValueError as exc:  # numpy's "array is too big", past any address space
        raise MemoryError(f"Unable to allocate an array with shape ({n}, {n}) "
                          f"and data type float64: {exc}") from None
    upper = np.tri(n, dtype=bool).T  # diagonal included
    count = n * (n + 1) // 2
    if dist == GAUSSIAN:
        vals = rng.normal(0.0, sigma, size=count)
    elif dist == RADEMACHER:
        vals = sigma * (2.0 * rng.integers(0, 2, size=count) - 1.0)
    else:
        raise ValueError(f"dist must be 'gaussian' or 'rademacher', got {dist!r}")
    m[upper] = vals  # boolean assignment fills row-major, like the draw order
    del upper, vals
    # the mirror adds an exact zero to each entry; the diagonal keeps a -0.0 draw
    diag = np.diagonal(m).copy()
    mirror_upper_inplace(m)
    np.fill_diagonal(m, diag)
    return m


def empirical_error_from_eigenvalues(lam, k: int, mode: str) -> float:
    """Dropped-eigenvalue error of a selection on an existing spectrum."""
    return select(lam, int(k), _lab_mode(mode)).objective / 4.0


def lab_table(n: int, c_values, mode: str, sigma: float = 1.0, trials: int = 1,
              dist: str = GAUSSIAN, seed: int = 0) -> list[list[float]]:
    """One row of ``LAB_COLUMNS`` per fraction c: theory against the mean error
    at k = max(1, round(c*n)) over ``trials`` Wigner matrices of seeds seed,
    seed+1, ...  Every argument is checked before the first sample."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    sigma = _check_sigma(sigma)
    theory = [(c, solve_r(c, mode), theory_error(n, sigma, c, mode)) for c in c_values]
    spectra = []
    for trial in range(trials):
        b = sample_wigner(n, sigma=sigma, dist=dist, seed=seed + trial)
        spectra.append(eig_sym(b, vectors=False).eigenvalues)
    rows = []
    for c, r, expected in theory:
        k = max(1, int(round(c * n)))
        empirical = float(np.mean([empirical_error_from_eigenvalues(lam, k, mode)
                                   for lam in spectra]))
        rows.append([c, r, expected, empirical, (empirical - expected) / expected])
    return rows
