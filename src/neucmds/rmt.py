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
from dataclasses import dataclass

import numpy as np

from .linalg import eig_sym, mirror_upper
from .selection import CMDS, NEUC, PLUS, normalize_method, select

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"

_BISECT_LO = 1e-15
_BISECT_HI = 2.0
_BISECT_ITERS = 200


@dataclass(frozen=True)
class RmtTheory:
    """Theory grid row: threshold roots and limiting errors at c = k/n."""

    n: int
    sigma: float
    c: float
    r_c: float | None
    r_n: float
    e_c: float | None
    e_n: float


def semicircle_mass(a: float, b: float, sigma: float = 1.0) -> float:
    """Limiting fraction of eigenvalues in (a*sqrt(n), b*sqrt(n)).

    The semicircle density is supported on [-2 sigma, 2 sigma] on this scale.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")

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
    mode = normalize_method(mode)
    c = float(c)
    if mode == CMDS:
        if not 0.0 < c <= 0.5:
            raise ValueError(f"cmds selected fraction must be in (0, 0.5], got {c}")
    elif mode == NEUC:
        if not 0.0 < c < 1.0:
            raise ValueError(f"neuc selected fraction must be in (0, 1), got {c}")
    else:
        raise ValueError("mode must be 'cmds' or 'neuc'")
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
    mode = normalize_method(mode)
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


def theory_grid(n: int, sigma: float, c_values) -> list[RmtTheory]:
    """Theory rows for a grid of c values; cmds columns are None for c > 1/2."""
    rows = []
    for c in c_values:
        c = float(c)
        r_n = solve_r(c, NEUC)
        e_n = theory_error(n, sigma, c, NEUC)
        if c <= 0.5:
            r_c = solve_r(c, CMDS)
            e_c = theory_error(n, sigma, c, CMDS)
        else:
            r_c, e_c = None, None
        rows.append(RmtTheory(n=n, sigma=sigma, c=c, r_c=r_c, r_n=r_n, e_c=e_c, e_n=e_n))
    return rows


def sample_wigner(n: int, sigma: float = 1.0, dist: str = GAUSSIAN, seed: int = 0) -> np.ndarray:
    """Symmetric matrix with i.i.d. upper-triangle entries of variance sigma^2.

    ``dist`` is "gaussian" or "rademacher" (values +-sigma).  The diagonal is
    drawn like any other entry.  Deterministic per seed (Philox stream; upper
    triangle including the diagonal, row-major).
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = np.random.Generator(np.random.Philox(int(seed)))
    iu = np.triu_indices(n)
    count = iu[0].shape[0]
    if dist == GAUSSIAN:
        vals = rng.normal(0.0, sigma, size=count)
    elif dist == RADEMACHER:
        vals = sigma * (2.0 * rng.integers(0, 2, size=count) - 1.0)
    else:
        raise ValueError(f"dist must be 'gaussian' or 'rademacher', got {dist!r}")
    m = np.zeros((n, n))
    m[iu] = vals
    return mirror_upper(m)


def empirical_error_from_eigenvalues(lam, k: int, mode: str) -> float:
    """Dropped-eigenvalue error of a selection on an existing spectrum."""
    mode = normalize_method(mode)
    if mode == PLUS:
        raise ValueError("mode must be 'cmds' or 'neuc'")
    return select(lam, int(k), mode).objective / 4.0


def empirical_error(b, k: int, mode: str) -> float:
    """Dropped-eigenvalue error of selecting k eigenvalues of b directly.

    The matrix is eigendecomposed without centering; the returned value is
    sum(dropped^2) + (sum dropped)^2, matching the theory convention (the
    selection module's objective divided by 4).
    """
    return empirical_error_from_eigenvalues(eig_sym(b).eigenvalues, k, mode)
