"""Independent references the tests check the library against.

``select_bruteforce`` enumerates every chosen subset, so it is exact but
exponential; the greedy selectors must match it.  ``gram_to_dissim`` is the
inverse of :func:`neucmds.linalg.double_center` on centered Gram matrices.
``mirror_upper`` is the copying form of
:func:`neucmds.linalg.mirror_upper_inplace`.  ``ref_decompose`` is the
stress split summed over the dropped and the selected axes separately, the
form :func:`neucmds.metrics.decompose` must match.  ``ref_sample_wigner`` draws
the upper triangle in one block and places it through a boolean mask, the
sampler's original body; ``ref_lab_rows`` is the ``rmt`` command's table
with a fresh ``ref_sample_wigner`` sample per trial.  ``ref_coords`` and
``ref_axis_sums`` are the column path that coordinates and the stress sums
took before both gathered eigenvector rows: columns of U taken and flipped,
and the products (U o U) w and U (ones o w) over strips of points.
``ref_embed_landmark`` is the landmark placement before it triangulated the
landmarks' whole rows: the base coordinates scattered into their columns and
the other points triangulated from a 2-D gather of their own columns.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from functools import lru_cache

import numpy as np

from neucmds import rmt
from neucmds.landmark import fit_landmarks, triangulate
from neucmds.linalg import as_square_matrix, check_symmetric, eig_sym, mirror_upper_inplace
from neucmds.selection import (
    CMDS,
    NEUC,
    PLUS,
    SelectionResult,
    _check_k,
    _check_lambda,
    _result,
    normalize_method,
)

BRUTEFORCE_MAX_N = 20


@lru_cache(maxsize=256)
def _chosen_combos(n: int, k: int) -> np.ndarray:
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), k)),
        dtype=np.intp,
    )
    return combos.reshape(-1, k)


def select_bruteforce(lam, k: int, mode: str = NEUC) -> SelectionResult:
    """Exact minimizer by enumerating all C(n, k) subsets (test oracle).

    Guarded to n <= 20.  Objective ties are broken toward the
    lexicographically smallest chosen index set.  The result is built by
    ``neucmds.selection._result``, like the greedy selectors', so equal
    dropped sets give bitwise-equal objectives.
    """
    mode = normalize_method(mode)
    if mode == CMDS:
        raise ValueError("brute force applies to modes 'neuc' and 'neuc-plus'")
    lam = _check_lambda(lam)
    n = lam.size
    k = _check_k(k, n)
    if n > BRUTEFORCE_MAX_N:
        raise ValueError(f"brute force limited to n <= {BRUTEFORCE_MAX_N}, got {n}")

    combos = _chosen_combos(n, k)
    keep = np.zeros((combos.shape[0], n), dtype=bool)
    np.put_along_axis(keep, combos, True, axis=1)
    dropped = np.where(keep, 0.0, lam[None, :])
    s1 = dropped.sum(axis=1)
    s2 = (dropped * dropped).sum(axis=1)
    if mode == PLUS:
        obj = s2 + s1 * s1 / (1.0 + k)
    else:
        obj = s2 + s1 * s1
    best = int(np.flatnonzero(obj == obj.min())[0])
    return _result(lam, list(combos[best]), mode)


def mirror_upper(m: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy of m, in its dtype: the upper triangle (diagonal kept)
    mirrored down, each entry ``+ 0`` so that -0.0 reads +0.0."""
    return mirror_upper_inplace(np.array(m, order="C"))


def gram_to_dissim(g) -> np.ndarray:
    """Squared-distance analog of a Gram matrix: m_ij = g_ii + g_jj - 2 g_ij.

    The output is exactly hollow and symmetric.  For a centered Gram matrix
    (zero row sums) this inverts :func:`neucmds.linalg.double_center`.
    """
    g = as_square_matrix(g, "Gram matrix")
    check_symmetric(g, "Gram matrix")
    diag = np.diagonal(g)
    m = diag[:, None] + diag[None, :] - 2.0 * g
    np.fill_diagonal(m, 0.0)
    return mirror_upper(m)


def chosen_mask(indices, n: int) -> np.ndarray:
    """Length-n bool indicator of the axes in ``indices``."""
    w = np.zeros(n, dtype=bool)
    w[np.asarray(indices, dtype=np.intp)] = True
    return w


def full_axis_values(emb) -> np.ndarray:
    """Length-n axis-value vector of an embedding, zero off its axes."""
    full = np.zeros(emb.n, dtype=np.float64)
    full[emb.axis_indices] = emb.axis_values
    return full


def ref_decompose(lam, u, w, lam_tilde) -> tuple[float, float, float]:
    """The split (c1, c2, c3) with c1 and c2 summed in two groups: the dropped
    eigenvalues ``lam[~w]`` and the selected differences ``lam - lam_tilde``
    over ``w``.  ``lam_tilde`` must vanish off ``w``."""
    lam = np.asarray(lam, dtype=np.float64)
    lam_tilde = np.asarray(lam_tilde, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    w = np.asarray(w, dtype=bool)
    n = lam.shape[0]
    assert lam_tilde.shape == lam.shape == w.shape and u.shape == (n, n)
    assert not np.any(lam_tilde[~w] != 0.0), "axis value nonzero outside the selected set"
    dl = lam - lam_tilde
    c1 = 4.0 * (float(np.sum(lam[~w] ** 2)) + float(np.sum(dl[w] ** 2)))
    total = float(np.sum(lam[~w])) + float(np.sum(dl[w]))
    c2 = 4.0 * total * total
    v = (u * u) @ dl
    c3 = 2.0 * n * float(np.sum(v * v)) - c2 / 2.0
    return c1, c2, c3


def ref_coords(u, axis_values, axis_indices) -> np.ndarray:
    """Coordinates from the columns ``axis_indices`` of U, each flipped so that its
    largest-magnitude entry is positive and scaled by sqrt|axis value|, k x n."""
    vecs = np.take(u, axis_indices, axis=1)
    cols = np.arange(vecs.shape[1])
    flip = vecs[np.argmax(np.abs(vecs), axis=0), cols] < 0.0
    vecs[:, flip] *= -1.0
    return np.sqrt(np.abs(axis_values))[:, None] * vecs.T


def ref_axis_sums(u, w, ones) -> tuple[np.ndarray, np.ndarray]:
    """(U o U) w and U (ones o w), n x p for the n x p weights w, a strip of 16
    points of U at a time."""
    u = np.asarray(u, dtype=np.float64)
    scaled = ones[:, None] * w
    square, plain = np.empty((u.shape[0], w.shape[1])), np.empty((u.shape[0], w.shape[1]))
    for i0 in range(0, u.shape[0], 16):
        strip = u[i0:i0 + 16]
        square[i0:i0 + 16] = (strip * strip) @ w
        plain[i0:i0 + 16] = strip @ scaled
    return square, plain


def ref_embed_landmark(d, m, k, method=NEUC, seed=0):
    """``embed_landmark`` with every non-landmark point triangulated from the
    columns ``d[np.ix_(landmarks, rest)]`` and the landmarks' base coordinates
    scattered into their own columns."""
    d = as_square_matrix(d)
    model = fit_landmarks(d, m, k, method=method, seed=seed)
    n = d.shape[0]
    coords = np.empty((model.base.k, n), dtype=np.float64)
    coords[:, model.landmark_indices] = model.base.coords
    rest = np.setdiff1d(np.arange(n), model.landmark_indices, assume_unique=True)
    coords[:, rest] = triangulate(model, d[np.ix_(model.landmark_indices, rest)])
    return replace(model.base, coords=coords)


def ref_sample_wigner(n, sigma=1.0, dist=rmt.GAUSSIAN, seed=0) -> np.ndarray:
    """The Wigner sample drawn as one block from ``rmt._rng(seed)`` (so a stub
    generator patched there feeds both), placed row-major through an
    upper-triangle mask and symmetrized by one transpose-add, the diagonal
    restored from the draws."""
    rng = rmt._rng(seed)
    upper = np.tri(n, dtype=bool).T
    count = n * (n + 1) // 2
    if dist == rmt.GAUSSIAN:
        vals = rng.normal(0.0, sigma, size=count)
    else:
        vals = sigma * (2.0 * rng.integers(0, 2, size=count) - 1.0)
    m = np.zeros((n, n))
    m[upper] = vals
    out = m + m.T
    np.fill_diagonal(out, np.diagonal(m))
    return out


def ref_lab_rows(n, sigma, c_values, trials, dist, seed, mode) -> list[list[float]]:
    """``rmt.lab_table``'s rows, each trial sampled fresh by ``ref_sample_wigner``
    while the previous sample is still bound, and selected anew at each c."""
    theory = [(c, rmt.solve_r(c, mode), rmt.theory_error(n, sigma, c, mode)) for c in c_values]
    spectra = []
    for trial in range(trials):
        b = ref_sample_wigner(n, sigma, dist, seed + trial)
        spectra.append(eig_sym(b, vectors=False).eigenvalues)
    rows = []
    for c, r, expected in theory:
        k = max(1, int(round(c * n)))
        empirical = float(np.mean([
            rmt.empirical_error_from_eigenvalues(lam, k, mode) for lam in spectra
        ]))
        rows.append([c, r, expected, empirical, (empirical - expected) / expected])
    return rows
