"""Independent references the tests check the library against.

``select_bruteforce`` enumerates every chosen subset, so it is exact but
exponential; the greedy selectors must match it.  ``gram_to_dissim`` is the
inverse of :func:`neucmds.linalg.double_center` on centered Gram matrices.
``mirror_upper`` is the copying form of
:func:`neucmds.linalg.mirror_upper_inplace`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from neucmds.linalg import as_square_matrix, check_symmetric, mirror_upper_inplace
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
