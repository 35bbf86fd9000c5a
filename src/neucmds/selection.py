"""Eigenvalue-subset selection.

Given the sorted spectrum of a centered dissimilarity matrix, choose the k
eigenvalues whose omission minimizes the dropped-eigenvalue error bound

    sum of squared dropped values  +  (sum of dropped values)^2,

optionally with the squared-sum term scaled by 1/(1+k) (the "plus" variant).
Both greedy selectors are exact minimizers of their objectives; a brute-force
enumerator is kept as an independent oracle for small n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

CMDS = "cmds"
NEUC = "neuc"
PLUS = "neuc-plus"
METHODS = (CMDS, NEUC, PLUS)

BRUTEFORCE_MAX_N = 20

# |H| below this fraction of sum|lambda| counts as zero in the greedy sign test,
# so floating-point drift cannot flip the branch.
SIGN_TEST_REL_TOL = 1e-12


def normalize_method(method: str) -> str:
    m = str(method).lower()
    if m == "plus":
        m = PLUS
    if m not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return m


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one eigenvalue selection.

    ``chosen`` holds indices into the sorted (descending) eigenvalue vector in
    the order they were picked.  ``r`` counts chosen eigenvalues >= 0 (zero
    axes forced in at large k are counted here) and ``s`` those < 0, so
    r + s = k always.  ``bound_c1``/``bound_c2`` are the two terms of the
    minimized bound, including the factor 4 of the stress decomposition;
    for mode "neuc-plus" the squared-sum term is already divided by 1 + k.
    """

    chosen: np.ndarray
    w: np.ndarray
    r: int
    s: int
    bound_c1: float
    bound_c2: float
    objective: float
    mode: str

    @property
    def k(self) -> int:
        return int(self.chosen.shape[0])


class _Kahan:
    """Compensated accumulator; keeps the greedy sign tests stable near zero."""

    __slots__ = ("value", "_c")

    def __init__(self) -> None:
        self.value = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        y = x - self._c
        t = self.value + y
        self._c = (t - self.value) - y
        self.value = t


def _check_lambda(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("eigenvalue vector must be 1-d and non-empty")
    if np.any(np.diff(lam) > 0.0):
        raise ValueError("eigenvalue vector must be sorted descending")
    return lam


def _check_k(k: int, n: int) -> int:
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    return k


def _bounds(lam: np.ndarray, w: np.ndarray, k: int, mode: str) -> tuple[float, float]:
    """Canonical bound terms from the dropped set, in ascending index order.

    Both greedy selectors and the brute-force oracle report values computed
    here, so equal dropped multisets give bitwise-equal objectives.
    """
    dropped = lam[~w]
    s2 = float(np.sum(dropped * dropped))
    s1 = float(np.sum(dropped))
    c1 = 4.0 * s2
    c2 = 4.0 * s1 * s1
    if mode == PLUS:
        c2 /= 1.0 + k
    return c1, c2


def _result(lam: np.ndarray, order: list[int], mode: str) -> SelectionResult:
    chosen = np.asarray(order, dtype=np.intp)
    w = np.zeros(lam.shape[0], dtype=bool)
    w[chosen] = True
    r = int(np.sum(lam[chosen] >= 0.0))
    c1, c2 = _bounds(lam, w, chosen.size, mode)
    return SelectionResult(
        chosen=chosen,
        w=w,
        r=r,
        s=int(chosen.size - r),
        bound_c1=c1,
        bound_c2=c2,
        objective=c1 + c2,
        mode=mode,
    )


def select_neuc(lam, k: int) -> SelectionResult:
    """Greedy optimal selection for the plain dropped-eigenvalue bound.

    Repeatedly adds the unchosen eigenvalue of largest magnitude whose sign
    matches the running sum H of unchosen eigenvalues (largest magnitude of
    either sign when H is zero, positive winning magnitude ties).  Zero
    eigenvalues are taken last, in ascending index order.  O(n) after the
    sort the caller already did.
    """
    lam = _check_lambda(lam)
    n = lam.size
    k = _check_k(k, n)
    npos = int(np.sum(lam > 0.0))
    nneg = int(np.sum(lam < 0.0))
    tol = SIGN_TEST_REL_TOL * float(np.sum(np.abs(lam)))

    h = _Kahan()
    for x in lam:
        h.add(float(x))

    lo, hi = 0, n - 1
    next_zero = npos
    order: list[int] = []
    for _ in range(k):
        has_pos = lo < npos
        has_neg = hi >= n - nneg
        if h.value > tol and has_pos:
            pick = lo
        elif h.value < -tol and has_neg:
            pick = hi
        elif has_pos and (not has_neg or lam[lo] >= -lam[hi]):
            pick = lo
        elif has_neg:
            pick = hi
        else:
            pick = next_zero
            next_zero += 1
        if pick == lo:
            lo += 1
        elif pick == hi:
            hi -= 1
        order.append(pick)
        h.add(-float(lam[pick]))
    return _result(lam, order, NEUC)


def select_plus(lam, k: int) -> SelectionResult:
    """Greedy optimal selection for the (1+k)-scaled bound.

    Each step evaluates the bound after adding the largest remaining positive
    eigenvalue versus after adding the most negative remaining one (both under
    the |S|+2 scaling of the intermediate objective) and keeps the smaller.
    """
    lam = _check_lambda(lam)
    n = lam.size
    k = _check_k(k, n)
    npos = int(np.sum(lam > 0.0))
    nneg = int(np.sum(lam < 0.0))

    s1 = _Kahan()
    s2 = _Kahan()
    for x in lam:
        s1.add(float(x))
        s2.add(float(x) * float(x))

    lo, hi = 0, n - 1
    next_zero = npos
    order: list[int] = []
    for step in range(k):
        has_pos = lo < npos
        has_neg = hi >= n - nneg
        denom = step + 2.0  # |S u {candidate}| + 1
        a1 = np.inf
        a2 = np.inf
        if has_pos:
            p = float(lam[lo])
            rest = s1.value - p
            a1 = (s2.value - p * p) + rest * rest / denom
        if has_neg:
            q = float(lam[hi])
            rest = s1.value - q
            a2 = (s2.value - q * q) + rest * rest / denom
        if not has_pos and not has_neg:
            pick = next_zero
            next_zero += 1
        elif a1 < a2:
            pick = lo
            lo += 1
        else:
            pick = hi
            hi -= 1
        order.append(pick)
        x = float(lam[pick])
        s1.add(-x)
        s2.add(-x * x)
    return _result(lam, order, PLUS)


def select_cmds(lam, k: int) -> SelectionResult:
    """Classical baseline: the k algebraically largest eigenvalues.

    Non-positive values may be chosen when fewer than k positives exist; the
    embedding zero-fills those axes.  Bound terms use the plain convention.
    """
    lam = _check_lambda(lam)
    k = _check_k(k, lam.size)
    return _result(lam, list(range(k)), CMDS)


def select(lam, k: int, method: str) -> SelectionResult:
    """Selection of k eigenvalues of ``lam`` by the selector of ``method``."""
    # a literal, not a module-level table: the selectors are looked up when
    # called, so a wrapper installed on a selector name also sees dispatch
    selector = {CMDS: select_cmds, NEUC: select_neuc, PLUS: select_plus}[normalize_method(method)]
    return selector(lam, k)


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
    lexicographically smallest chosen index set.
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
