"""Eigenvalue-subset selection.

Given the sorted spectrum of a centered dissimilarity matrix, choose the k
eigenvalues whose omission minimizes the dropped-eigenvalue error bound

    sum of squared dropped values  +  (sum of dropped values)^2,

optionally with the squared-sum term scaled by 1/(1+k) (the "plus" variant).
Both greedy selectors are exact minimizers of their objectives; the tests
check them against an enumerating oracle for small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _check_finite, _require_integer

CMDS = "cmds"
NEUC = "neuc"
PLUS = "neuc-plus"
METHODS = (CMDS, NEUC, PLUS)

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
    the order they were picked; ``values[i]`` is the axis value of chosen[i]:
    the eigenvalue ("neuc"), clamped at 0 ("cmds") or plus (sum of dropped
    values)/(1+k) ("neuc-plus").  ``r`` counts chosen eigenvalues >= 0 (zero
    axes forced in at large k are counted here) and ``s`` those < 0, so
    r + s = k always.  ``bound_c1``/``bound_c2`` are the two terms of the
    minimized bound, including the factor 4 of the stress decomposition;
    for mode "neuc-plus" the squared-sum term is already divided by 1 + k.
    """

    chosen: np.ndarray
    values: np.ndarray
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
    """Compensated running sum, started from an exact total; keeps the greedy
    sign tests stable near zero."""

    __slots__ = ("value", "_c")

    def __init__(self, value: float) -> None:
        self.value = value
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
    bad = np.flatnonzero(~np.isfinite(lam))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"eigenvalue vector has a non-finite entry: {i} is {lam[i]}")
    if np.any(np.diff(lam) > 0.0):
        raise ValueError("eigenvalue vector must be sorted descending")
    return lam


def _check_k(k: int, n: int) -> int:
    _require_integer(k, "k")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    return int(k)


def _result(lam: np.ndarray, order: list[int] | np.ndarray, mode: str) -> SelectionResult:
    """The selection that picked ``order``, with bound terms and values from
    the dropped set in ascending index order.

    Every selector, and the brute-force oracle of the tests, builds its result
    here, so equal dropped multisets give bitwise-equal objectives.
    """
    chosen = np.asarray(order, dtype=np.intp)
    dropped = np.delete(lam, chosen)
    s1 = float(np.sum(dropped))
    c1 = 4.0 * float(np.sum(dropped * dropped))
    c2 = 4.0 * s1 * s1
    _check_finite("the selection's bound", c1, c2)
    values = lam[chosen]
    r = int(np.sum(values >= 0.0))
    if mode == PLUS:
        c2 /= 1.0 + chosen.size
        values += s1 / (1.0 + chosen.size)
    elif mode == CMDS:
        np.maximum(values, 0.0, out=values)
    return SelectionResult(
        chosen=chosen,
        values=values,
        r=r,
        s=int(chosen.size - r),
        bound_c1=c1,
        bound_c2=c2,
        objective=c1 + c2,
        mode=mode,
    )


def _walk(lam: np.ndarray, k: int, mode: str, take_pos) -> SelectionResult:
    """The greedy walk both signed selectors share, over a checked spectrum.

    Each step takes the largest remaining positive eigenvalue p or the most
    negative remaining one q.  When both remain, ``take_pos(step, p, q, s1, s2)``
    decides, given the compensated sums s1 of the unchosen values and s2 of
    their squares; otherwise the side that remains is taken.  Zero
    eigenvalues are taken last, in ascending index order.  O(n) after the
    sort the caller already did.
    """
    n = lam.size
    k = _check_k(k, n)
    npos = int(np.sum(lam > 0.0))
    first_neg = n - int(np.sum(lam < 0.0))
    vals = lam.tolist()
    s1 = _Kahan(math.fsum(vals))
    try:
        s2 = _Kahan(math.fsum((lam * lam).tolist()))
    except OverflowError:  # every square is finite, their sum is not
        _check_finite("the selection's bound", math.inf)

    lo, hi, next_zero = 0, n - 1, npos
    order: list[int] = []
    for step in range(k):
        has_neg = hi >= first_neg
        if lo < npos and (not has_neg or take_pos(step, vals[lo], vals[hi], s1.value, s2.value)):
            pick, lo = lo, lo + 1
        elif has_neg:
            pick, hi = hi, hi - 1
        else:
            pick, next_zero = next_zero, next_zero + 1
        order.append(pick)
        x = vals[pick]
        s1.add(-x)
        s2.add(-x * x)
    return _result(lam, order, mode)


def select_neuc(lam, k: int) -> SelectionResult:
    """Greedy optimal selection for the plain dropped-eigenvalue bound.

    Repeatedly adds the unchosen eigenvalue of largest magnitude whose sign
    matches the running sum H of unchosen eigenvalues (largest magnitude of
    either sign when H is zero, positive winning magnitude ties).
    """
    lam = _check_lambda(lam)
    tol = SIGN_TEST_REL_TOL * float(np.sum(np.abs(lam)))
    return _walk(lam, k, NEUC, lambda step, p, q, h, s2: h > tol or (h >= -tol and p >= -q))


def select_plus(lam, k: int) -> SelectionResult:
    """Greedy optimal selection for the (1+k)-scaled bound.

    Each step evaluates the bound after adding the largest remaining positive
    eigenvalue versus after adding the most negative remaining one (both under
    the |S|+2 scaling of the intermediate objective) and keeps the smaller.
    """
    def take_pos(step, p, q, s1, s2):
        denom = step + 2.0  # |S u {candidate}| + 1
        return ((s2 - p * p) + (s1 - p) * (s1 - p) / denom
                < (s2 - q * q) + (s1 - q) * (s1 - q) / denom)

    return _walk(_check_lambda(lam), k, PLUS, take_pos)


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
