import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neucmds.selection import (
    CMDS,
    METHODS,
    NEUC,
    PLUS,
    SIGN_TEST_REL_TOL,
    _check_k,
    _check_lambda,
    _Kahan,
    _result,
    select,
    select_cmds,
    select_neuc,
    select_plus,
)

from oracle import chosen_mask, select_bruteforce

MIXED = np.array([5.0, 3.0, -1.0, -4.0])


def plain_bound(lam, chosen):
    """Un-scaled dropped-value bound (c1 + c2)/4 for a chosen index set."""
    mask = np.ones(lam.size, dtype=bool)
    mask[list(chosen)] = False
    return float(np.sum(lam[mask] ** 2) + np.sum(lam[mask]) ** 2)


def random_spectrum(rng, n, with_ties=True):
    lam = rng.uniform(-1.0, 1.0, size=n)
    if with_ties and n >= 3 and rng.random() < 0.5:
        lam[rng.integers(n)] = lam[rng.integers(n)]
    if with_ties and rng.random() < 0.4:
        lam[rng.integers(n)] = 0.0
    return np.sort(lam)[::-1]


class TestSelectNeuc:
    def test_all_positive_is_top_k(self):
        sel = select_neuc(np.array([4.0, 3.0, 2.0, 1.0]), 2)
        assert set(sel.chosen) == {0, 1}
        assert sel.objective == 4.0 * (4.0 + 1.0) + 4.0 * 9.0  # 56

    def test_mixed_signs_balances(self):
        sel = select_neuc(MIXED, 2)
        assert set(sel.chosen) == {0, 3}
        assert sel.objective / 4.0 == 14.0
        assert (sel.r, sel.s) == (1, 1)
        # strictly best among all 6 pairs
        others = [plain_bound(MIXED, c) for c in
                  [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]]
        assert all(sel.objective / 4.0 < o for o in others)

    def test_single_nonzero(self):
        sel = select_neuc(np.array([1.0, 0.0, 0.0, 0.0]), 1)
        assert list(sel.chosen) == [0]
        assert sel.objective == 0.0

    def test_zero_sum_tie_prefers_positive(self):
        sel = select_neuc(np.array([3.0, -3.0]), 1)
        assert list(sel.chosen) == [0]

    def test_zeros_taken_last_ascending(self):
        sel = select_neuc(np.array([1.0, 0.0, 0.0, -1.0]), 3)
        assert list(sel.chosen) == [0, 3, 1]

    def test_k_equals_n(self):
        sel = select_neuc(MIXED, 4)
        assert sel.objective == 0.0
        assert (sel.r, sel.s) == (2, 2)

    def test_monotone_objective_along_greedy(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 16))
            lam = random_spectrum(rng, n)
            sel = select_neuc(lam, n)
            tol = 2.0 * np.abs(lam).max() * 1e-12 * np.abs(lam).sum() + 1e-15
            values = [plain_bound(lam, sel.chosen[:t]) for t in range(n + 1)]
            assert all(b <= a + tol for a, b in zip(values, values[1:]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="sorted"):
            select_neuc(np.array([1.0, 2.0]), 1)
        with pytest.raises(ValueError, match="k must"):
            select_neuc(MIXED, 0)
        with pytest.raises(ValueError, match="k must"):
            select_neuc(MIXED, 5)


class TestSelectPlus:
    def test_mixed_signs(self):
        sel = select_plus(MIXED, 2)
        assert set(sel.chosen) == {0, 3}
        np.testing.assert_allclose(sel.objective / 4.0, 10.0 + 4.0 / 3.0, rtol=1e-15)

    def test_step_trace(self):
        # first step compares 28 (add 5) against 59.5 (add -4), second 25.33 vs 11.33
        sel = select_plus(MIXED, 2)
        assert list(sel.chosen) == [0, 3]

    def test_all_positive_full_k(self):
        lam = np.array([4.0, 2.0, 1.0])
        sel = select_plus(lam, 3)
        assert sel.objective == 0.0

    def test_scaled_bound_fields(self):
        sel = select_plus(MIXED, 2)
        assert sel.bound_c1 == 4.0 * 10.0
        np.testing.assert_allclose(sel.bound_c2, 4.0 * 4.0 / 3.0, rtol=1e-15)


class TestSelectCmds:
    def test_top_k_by_value(self):
        sel = select_cmds(MIXED, 2)
        assert list(sel.chosen) == [0, 1]

    def test_keeps_negative_when_short_of_positives(self):
        sel = select_cmds(np.array([2.0, -1.0, -3.0]), 2)
        assert list(sel.chosen) == [0, 1]
        assert (sel.r, sel.s) == (1, 1)

    def test_psd_matches_neuc(self):
        lam = np.array([4.0, 3.0, 2.0, 1.0])
        assert set(select_cmds(lam, 2).chosen) == set(select_neuc(lam, 2).chosen)


class TestBruteforce:
    def test_known_values(self):
        assert select_bruteforce(MIXED, 2, NEUC).objective / 4.0 == 14.0
        np.testing.assert_allclose(
            select_bruteforce(MIXED, 2, PLUS).objective / 4.0, 34.0 / 3.0, rtol=1e-15
        )

    def test_full_k_zero(self):
        for mode in (NEUC, PLUS):
            assert select_bruteforce(MIXED, 4, mode).objective == 0.0

    def test_guards(self):
        with pytest.raises(ValueError, match="limited"):
            select_bruteforce(np.zeros(21), 2, NEUC)
        with pytest.raises(ValueError, match="brute force"):
            select_bruteforce(MIXED, 2, CMDS)


@pytest.mark.parametrize(
    "method, selector", [(CMDS, select_cmds), (NEUC, select_neuc), (PLUS, select_plus)]
)
def test_select_dispatches_to_the_method_selector(method, selector, rng):
    lam = random_spectrum(rng, 12)
    for k in range(1, 13):
        got, want = select(lam, k, method), selector(lam, k)
        np.testing.assert_array_equal(got.chosen, want.chosen)
        assert (got.mode, got.objective, got.bound_c1, got.bound_c2) == (
            want.mode, want.objective, want.bound_c1, want.bound_c2)


class TestOracleEquivalence:
    @pytest.mark.parametrize("mode", [NEUC, PLUS])
    def test_greedy_matches_bruteforce_exactly(self, mode, rng):
        greedy = {NEUC: select_neuc, PLUS: select_plus}[mode]
        for _ in range(150):
            n = int(rng.integers(1, 11))
            lam = random_spectrum(rng, n)
            for k in range(1, n + 1):
                g = greedy(lam, k)
                b = select_bruteforce(lam, k, mode)
                assert g.objective == b.objective, (lam, k, mode)

    @pytest.mark.parametrize("mode", [NEUC, PLUS])
    def test_chosen_structure(self, mode, rng):
        greedy = {NEUC: select_neuc, PLUS: select_plus}[mode]
        for _ in range(100):
            n = int(rng.integers(1, 13))
            lam = random_spectrum(rng, n)
            k = int(rng.integers(1, n + 1))
            sel = greedy(lam, k)
            expect = set(range(sel.r)) | set(range(n - sel.s, n))
            assert set(int(i) for i in sel.chosen) == expect
            assert sel.r + sel.s == k

    def test_dominance_chain(self, rng):
        # plus optimum <= plus bound of the neuc set <= neuc bound of the neuc set
        for _ in range(200):
            n = int(rng.integers(1, 13))
            lam = random_spectrum(rng, n)
            k = int(rng.integers(1, n + 1))
            neuc = select_neuc(lam, k)
            plus = select_plus(lam, k)
            neuc_scaled = neuc.bound_c1 + neuc.bound_c2 / (1.0 + k)
            assert plus.objective <= neuc_scaled
            assert neuc_scaled <= neuc.objective

    def test_psd_reduction_identical_sets(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 12))
            lam = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
            k = int(rng.integers(1, n + 1))
            sets = [
                set(int(i) for i in f(lam, k).chosen)
                for f in (select_neuc, select_plus, select_cmds)
            ]
            assert sets[0] == sets[1] == sets[2]


@settings(max_examples=120, deadline=None)
@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=9,
    ),
    k_pick=st.integers(0, 8),
    mode=st.sampled_from([NEUC, PLUS]),
)
def test_greedy_is_optimal_hypothesis(values, k_pick, mode):
    lam = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    k = 1 + k_pick % lam.size
    greedy = {NEUC: select_neuc, PLUS: select_plus}[mode]
    g = greedy(lam, k)
    b = select_bruteforce(lam, k, mode)
    scale = max(1.0, float(np.sum(lam * lam)), abs(float(np.sum(lam))) ** 2)
    assert g.objective <= b.objective + 1e-9 * scale


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.integers(-3, 3).map(float), st.floats(-1.0, 1.0)),
        min_size=1,
        max_size=30,
    ),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_selection_is_prefix_nested(values, scale):
    # no greedy loop looks at k, so a smaller k chooses a prefix of a larger
    # one; small integers give ties and zeros
    lam = np.sort(np.asarray(values, dtype=np.float64) * scale)[::-1]
    n = lam.size
    for method in METHODS:
        full = select(lam, n, method).chosen
        for k in range(1, n + 1):
            np.testing.assert_array_equal(select(lam, k, method).chosen, full[:k])


# ---------------------------------------------------------------- references
# The two greedy selectors as written before they shared one walk.

def ref_select_neuc(lam, k):
    lam = _check_lambda(lam)
    n = lam.size
    k = _check_k(k, n)
    npos = int(np.sum(lam > 0.0))
    nneg = int(np.sum(lam < 0.0))
    tol = SIGN_TEST_REL_TOL * float(np.sum(np.abs(lam)))

    h = _Kahan(math.fsum(lam.tolist()))

    lo, hi = 0, n - 1
    next_zero = npos
    order = []
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


def ref_select_plus(lam, k):
    lam = _check_lambda(lam)
    n = lam.size
    k = _check_k(k, n)
    npos = int(np.sum(lam > 0.0))
    nneg = int(np.sum(lam < 0.0))

    s1 = _Kahan(math.fsum(lam.tolist()))
    s2 = _Kahan(math.fsum((lam * lam).tolist()))

    lo, hi = 0, n - 1
    next_zero = npos
    order = []
    for step in range(k):
        has_pos = lo < npos
        has_neg = hi >= n - nneg
        denom = step + 2.0
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


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.integers(-3, 3).map(float), st.floats(-1.0, 1.0)),
        min_size=1,
        max_size=40,
    ),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
@example(values=[3.0, -3.0], scale=1.0)  # a magnitude tie at H = 0
@example(values=[1.0, -2.000000000002e-12, -1.0], scale=1.0)  # H is exactly -tol
def test_selectors_equal_their_references(values, scale):
    # small integers give ties, zeros and exactly cancelling sums
    lam = np.sort(np.asarray(values, dtype=np.float64) * scale)[::-1]
    for selector, ref in ((select_neuc, ref_select_neuc), (select_plus, ref_select_plus)):
        for k in range(1, lam.size + 1):
            got, want = selector(lam, k), ref(lam, k)
            assert got.chosen.tolist() == want.chosen.tolist()
            assert (got.r, got.s, got.bound_c1, got.bound_c2, got.objective, got.mode) == (
                want.r, want.s, want.bound_c1, want.bound_c2, want.objective, want.mode)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("lam, where", [
    ([np.nan, 1.0, -1.0], "0 is nan"),
    ([1.0, -1.0, -np.inf], "2 is -inf"),
    ([np.inf, 0.0, -1.0], "0 is inf"),
    ([2.0, np.nan, np.nan], "1 is nan"),
], ids=["nan-first", "neg-inf-last", "inf-first", "nan-twice"])
def test_select_rejects_non_finite_spectra(lam, where, method):
    with pytest.raises(ValueError) as err:
        select(np.array(lam), 2, method)
    assert str(err.value) == f"eigenvalue vector has a non-finite entry: {where}"


# ---------------------------------------------------------------- axis values
# The per-method axis values as embed_from_decomposition computed them before
# the selection carried them.

def ref_axis_values(lam, sel, k, method):
    lam_sel = lam[sel.chosen]
    if method == PLUS:
        return lam_sel + float(np.sum(lam[~chosen_mask(sel.chosen, lam.size)])) / (1.0 + k)
    if method == CMDS:
        return np.maximum(lam_sel, 0.0)
    return lam_sel.copy()


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.integers(-3, 3).map(float), st.floats(-1.0, 1.0)),
        min_size=1,
        max_size=30,
    ),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
@example(values=[0.0, 0.0, -0.0], scale=1.0)  # every axis a zero
def test_axis_values_equal_the_per_method_formula(values, scale):
    # small integers give ties, zeros and exactly cancelling dropped sums
    lam = np.sort(np.asarray(values, dtype=np.float64) * scale)[::-1]
    for method in METHODS:
        for k in range(1, lam.size + 1):
            sel = select(lam, k, method)
            want = ref_axis_values(lam, sel, k, method)
            assert sel.values.dtype == want.dtype and sel.values.shape == (k,)
            assert sel.values.tobytes() == want.tobytes()
