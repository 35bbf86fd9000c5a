import tracemalloc

import numpy as np
import pytest

from neucmds import rmt
from neucmds.rmt import (
    GAUSSIAN,
    RADEMACHER,
    empirical_error_from_eigenvalues,
    lab_table,
    sample_wigner,
    semicircle_mass,
    solve_r,
    theory_error,
    theory_error_coeffs,
)
from neucmds.linalg import BLOCK, eig_sym
from neucmds.selection import select
from neucmds.rmt import _selected_fraction

from oracle import ref_lab_rows, ref_sample_wigner


class TestSolveR:
    def test_small_fraction_gives_small_root(self):
        assert solve_r(1e-6, "neuc") < 1e-3

    def test_full_spectrum_limit(self):
        assert solve_r(0.999999, "neuc") > 1.99

    def test_cmds_half_is_two(self):
        assert solve_r(0.5, "cmds") == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("mode,cs", [
        ("neuc", [0.05, 0.3, 0.5, 0.9]),
        ("cmds", [0.05, 0.3, 0.5]),
    ])
    def test_root_consistency(self, mode, cs):
        for c in cs:
            r = solve_r(c, mode)
            assert abs(_selected_fraction(r, mode) - c) <= 1e-10

    def test_range_validation(self):
        with pytest.raises(ValueError, match="fraction"):
            solve_r(0.6, "cmds")
        with pytest.raises(ValueError, match="fraction"):
            solve_r(1.0, "neuc")
        with pytest.raises(ValueError, match="mode|method"):
            solve_r(0.3, "neuc-plus")


class TestTheory:
    def test_spot_values_match_published_grid(self):
        a, b = theory_error_coeffs(0.05, "cmds")
        assert (round(a, 4), round(b, 4)) == (0.8432, 0.0078)
        a, _ = theory_error_coeffs(0.5, "neuc")
        assert round(a, 4) == 0.1063

    def test_neuc_error_strictly_decreasing(self):
        cs = np.linspace(0.05, 0.95, 19)
        errs = [theory_error(1000, 1.0, c, "neuc") for c in cs]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_plateau_constant(self):
        # the classical error saturates at (1/2 + 0.1801 n) n^2 sigma^2
        a, b = theory_error_coeffs(0.5, "cmds")
        assert round(a, 4) == 0.5
        assert round(b, 4) == 0.1801


class TestSemicircle:
    def test_total_mass_is_one(self):
        assert semicircle_mass(-2.0, 2.0, 1.0) == pytest.approx(1.0)

    def test_symmetric_halves(self):
        for sigma in (0.5, 1.0, 3.0):
            left = semicircle_mass(-2 * sigma, 0.0, sigma)
            right = semicircle_mass(0.0, 2 * sigma, sigma)
            assert left == pytest.approx(right) == pytest.approx(0.5)

    def test_clipped_outside_support(self):
        assert semicircle_mass(-10.0, 10.0, 1.0) == pytest.approx(1.0)


class TestSampleWigner:
    def test_deterministic_and_symmetric(self):
        a = sample_wigner(50, 1.0, GAUSSIAN, seed=5)
        b = sample_wigner(50, 1.0, GAUSSIAN, seed=5)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, a.T)

    def test_mean_near_zero(self):
        n = 200
        m = sample_wigner(n, 1.0, GAUSSIAN, seed=1)
        assert abs(m.mean()) <= 3.0 / n

    def test_rademacher_values(self):
        m = sample_wigner(30, 2.0, RADEMACHER, seed=0)
        assert set(np.unique(m)) == {-2.0, 2.0}

    def test_rejects_bad_dist(self):
        with pytest.raises(ValueError, match="dist"):
            sample_wigner(10, 1.0, "uniform", seed=0)


@pytest.mark.parametrize("dist", [GAUSSIAN, RADEMACHER])
@pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 300])
def test_sample_wigner_matches_the_reference_bytes(n, dist):
    for seed, sigma in ((0, 1.0), (7, 0.25), (2**40 + 3, 3.0)):
        got = sample_wigner(n, sigma, dist, seed=seed)
        assert got.tobytes() == ref_sample_wigner(n, sigma, dist, seed).tobytes()
        assert got.flags.c_contiguous


def test_sample_wigner_keeps_the_sign_of_a_zero_draw(monkeypatch):
    # a -0.0 draw stays -0.0 on the diagonal and reads +0.0 off it, as in the reference
    class SignedZeros:  # a stream: every third draw is -0.0, counted across calls
        drawn = 0

        def normal(self, loc, scale, size):
            position = np.arange(self.drawn, self.drawn + size)
            self.drawn += size
            return np.where(position % 3 == 0, -0.0, 1.0)

    monkeypatch.setattr(rmt, "_rng", lambda seed: SignedZeros())
    got, want = sample_wigner(7), ref_sample_wigner(7)
    assert got.tobytes() == want.tobytes()
    assert np.signbit(np.diagonal(got)).any()
    assert not np.signbit(got[~np.eye(7, dtype=bool)]).any()


def empirical_error(b, k, mode):
    return empirical_error_from_eigenvalues(eig_sym(b, vectors=False).eigenvalues, k, mode)


class TestEmpirical:
    @pytest.mark.parametrize("mode", ["cmds", "neuc"])
    @pytest.mark.parametrize("lam, where", [([np.nan, 1.0, -1.0], "0 is nan"),
                                            ([1.0, -1.0, -np.inf], "2 is -inf")],
                             ids=["nan-first", "neg-inf-last"])
    def test_rejects_non_finite_spectra(self, lam, where, mode):
        with pytest.raises(ValueError) as err:
            empirical_error_from_eigenvalues(np.array(lam), 2, mode)
        assert str(err.value) == f"eigenvalue vector has a non-finite entry: {where}"

    def test_full_selection_is_zero(self):
        b = sample_wigner(50, 1.0, GAUSSIAN, seed=2)
        assert empirical_error(b, 50, "neuc") == 0.0
        assert empirical_error(b, 50, "cmds") == 0.0

    def test_matches_small_k_form(self):
        # k much smaller than n: error is close to n^2 sigma^2 (1 - 4k/n)
        n, k = 2000, 20
        b = sample_wigner(n, 1.0, GAUSSIAN, seed=3)
        e = empirical_error(b, k, "neuc")
        approx = n * n * (1.0 - 4.0 * k / n)
        assert abs(e - approx) <= 0.05 * approx

    def test_eigenvalue_shortcut_agrees(self):
        # the plain convention: sum(dropped^2) + (sum dropped)^2 of the selection
        b = sample_wigner(80, 1.0, GAUSSIAN, seed=4)
        lam = eig_sym(b, vectors=False).eigenvalues
        for mode in ("cmds", "neuc"):
            dropped = np.delete(lam, select(lam, 10, mode).chosen)
            assert empirical_error_from_eigenvalues(lam, 10, mode) == \
                np.sum(dropped * dropped) + np.sum(dropped) ** 2


# ---------------------------------------------------------------- lab table

@pytest.mark.parametrize("mode, c_values", [
    ("cmds", [0.001, 0.1, 0.3, 0.5]),
    ("neuc", [0.001, 0.1, 0.5, 0.9]),
])
@pytest.mark.parametrize("trials, dist", [(1, GAUSSIAN), (3, GAUSSIAN), (2, RADEMACHER)])
def test_lab_table_equals_the_old_command_body(mode, c_values, trials, dist):
    # c = 0.001 rounds to k = 0 at n = 61, so the k >= 1 floor is exercised
    got = lab_table(61, c_values, mode, sigma=1.5, trials=trials, dist=dist, seed=4)
    want = ref_lab_rows(61, 1.5, c_values, trials, dist, 4, mode)
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
def test_sigma_must_be_positive_and_finite(sigma):
    message = f"sigma must be positive and finite, got {sigma}"
    for call in (lambda: sample_wigner(5, sigma), lambda: semicircle_mass(-1.0, 1.0, sigma),
                 lambda: lab_table(5, [0.3], "neuc", sigma=sigma)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("mode", ["cmds", "neuc"])
@pytest.mark.parametrize("dist", [GAUSSIAN, RADEMACHER])
@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK + 2])
def test_lab_table_equals_the_reference_loop(n, dist, mode):
    # the strip draws cross a strip boundary at BLOCK + 2
    got = lab_table(n, [0.1, 0.4], mode, sigma=2.5, trials=3, dist=dist, seed=11)
    want = ref_lab_rows(n, 2.5, [0.1, 0.4], 3, dist, 11, mode)
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("mode", ["cmds", "neuc"])
def test_lab_table_selects_once_per_trial(mode, monkeypatch):
    # one walk per trial at the largest k; the smaller ks are prefixes of it.
    # The fractions come as an iterator: they are read once
    ks = []
    monkeypatch.setattr(rmt, "select", lambda lam, k, m: ks.append(k) or select(lam, k, m))
    got = lab_table(80, iter([0.1, 0.45, 0.3]), mode, trials=3, seed=5)
    assert ks == [36, 36, 36]
    want = ref_lab_rows(80, 1.0, [0.1, 0.45, 0.3], 3, GAUSSIAN, 5, mode)
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("mode", ["cmds", "neuc"])
def test_errors_at_many_ks_are_the_errors_at_each(mode):
    lam = eig_sym(sample_wigner(90, seed=8), vectors=False).eigenvalues
    ks = [9, 40, 1, 90, 40]
    got = empirical_error_from_eigenvalues(lam, ks, mode)
    assert got == [select(lam, k, mode).objective / 4.0 for k in ks]
    assert got == [empirical_error_from_eigenvalues(lam, k, mode) for k in ks]
    assert empirical_error_from_eigenvalues(lam, [], mode) == []
    with pytest.raises(ValueError, match="^k must satisfy 1 <= k <= 90, got 0$"):
        empirical_error_from_eigenvalues(lam, [5, 0], mode)


def test_lab_table_with_no_fractions_is_empty():
    assert lab_table(10, [], "neuc", trials=2) == []


LAB_GUARD_N = 1000


def lab_peak(fn, *args):
    """Peak bytes that numpy and Python allocate during fn(*args), after a
    first untraced call has loaded everything it imports."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def lab_bound(n):
    """One n x n sample plus four float strips of BLOCK rows: a strip's draws
    and their Rademacher temporaries fit the strips; a second sample does not."""
    bound = 8 * n * (n + 4 * BLOCK)
    assert bound < 2 * 8 * n * n
    return bound


@pytest.mark.parametrize("dist", [GAUSSIAN, RADEMACHER])
def test_lab_table_holds_one_sample(dist):
    n = LAB_GUARD_N
    assert lab_peak(lab_table, n, [0.1, 0.5], "neuc", 1.0, 2, dist, 3) < lab_bound(n)


@pytest.mark.parametrize("dist", [GAUSSIAN, RADEMACHER])
def test_the_sample_bound_fails_fresh_samples(dist):
    n = LAB_GUARD_N
    assert lab_peak(ref_lab_rows, n, 1.0, [0.1, 0.5], 2, dist, 3, "neuc") >= lab_bound(n)
