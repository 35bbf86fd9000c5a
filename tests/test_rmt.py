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
from neucmds.linalg import BLOCK, _eig_lower, eig_sym
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


class SignedZeros:  # a stream: every third draw is -0.0, counted across calls
    drawn = 0

    def normal(self, loc, scale, size):
        position = np.arange(self.drawn, self.drawn + size)
        self.drawn += size
        return np.where(position % 3 == 0, -0.0, 1.0)


def test_sample_wigner_keeps_the_sign_of_a_zero_draw(monkeypatch):
    # a -0.0 draw stays -0.0 on the diagonal and reads +0.0 off it, as in the reference
    monkeypatch.setattr(rmt, "_rng", lambda seed: SignedZeros())
    got, want = sample_wigner(7), ref_sample_wigner(7)
    assert got.tobytes() == want.tobytes()
    assert np.signbit(np.diagonal(got)).any()
    assert not np.signbit(got[~np.eye(7, dtype=bool)]).any()


def drawn_triangle(n, sigma, dist, seed):
    """``rmt._draw_upper`` into a NaN-filled buffer, as ``lab_table`` draws a trial."""
    m = np.full((n, n), np.nan)
    rmt._draw_upper(m, rmt._rng(seed), sigma, dist)
    return m


@pytest.mark.parametrize("dist", [GAUSSIAN, RADEMACHER])
@pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK + 2, 300])
def test_the_triangle_solve_is_the_mirrored_solve(n, dist):
    # the drawn triangle holds the mirrored sample's upper bits and nothing below
    # them; solved as its transpose it gives eig_sym's eigenvalues bitwise.  The solve
    # overwrites its buffer, so each solve gets a fresh copy of the drawn triangle
    m, full = drawn_triangle(n, 1.5, dist, 9), sample_wigner(n, 1.5, dist, seed=9)
    upper, lower = np.triu_indices(n), np.tril_indices(n, -1)
    assert m[upper].tobytes() == full[upper].tobytes()
    assert np.isnan(m[lower]).all()
    for vectors in (False, True):
        got, want = _eig_lower(m.copy().T, vectors), eig_sym(full, vectors)
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        if vectors:
            assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()


def test_the_drawn_triangle_keeps_the_mirrored_signs_of_zero(monkeypatch):
    # -0.0 stays on the diagonal and reads +0.0 above it, as in the mirrored sample
    monkeypatch.setattr(rmt, "_rng", lambda seed: SignedZeros())
    m, full = drawn_triangle(7, 1.0, GAUSSIAN, 0), sample_wigner(7)
    upper = np.triu_indices(7)
    assert m[upper].tobytes() == full[upper].tobytes()
    assert np.signbit(np.diagonal(m)).any()
    assert not np.signbit(m[np.triu_indices(7, 1)]).any()
    got = lab_table(BLOCK + 2, [0.1, 0.5], "neuc", trials=2)
    want = ref_lab_rows(BLOCK + 2, 1.0, [0.1, 0.5], 2, GAUSSIAN, 0, "neuc")
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_lab_table_allocates_one_square_buffer(monkeypatch):
    # every trial redraws one n x n buffer: a sample per trial would be three
    n, made = 300, []
    for name in ("empty", "zeros", "ones", "full", "empty_like", "zeros_like", "array"):
        def counting(*args, _make=getattr(np, name), **kwargs):
            out = _make(*args, **kwargs)
            if isinstance(out, np.ndarray) and out.shape == (n, n):
                made.append(out.dtype)
            return out
        monkeypatch.setattr(np, name, counting)
    lab_table(n, [0.1, 0.5], "neuc", trials=3, seed=2)
    assert made == [np.float64]


BIG = 10**15  # an n x n buffer past any address space


@pytest.mark.parametrize("call, message", [
    (lambda: lab_table(1, [0.7], "cmds", -1.0, 0, "u", -1), "trials must be at least 1, got 0"),
    (lambda: lab_table(1, [0.7], "cmds", -1.0, 1, "u", -1),
     "sigma must be positive and finite, got -1.0"),
    (lambda: lab_table(BIG, [0.7], "cmds", 1.0, 1, "u", -1),
     "cmds selected fraction must be in (0, 0.5], got 0.7"),
    (lambda: lab_table(1, [0.3], "neuc", 1.0, 1, "u", -1), "need n >= 2, got 1"),
    (lambda: lab_table(BIG, [0.3], "neuc", 1.0, 1, "u", -1),
     "seed must be a non-negative integer, got -1"),
    (lambda: lab_table(BIG, [0.3], "neuc", 1.0, 1, "u", 0),
     "dist must be 'gaussian' or 'rademacher', got 'u'"),
    (lambda: sample_wigner(1, -1.0, "u", -1), "need n >= 2, got 1"),
    (lambda: sample_wigner(BIG, -1.0, "u", -1), "sigma must be positive and finite, got -1.0"),
    (lambda: sample_wigner(BIG, 1.0, "u", -1), "seed must be a non-negative integer, got -1"),
    (lambda: sample_wigner(BIG, 1.0, "u", 0), "dist must be 'gaussian' or 'rademacher', got 'u'"),
], ids=["trials", "sigma", "c", "n", "seed", "dist",
        "sample-n", "sample-sigma", "sample-seed", "sample-dist"])
def test_the_checks_run_in_order_before_the_buffer(call, message, monkeypatch):
    # each case is bad from its own check on: the first bad argument is named, and
    # the n x n buffer (impossible at BIG) and the draws come after every check
    def unreachable(*args, **kwargs):
        raise AssertionError("drew before every argument was checked")
    monkeypatch.setattr(rmt, "_draw_upper", unreachable)
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# sigma^2 underflows: the theory error, which rel_err divides by, is 0 or subnormal
@pytest.mark.parametrize("sigma", [1e-165, 1e-160])
@pytest.mark.parametrize("mode", ["cmds", "neuc"])
def test_an_underflowing_theory_error_raises_before_any_draw(mode, sigma, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("drew before the theory error was checked")
    monkeypatch.setattr(rmt, "_draw_upper", unreachable)
    with pytest.raises(FloatingPointError, match="^the theory error underflowed; rescale sigma$"):
        lab_table(20, [0.5], mode, sigma=sigma)


@pytest.mark.parametrize("call", [lambda: lab_table(BIG, [0.3], "neuc"),
                                  lambda: sample_wigner(BIG)], ids=["lab_table", "sample_wigner"])
def test_an_impossible_buffer_is_a_memory_error_before_any_draw(call, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("drew before allocating the buffer")
    monkeypatch.setattr(rmt, "_draw_upper", unreachable)
    with pytest.raises(MemoryError, match=r"^Unable to allocate an array with shape "
                                          rf"\({BIG}, {BIG}\) and data type float64: "):
        call()


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
