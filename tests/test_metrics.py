import json
import math

import numpy as np
import pytest

from neucmds.datasets import (
    gen_euclidean_ball,
    gen_random_simplex,
    perturb_knn,
    perturb_missing,
    perturb_noise,
)
from neucmds.embedding import embed, embed_from_decomposition, reconstruct, report, sweep
from neucmds.landmark import embed_landmark
from neucmds.linalg import SpectralDecomposition, double_center, eig_sym
from neucmds.metrics import (
    StressReport,
    avg_geometric_distortion,
    decompose,
    negativity_stats,
    scaled_additive_error,
    stress,
)
from neucmds.selection import CMDS, METHODS, NEUC, PLUS, select

from conftest import random_edm, random_hollow
from oracle import chosen_mask, full_axis_values, ref_decompose

TWO_BY_TWO_U = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


class TestStress:
    def test_zero_when_equal(self, rng):
        d = random_hollow(rng, 6)
        assert stress(d, d) == 0.0

    def test_all_ones_offset(self):
        n = 7
        d = random_hollow(np.random.default_rng(1), n)
        shifted = d + 1.0 - np.eye(n)
        assert stress(d, shifted) == n * (n - 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            stress(np.zeros((3, 3)), np.zeros((4, 4)))


class TestDecompose:
    def test_nothing_dropped(self):
        lam = np.array([2.0, -1.0])
        c1, c2, c3 = decompose(lam, TWO_BY_TWO_U, lam)
        assert (c1, c2, c3) == (0.0, 0.0, 0.0)

    def test_hand_case(self):
        # drop the first eigenvalue of (1, 0); the c3 term vanishes for this u
        lam = np.array([1.0, 0.0])
        c1, c2, c3 = decompose(lam, TWO_BY_TWO_U, np.zeros(2))
        assert c1 == 4.0 and c2 == 4.0
        np.testing.assert_allclose(c3, 0.0, atol=1e-12)

    def test_plus_shift_closed_form(self):
        lam = np.array([5.0, 3.0, -1.0, -4.0])
        w = np.array([True, False, False, True])
        k = 2
        shift = lam[~w].sum() / (1 + k)
        lam_tilde = np.where(w, lam + shift, 0.0)
        u = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))[0]
        c1, c2, _ = decompose(lam, u, lam_tilde)
        closed = 4.0 * np.sum(lam[~w] ** 2) + 4.0 * lam[~w].sum() ** 2 / (1 + k)
        np.testing.assert_allclose(c1 + c2, closed, rtol=1e-14)


class TestDecompositionIdentity:
    @pytest.mark.parametrize("n", [5, 20, 60])
    def test_identity_all_methods(self, n):
        rng = np.random.default_rng(100 + n)
        d = random_hollow(rng, n)
        dec = eig_sym(double_center(d))
        for method in METHODS:
            for k in {1, max(1, n // 3), n - 1, n}:
                emb = embed_from_decomposition(dec, k, method)
                d_hat = reconstruct(emb)
                ssq = stress(d, d_hat)
                c1, c2, c3 = decompose(dec.eigenvalues, dec.eigenvectors, full_axis_values(emb))
                assert abs(ssq - (c1 + c2 + c3)) <= 1e-8 * max(1.0, ssq)
                assert c3 >= -1e-10 * max(1.0, ssq)

    def test_shift_improves_bound_for_fixed_set(self, rng):
        # with the same support, the shifted bound never exceeds the plain one
        for _ in range(25):
            n = int(rng.integers(3, 30))
            d = random_hollow(rng, n)
            dec = eig_sym(double_center(d))
            k = int(rng.integers(1, n + 1))
            emb = embed_from_decomposition(dec, k, "neuc")
            w = chosen_mask(emb.axis_indices, n)
            lam = dec.eigenvalues
            plain = np.where(w, lam, 0.0)
            shifted = np.where(w, lam + lam[~w].sum() / (1.0 + k), 0.0)
            c1p, c2p, _ = decompose(lam, dec.eigenvectors, plain)
            c1s, c2s, _ = decompose(lam, dec.eigenvectors, shifted)
            assert c1s + c2s <= c1p + c2p + 1e-12 * max(1.0, c1p + c2p)


def _split_against_reference(dec, k, method):
    """The embedding of (dec, k, method); asserts its split equals ``decompose``
    of its axis values and matches ``ref_decompose`` to 1e-14 of max|c|."""
    emb = embed_from_decomposition(dec, k, method)
    full = full_axis_values(emb)
    got = decompose(dec.eigenvalues, dec.eigenvectors, full)
    want = ref_decompose(dec.eigenvalues, dec.eigenvectors,
                         chosen_mask(emb.axis_indices, dec.n), full)
    assert emb.split == got
    tol = 1e-14 * max(abs(c) for c in want)
    assert max(abs(g - w) for g, w in zip(got, want)) <= tol, (k, method, got, want)
    return emb


class TestSplitMatchesReference:
    # the split from lam_tilde alone against the dropped/selected grouping
    @pytest.mark.parametrize("case", ["hollow-10", "hollow-50", "hollow-200", "simplex-40",
                                      "simplex-300", "balls-30", "knn-60", "noise-60",
                                      "missing-60"])
    def test_every_method_and_k(self, case):
        kind, n = case.split("-")
        n = int(n)
        pts = np.random.default_rng(4).normal(size=(n, 8))
        d = {
            "hollow": lambda: random_hollow(np.random.default_rng(n), n),
            "simplex": lambda: gen_random_simplex(n, seed=0),
            "balls": lambda: gen_euclidean_ball(n, seed=0),
            "knn": lambda: perturb_knn(pts, 4),
            "noise": lambda: perturb_noise(pts, "auto", seed=0),
            "missing": lambda: perturb_missing(pts, 0.8, seed=1),
        }[kind]()
        dec = eig_sym(double_center(d))
        ks = range(1, n + 1) if n <= 60 else sorted({1, 5, n // 10, n // 4, n // 3,
                                                     n // 2, n - 1, n})
        for method in METHODS:
            for k in ks:
                _split_against_reference(dec, k, method)

    def test_cmds_with_clamped_axes(self):
        rng = np.random.default_rng(7)
        d = random_edm(rng, 30, 3)  # rank 3: most eigenvalues round to either sign
        dec = eig_sym(double_center(d))
        npos = int(np.sum(dec.eigenvalues > 0.0))
        assert npos < 29
        for k in range(npos + 1, 31):
            emb = _split_against_reference(dec, k, CMDS)
            assert np.sum(emb.axis_values == 0.0) == k - npos  # the clamped axes

    @pytest.mark.parametrize("method", [NEUC, PLUS])
    def test_neuc_with_forced_zero_axes(self, method):
        rng = np.random.default_rng(8)
        lam = np.array([3.0, 1.5, 0.25, 0.0, 0.0, 0.0, -0.5, -2.0])
        u = np.linalg.qr(rng.normal(size=(lam.size, lam.size)))[0]
        dec = SpectralDecomposition(lam, u)
        for k in range(1, lam.size + 1):
            emb = _split_against_reference(dec, k, method)
            if k > 5:  # every nonzero eigenvalue is taken, then zeros in index order
                assert np.isin([3, 4, 5][:k - 5], emb.axis_indices).all()


class TestScaledAdditive:
    def test_scaling_compensated(self, rng):
        d = random_hollow(rng, 5)
        assert scaled_additive_error(d, 2.0 * d) <= 1e-12 * np.linalg.norm(d)

    def test_collinear_two_by_two(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        dh = np.array([[0.0, 3.0], [3.0, 0.0]])
        assert scaled_additive_error(d, dh) == 0.0

    def test_orthogonal_gives_norm(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        dh = np.zeros((2, 2))
        assert scaled_additive_error(d, dh) == np.linalg.norm(d)
        # orthogonal but nonzero
        d3 = np.zeros((3, 3)); d3[0, 1] = d3[1, 0] = 1.0
        e3 = np.zeros((3, 3)); e3[0, 2] = e3[2, 0] = 1.0
        assert scaled_additive_error(d3, e3) == np.linalg.norm(d3)

    def test_never_exceeds_stress_root(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 15))
            d = random_hollow(rng, n)
            dh = random_hollow(rng, n)
            assert scaled_additive_error(d, dh) <= math.sqrt(stress(d, dh)) + 1e-12


class TestDistortion:
    def test_exact_match(self, rng):
        d = np.abs(random_hollow(rng, 6)) + 1.0 - np.eye(6)
        assert avg_geometric_distortion(d, d) == pytest.approx(1.0)

    def test_uniform_scaling_removed(self, rng):
        d = np.abs(random_hollow(rng, 6)) + 1.0 - np.eye(6)
        assert avg_geometric_distortion(d, 4.0 * d) == pytest.approx(1.0)

    def test_reciprocal_pair(self):
        # ratios sqrt(d/dh) are {2, 1/2}: median scaling keeps them, mean is 2
        d = np.zeros((3, 3))
        dh = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = 4.0
        dh[0, 1] = dh[1, 0] = 1.0
        d[0, 2] = d[2, 0] = 1.0
        dh[0, 2] = dh[2, 0] = 4.0
        assert avg_geometric_distortion(d, dh) == pytest.approx(2.0)

    def test_undefined_without_valid_pairs(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        assert avg_geometric_distortion(d, d) is None

    def test_at_least_one(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 12))
            d = random_hollow(rng, n)
            dh = random_hollow(rng, n)
            g = avg_geometric_distortion(d, dh)
            if g is not None:
                assert g >= 1.0


class TestNegativity:
    def test_psd_clean(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert negativity_stats(d, np.array([1, 1])) == (0, 0)

    def test_counts_pairs_once(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        assert negativity_stats(d, np.array([1, -1])) == (1, 1)

    def test_zero_matrix(self):
        assert negativity_stats(np.zeros((4, 4)), np.array([-1, -1])) == (0, 2)


def test_report_round_trips_to_json(rng):
    d = random_hollow(rng, 10)
    dec = eig_sym(double_center(d))
    emb = embed_from_decomposition(dec, 3, "neuc")
    rep = report(d, emb)
    landmark_rep = report(d, embed_landmark(d, 6, 2, seed=1))
    for r in (rep, landmark_rep):
        assert isinstance(r, StressReport)
        loaded = json.loads(json.dumps(r.to_dict()))
        assert list(loaded) == [
            "stress_sq", "stress", "c1", "c2", "c3",
            "scaled_additive", "avg_distortion", "neg_dissim_count", "neg_axes_count",
        ]
        assert loaded["stress_sq"] == pytest.approx(r.stress_sq)
    assert rep.stress_sq == pytest.approx(rep.c1 + rep.c2 + rep.c3)
    # report sums strips of d_hat: the whole-matrix stress up to rounding
    assert rep.stress_sq == pytest.approx(stress(d, reconstruct(emb)), rel=1e-12, abs=0)
    loaded = json.loads(json.dumps(landmark_rep.to_dict()))
    assert loaded["c1"] is None and loaded["c2"] is None and loaded["c3"] is None


# BLAS dot products and Python float arithmetic overflow to inf where numpy's error
# state cannot see it: d = 1e153 (J - I) at n = 100 keeps every squared eigenvalue
# finite, but ||d||^2 ~ 1e310 and the dropped sum of squares at k = 1 ~ 2.4e309.
# The greedy walk starts from the exact sum of squares, past the largest float
# for 99 squares of 4e306 each
HUGE = np.full((100, 100), 1e153) - np.diag(np.full(100, 1e153))
OVERFLOWS = {
    "report": (lambda: report(HUGE, embed(HUGE, 99, CMDS)), "the report's sums"),
    "sweep row": (lambda: sweep(HUGE, [99], [CMDS]), "the report's sums"),
    "selection": (lambda: embed(HUGE, 1, NEUC), "the selection's bound"),
    "neuc walk": (lambda: select(np.full(99, 2e153), 2, NEUC), "the selection's bound"),
    "neuc-plus walk": (lambda: select(np.full(99, 2e153), 2, PLUS), "the selection's bound"),
}


@pytest.mark.parametrize("call, what", OVERFLOWS.values(), ids=list(OVERFLOWS))
def test_a_sum_that_overflows_unseen_is_a_floating_point_error(call, what):
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as info:
        call()
    assert str(info.value) == f"{what} overflowed; rescale the input"
