import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neucmds.embedding import (
    Embedding,
    embed,
    embed_from_decomposition,
    reconstruct,
    sweep,
)
from neucmds.linalg import (
    SpectralDecomposition,
    check_dissimilarity,
    double_center,
    eig_sym,
)
from neucmds.metrics import stress
from neucmds.selection import CMDS, METHODS, NEUC, PLUS, select

from conftest import random_edm, random_hollow
from oracle import full_axis_values

COLLINEAR = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]])


def make_dec(lam):
    """Decomposition with a deterministic orthogonal basis for given spectrum."""
    n = len(lam)
    u = np.linalg.qr(np.random.default_rng(7).normal(size=(n, n)))[0]
    return SpectralDecomposition(np.asarray(lam, float), u)


class TestEmbed:
    @pytest.mark.parametrize("method", [CMDS, NEUC, PLUS])
    def test_collinear_recovery(self, method):
        emb = embed(COLLINEAR, 1, method)
        target = np.array([-4.0 / 3.0, -1.0 / 3.0, 5.0 / 3.0])
        got = emb.coords[0]
        assert np.allclose(got, target, atol=1e-12) or np.allclose(got, -target, atol=1e-12)
        np.testing.assert_array_equal(emb.signature, [1])
        np.testing.assert_allclose(reconstruct(emb), COLLINEAR, atol=1e-9)

    def test_plus_shift_values(self):
        dec = make_dec([5.0, 3.0, -1.0, -4.0])
        emb = embed_from_decomposition(dec, 2, PLUS)
        np.testing.assert_allclose(emb.axis_values, [17.0 / 3.0, -10.0 / 3.0], rtol=1e-15)
        np.testing.assert_array_equal(emb.signature, [1, -1])

    def test_zero_drop_sum_plus_equals_neuc(self):
        # dropped eigenvalues sum to zero, so the shift vanishes
        dec = make_dec([4.0, 1.0, -1.0, -4.0])
        plus = embed_from_decomposition(dec, 2, PLUS)
        neuc = embed_from_decomposition(dec, 2, NEUC)
        np.testing.assert_array_equal(plus.axis_values, neuc.axis_values)
        np.testing.assert_array_equal(plus.coords, neuc.coords)

    def test_cmds_clamps_to_zero_axes(self):
        dec = make_dec([2.0, -1.0, -3.0])
        emb = embed_from_decomposition(dec, 2, CMDS)
        assert list(emb.axis_values) == [2.0, 0.0]
        np.testing.assert_array_equal(emb.signature, [1, 1])
        np.testing.assert_array_equal(emb.coords[1], np.zeros(3))

    def test_signature_follows_axis_values(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 25))
            d = random_hollow(rng, n)
            k = int(rng.integers(1, n + 1))
            emb = embed(d, k, PLUS)
            nz = emb.axis_values != 0.0
            np.testing.assert_array_equal(
                emb.signature[nz], np.sign(emb.axis_values[nz])
            )
            assert np.all(emb.signature[~nz] == 1)

    def test_axes_ordered_by_magnitude(self, rng):
        d = random_hollow(rng, 15)
        emb = embed(d, 7, NEUC)
        mags = np.abs(emb.axis_values)
        assert np.all(np.diff(mags) <= 0.0)

    def test_coordinate_rows_sum_to_zero(self, rng):
        d = random_hollow(rng, 12)
        emb = embed(d, 6, NEUC)
        scale = max(1.0, np.abs(emb.coords).max())
        assert np.abs(emb.coords.sum(axis=1)).max() <= 1e-9 * scale

    def test_rows_match_scaled_eigenvectors(self, rng):
        d = random_hollow(rng, 10)
        dec = eig_sym(double_center(d))
        emb = embed_from_decomposition(dec, 4, NEUC)
        for axis in range(emb.k):
            vec = dec.eigenvectors[:, emb.axis_indices[axis]]
            row = emb.coords[axis]
            expected = np.sqrt(abs(emb.axis_values[axis])) * vec
            assert np.allclose(row, expected) or np.allclose(row, -expected)

    def test_deterministic(self, rng):
        d = random_hollow(rng, 9)
        a = embed(d, 4, PLUS)
        b = embed(d, 4, PLUS)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_errors_propagate(self):
        with pytest.raises(ValueError, match="k must"):
            embed(COLLINEAR, 0, NEUC)
        with pytest.raises(ValueError, match="hollow"):
            embed(np.eye(3), 1, NEUC)
        with pytest.raises(ValueError, match="unknown method"):
            embed(COLLINEAR, 1, "smacof")

    @pytest.mark.parametrize("method", [CMDS, NEUC, PLUS])
    def test_single_point_degenerate(self, method):
        emb = embed(np.zeros((1, 1)), 1, method)
        np.testing.assert_array_equal(emb.coords, np.zeros((1, 1)))
        np.testing.assert_array_equal(emb.signature, [1])
        np.testing.assert_array_equal(reconstruct(emb), np.zeros((1, 1)))


class TestReconstruct:
    def test_empty_embedding_gives_zero(self):
        emb = Embedding(
            coords=np.zeros((0, 5)),
            signature=np.zeros(0, dtype=np.int64),
            axis_values=np.zeros(0),
            axis_indices=np.zeros(0, dtype=np.intp),
        )
        np.testing.assert_array_equal(reconstruct(emb), np.zeros((5, 5)))

    def test_full_rank_recovery(self, rng):
        for n in (4, 12, 40):
            d = random_hollow(rng, n)
            emb = embed(d, n, NEUC)
            d_hat = reconstruct(emb)
            assert np.abs(d_hat - d).max() <= 1e-8 * max(1.0, np.abs(d).max())

    def test_isotropic_cancellation(self):
        # signature (+1, -1) with equal offsets in both axes cancels exactly
        emb = Embedding(
            coords=np.array([[0.0, 1.0], [0.0, 1.0]]),
            signature=np.array([1, -1]),
            axis_values=np.array([1.0, -1.0]),
            axis_indices=np.array([0, 1]),
        )
        np.testing.assert_array_equal(reconstruct(emb), np.zeros((2, 2)))

    def test_output_is_valid_dissimilarity(self, rng):
        d = random_hollow(rng, 14)
        emb = embed(d, 5, PLUS)
        check_dissimilarity(reconstruct(emb))

    def test_matches_eigenvalue_weighted_form(self, rng):
        # signature form equals sum_l lam_tilde_l (u_il - u_jl)^2
        d = random_hollow(rng, 11)
        dec = eig_sym(double_center(d))
        emb = embed_from_decomposition(dec, 5, PLUS)
        d_hat = reconstruct(emb)
        lt = full_axis_values(emb)
        alt = np.zeros_like(d)
        for axis in range(dec.n):
            diff = dec.eigenvectors[:, axis][:, None] - dec.eigenvectors[:, axis][None, :]
            alt += lt[axis] * diff * diff
        np.testing.assert_allclose(d_hat, alt, atol=1e-10 * max(1.0, np.abs(d_hat).max()))


class TestPsdReduction:
    def test_neuc_equals_cmds_on_edm(self, rng):
        d = random_edm(rng, 12, 11)
        for k in range(1, 12):
            a = embed(d, k, NEUC)
            b = embed(d, k, CMDS)
            np.testing.assert_array_equal(a.coords, b.coords)

    def test_near_null_axes_within_noise(self, rng):
        # low-rank cloud: spectral noise axes may differ between the two
        # methods, but only below the eigensolver noise floor
        d = random_edm(rng, 10, 3)
        for k in range(1, 11):
            a = embed(d, k, NEUC)
            b = embed(d, k, CMDS)
            scale = max(1.0, np.abs(b.coords).max())
            assert np.abs(np.sort(a.coords.ravel()) - np.sort(b.coords.ravel())).max() \
                <= 1e-6 * scale


class TestPlusOptimality:
    def test_local_minimum_of_shift(self, rng):
        # perturbing any single axis value away from the optimum never
        # lowers the c1 + c2 bound
        from neucmds.metrics import decompose

        for _ in range(10):
            n = int(rng.integers(4, 20))
            d = random_hollow(rng, n)
            dec = eig_sym(double_center(d))
            k = int(rng.integers(1, n))
            emb = embed_from_decomposition(dec, k, PLUS)
            lt = full_axis_values(emb)
            c1, c2, _ = decompose(dec.eigenvalues, dec.eigenvectors, lt)
            base = c1 + c2
            delta = 1e-3 * max(1.0, np.abs(dec.eigenvalues).max())
            for axis in emb.axis_indices:
                for sign in (+1.0, -1.0):
                    bumped = lt.copy()
                    bumped[axis] += sign * delta
                    b1, b2, _ = decompose(dec.eigenvalues, dec.eigenvectors, bumped)
                    assert b1 + b2 >= base - 1e-9 * max(1.0, base)


class TestSweep:
    def test_full_k_near_zero_stress(self, rng):
        d = random_hollow(rng, 10)
        entries = sweep(d, [10], methods=[NEUC])
        assert entries[0].report.stress_sq <= 1e-8 * np.sum(d * d)

    def test_neuc_objective_non_increasing_in_k(self, rng):
        d = random_hollow(rng, 25)
        entries = sweep(d, range(1, 26), methods=[NEUC])
        bounds = [e.report.c1 + e.report.c2 for e in entries]
        scale = max(1.0, bounds[0])
        assert all(b <= a + 1e-9 * scale for a, b in zip(bounds, bounds[1:]))

    def test_psd_input_identical_curves(self, rng):
        d = random_edm(rng, 10, 9)
        entries = sweep(d, [2, 5, 9], methods=[CMDS, NEUC])
        by_method = {}
        for e in entries:
            by_method.setdefault(e.method, []).append(e.report.stress_sq)
        np.testing.assert_array_equal(by_method[CMDS], by_method[NEUC])

    def test_identity_holds_per_entry(self, rng):
        d = random_hollow(rng, 18)
        for e in sweep(d, [1, 6, 17], methods=[CMDS, NEUC, PLUS]):
            r = e.report
            assert abs(r.stress_sq - (r.c1 + r.c2 + r.c3)) <= 1e-8 * max(1.0, r.stress_sq)

    def test_order_as_requested(self, rng):
        d = random_hollow(rng, 6)
        entries = sweep(d, [3, 1], methods=[PLUS, CMDS])
        assert [(e.k, e.method) for e in entries] == [
            (3, PLUS), (3, CMDS), (1, PLUS), (1, CMDS)
        ]


def test_shared_decomposition_matches_pipeline(rng):
    d = random_hollow(rng, 13)
    dec = eig_sym(double_center(d))
    a = embed_from_decomposition(dec, 5, NEUC)
    b = embed(d, 5, NEUC)
    np.testing.assert_array_equal(a.coords, b.coords)


# ---------------------------------------------------------------- invariance properties

# Inside a tied eigenspace the basis and the tie order are arbitrary, and a
# near-zero axis takes its sign and scale from rounding.  The properties are
# stated for inputs whose chosen eigenvalues lie at least this far, relative
# to max|lambda|, from every dropped eigenvalue and from zero.
CUT_GAP = 1e-8
COORDS_RTOL = 1e-12  # scaled by max|coords|


@st.composite
def cut_cases(draw):
    """(d, k, method, B) for a random hollow d whose selection has a clear cut."""
    n = draw(st.integers(2, 10))
    d = random_hollow(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    k = draw(st.integers(1, n))
    method = draw(st.sampled_from(METHODS))
    b = double_center(d)
    lam = eig_sym(b).eigenvalues
    chosen = select(lam, k, method).chosen
    picked, dropped = lam[chosen], np.delete(lam, chosen)
    gap = CUT_GAP * np.abs(lam).max()
    assume(np.abs(picked).min() >= gap)
    assume(dropped.size == 0 or np.abs(picked[:, None] - dropped).min() >= gap)
    return d, k, method, b


def assert_coords_close(got, expected):
    """got equals expected to COORDS_RTOL, with one sign per axis fixed by the
    eigenvector's largest |entry|; an axis where that entry is not unique (every
    axis at n = 2) has no sign to fix and may come out flipped."""
    top = np.sort(np.abs(expected), axis=1)
    shared = top[:, -1] - top[:, -2] <= CUT_GAP * top[:, -1]
    expected = expected.copy()
    expected[shared] *= np.sign(np.sum(got[shared] * expected[shared], axis=1))[:, None]
    tol = COORDS_RTOL * max(np.abs(expected).max(), np.finfo(float).tiny)
    np.testing.assert_allclose(got, expected, rtol=0, atol=tol)


@settings(max_examples=80, deadline=None)
@given(case=cut_cases(), s=st.floats(1e-3, 1e3))
def test_scaling_d_scales_coords_by_its_root(case, s):
    d, k, method, _ = case
    a, b = embed(d, k, method), embed(s * d, k, method)
    np.testing.assert_array_equal(b.axis_indices, a.axis_indices)
    np.testing.assert_array_equal(b.signature, a.signature)
    assert_coords_close(b.coords, np.sqrt(s) * a.coords)


@settings(max_examples=80, deadline=None)
@given(case=cut_cases(), seed=st.integers(0, 2**32 - 1))
def test_permuting_d_permutes_the_coordinate_columns(case, seed):
    d, k, method, _ = case
    perm = np.random.default_rng(seed).permutation(d.shape[0])
    a, b = embed(d, k, method), embed(d[np.ix_(perm, perm)], k, method)
    np.testing.assert_array_equal(b.axis_indices, a.axis_indices)
    np.testing.assert_array_equal(b.signature, a.signature)
    assert_coords_close(b.coords, a.coords[:, perm])


@settings(max_examples=80, deadline=None)
@given(case=cut_cases())
def test_values_only_spectrum_selects_as_the_full_solve(case):
    _, k, method, b = case
    full = select(eig_sym(b).eigenvalues, k, method)
    values_only = select(eig_sym(b, vectors=False).eigenvalues, k, method)
    np.testing.assert_array_equal(values_only.chosen, full.chosen)
