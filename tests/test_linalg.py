import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neucmds.embedding import embed, spectrum, sweep
from neucmds.linalg import check_dissimilarity, double_center, eig_sym

from conftest import random_hollow
from oracle import gram_to_dissim

# Tolerances the decomposition invariants are tested against.
ORTHONORMALITY_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-9

EQUILATERAL = np.array([[0.0, 2.0, 2.0], [2.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
COLLINEAR = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]])


class TestDoubleCenter:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(double_center(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_equilateral(self):
        b = double_center(EQUILATERAL)
        expected = np.full((3, 3), -1.0 / 3.0)
        np.fill_diagonal(expected, 2.0 / 3.0)
        np.testing.assert_allclose(b, expected, atol=1e-15)

    def test_collinear_spectrum(self):
        lam = eig_sym(double_center(COLLINEAR)).eigenvalues
        np.testing.assert_allclose(lam, [14.0 / 3.0, 0.0, 0.0], atol=1e-14)

    def test_row_sums_vanish(self, rng):
        for n in (2, 7, 40):
            d = random_hollow(rng, n)
            b = double_center(d)
            bound = 1e-10 * n * np.abs(d).max()
            assert np.abs(b.sum(axis=1)).max() <= bound
            np.testing.assert_array_equal(b, b.T)

    def test_rejects_non_hollow(self):
        m = EQUILATERAL.copy()
        m[1, 1] = 0.5
        with pytest.raises(ValueError, match="hollow"):
            double_center(m)

    def test_rejects_asymmetric(self):
        m = EQUILATERAL.copy()
        m[0, 1] = 3.0
        with pytest.raises(ValueError, match="symmetric"):
            double_center(m)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_first(self, value):
        m = EQUILATERAL.copy()
        m[0, 2] = m[2, 0] = value
        m[0, 1] = 3.0  # would fail the symmetry check at an earlier entry
        with pytest.raises(ValueError, match=rf"non-finite entry: \(0,2\) is {value}$"):
            check_dissimilarity(m)

    def test_messages_print_plain_floats(self):
        m = EQUILATERAL.copy()
        m[0, 1] = 3.0
        with pytest.raises(ValueError, match=r"entry \(0,1\)=3.0 but \(1,0\)=2.0$"):
            check_dissimilarity(m)
        m = EQUILATERAL.copy()
        m[1, 1] = 0.5
        with pytest.raises(ValueError, match=r"diagonal entry 1 is 0.5$"):
            check_dissimilarity(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            double_center(np.zeros((2, 3)))

    def test_overflow_is_a_numerical_error(self):
        # a finite input whose row means overflow must not surface as a symmetry error
        d = np.full((3, 3), 1e308)
        np.fill_diagonal(d, 0.0)
        for overwrite in (False, True):
            a = d.copy()
            with pytest.raises(FloatingPointError, match="double centering overflowed"):
                double_center(a, overwrite=overwrite)
            # the means overflow before the first write
            assert a.tobytes() == d.tobytes()
            for call in (lambda: spectrum(a, [(1, "neuc")], vectors=False, overwrite=overwrite),
                         lambda: sweep(a, [1], overwrite=overwrite)):
                with pytest.raises(FloatingPointError, match="double centering overflowed"):
                    call()
        with pytest.raises(FloatingPointError, match="overflow"):
            embed(d, 1, "neuc")
        # large entries that do not overflow still center
        assert np.isfinite(double_center(d / 4.0)).all()


class TestEigSym:
    def test_diagonal_input(self):
        dec = eig_sym(np.diag([3.0, 1.0, -2.0]))
        np.testing.assert_array_equal(dec.eigenvalues, [3.0, 1.0, -2.0])
        np.testing.assert_array_equal(np.abs(dec.eigenvectors), np.eye(3))

    def test_two_by_two(self):
        dec = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-15)
        s = 1.0 / np.sqrt(2.0)
        for col, target in ((0, np.array([s, s])), (1, np.array([s, -s]))):
            v = dec.eigenvectors[:, col]
            assert np.allclose(v, target, atol=1e-12) or np.allclose(v, -target, atol=1e-12)

    def test_equilateral_spectrum(self):
        lam = eig_sym(double_center(EQUILATERAL)).eigenvalues
        np.testing.assert_allclose(lam, [1.0, 1.0, 0.0], atol=1e-14)

    def test_degenerate_single_point(self):
        dec = eig_sym(np.zeros((1, 1)))
        np.testing.assert_array_equal(dec.eigenvalues, [0.0])

    def test_deterministic(self, rng):
        b = random_hollow(rng, 12)
        d1 = eig_sym(b)
        d2 = eig_sym(b)
        np.testing.assert_array_equal(d1.eigenvalues, d2.eigenvalues)
        np.testing.assert_array_equal(d1.eigenvectors, d2.eigenvectors)

    @pytest.mark.parametrize("n", [3, 20, 80, 200])
    def test_invariants_random(self, n):
        rng = np.random.default_rng(n)
        b = random_hollow(rng, n)
        b = double_center(b)
        dec = eig_sym(b)
        lam, u = dec.eigenvalues, dec.eigenvectors
        assert np.all(np.diff(lam) <= 0.0)
        assert np.abs(u.T @ u - np.eye(n)).max() <= ORTHONORMALITY_TOL
        resid = np.abs((u * lam) @ u.T - b).max()
        assert resid <= RECONSTRUCTION_TOL * max(1.0, np.abs(b).max())
        # trace preservation
        tr = np.trace(b)
        assert abs(lam.sum() - tr) <= 1e-9 * max(1.0, abs(tr))


class TestGramToDissim:
    def test_identity(self):
        np.testing.assert_array_equal(
            gram_to_dissim(np.eye(2)), np.array([[0.0, 2.0], [2.0, 0.0]])
        )

    def test_zero(self):
        np.testing.assert_array_equal(gram_to_dissim(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_inverts_equilateral_centering(self):
        b = double_center(EQUILATERAL)
        np.testing.assert_allclose(gram_to_dissim(b), EQUILATERAL, atol=1e-14)

    def test_output_is_valid_dissimilarity(self, rng):
        g = random_hollow(rng, 9) + np.diag(rng.uniform(0, 2, 9))
        check_dissimilarity(gram_to_dissim(g))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-6, 1e6),
)
def test_round_trip_hollow(n, seed, scale):
    # for any hollow symmetric m: gram_to_dissim(double_center(m)) recovers m
    m = random_hollow(np.random.default_rng(seed), n, scale)
    back = gram_to_dissim(double_center(m))
    np.testing.assert_allclose(back, m, rtol=0, atol=1e-10 * max(1.0, np.abs(m).max()))


def test_double_center_inverts_centered_gram(rng):
    # composing the other way recovers a Gram matrix with zero row sums
    m = random_hollow(rng, 11)
    g = double_center(m)
    np.testing.assert_allclose(double_center(gram_to_dissim(g)), g, atol=1e-12)
