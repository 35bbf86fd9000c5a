import numpy as np
import pytest

from neucmds.datasets import (
    _distances,
    _signed_sq_gap,
    gen_euclidean_ball,
    gen_random_simplex,
    pairwise_sq,
    perturb_knn,
    perturb_missing,
    perturb_noise,
    signed_sq_dissimilarity,
)
from neucmds.linalg import check_dissimilarity, double_center, eig_sym


def count_triangle_violations(d):
    """Brute-force triple scan: d[i,j] > d[i,k] + d[k,j] for some k."""
    n = d.shape[0]
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if np.any(d[i, j] > d[i, :] + d[:, j] + 1e-12):
                count += 1
    return count


class TestGenerators:
    @pytest.mark.parametrize("gen", [gen_random_simplex, gen_euclidean_ball])
    def test_valid_and_deterministic(self, gen):
        a = gen(30, seed=7)
        b = gen(30, seed=7)
        check_dissimilarity(a)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, gen(30, seed=8))

    def test_simplex_small_n_edge(self):
        check_dissimilarity(gen_random_simplex(2, seed=0))
        check_dissimilarity(gen_random_simplex(3, seed=0))

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError, match="n >= 2"):
            gen_random_simplex(1)
        with pytest.raises(ValueError, match="n >= 2"):
            gen_euclidean_ball(1)

    def test_simplex_negative_spectrum_fraction(self):
        # about nine tenths of the eigenvalues sit on the negative side
        d = gen_random_simplex(200, seed=0)
        lam = eig_sym(double_center(d)).eigenvalues
        nneg = int(np.sum(lam < 0))
        assert 160 <= nneg <= 195
        # the dominant negative eigenvalue beats the second-largest positive
        assert abs(lam[-1]) > lam[1]

    def test_identical_points_give_zero(self):
        pts = np.ones((3, 5))
        d = signed_sq_dissimilarity(pts, 2)
        np.testing.assert_array_equal(d, np.zeros((3, 3)))

    def test_ball_zero_radii_is_euclidean(self):
        rng = np.random.default_rng(0)
        centers = rng.uniform(0, 100, size=(15, 10))
        d = _signed_sq_gap(_distances(centers), np.zeros(15))
        np.testing.assert_allclose(d, pairwise_sq(centers), rtol=1e-12)
        lam = eig_sym(double_center(d)).eigenvalues
        assert lam.min() >= -1e-7 * max(1.0, lam.max())

    def test_overlapping_balls_negative_entry(self):
        centers = np.array([[0.0, 0.0], [1.0, 0.0]])
        d = _signed_sq_gap(_distances(centers), np.array([1.0, 1.0]))
        assert d[0, 1] == -1.0  # gap -1 squared with sign


class TestKnn:
    def test_collinear_chain(self):
        pts = np.array([[0.0], [1.0], [3.0], [6.0]])
        d = perturb_knn(pts, 1)
        expected = np.array([
            [0.0, 1.0, 9.0, 36.0],
            [1.0, 0.0, 4.0, 25.0],
            [9.0, 4.0, 0.0, 9.0],
            [36.0, 25.0, 9.0, 0.0],
        ])
        np.testing.assert_allclose(d, expected, rtol=1e-12)

    def test_complete_graph_is_euclidean(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(12, 3))
        d = perturb_knn(pts, 11)
        np.testing.assert_allclose(d, pairwise_sq(pts), rtol=1e-10)

    def test_disconnected_raises_with_components(self):
        pts = np.array([[0.0], [1.0], [100.0], [101.0]])
        with pytest.raises(ValueError, match="2 components"):
            perturb_knn(pts, 1)

    def test_curved_set_breaks_triangle_inequality(self):
        theta = np.linspace(0, np.pi, 12)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        d = perturb_knn(pts, 2)
        assert count_triangle_violations(d) > 0

    def test_valid_output(self):
        rng = np.random.default_rng(1)
        d = perturb_knn(rng.normal(size=(20, 4)), 3)
        check_dissimilarity(d)


class TestNoise:
    def test_vanishing_noise_recovers_squares(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(10, 3))
        d = perturb_noise(pts, sigma=1e-12, seed=0)
        np.testing.assert_allclose(d, pairwise_sq(pts), atol=1e-9)

    def test_deterministic(self):
        pts = np.random.default_rng(3).normal(size=(15, 4))
        np.testing.assert_array_equal(
            perturb_noise(pts, "auto", seed=4), perturb_noise(pts, "auto", seed=4)
        )

    def test_moderate_noise_creates_negative_eigenvalues(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(200, 5))
        d = perturb_noise(pts, sigma=0.5, seed=1)
        lam = eig_sym(double_center(d)).eigenvalues
        assert np.sum(lam < 0) > 0

    def test_rejects_bad_sigma(self):
        pts = np.zeros((3, 1))
        with pytest.raises(ValueError, match="sigma"):
            perturb_noise(pts, 0.0)
        with pytest.raises(ValueError, match="sigma"):
            perturb_noise(pts, "author")


class TestMissing:
    def test_keep_all_is_exact(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(12, 6))
        np.testing.assert_allclose(
            perturb_missing(pts, 1.0, seed=0), pairwise_sq(pts), rtol=1e-12
        )

    def test_empty_intersection_raises(self):
        pts = np.arange(6.0).reshape(3, 2)
        with pytest.raises(ValueError, match="share no surviving coordinate"):
            perturb_missing(pts, 0.4, seed=2)

    def test_error_names_the_first_pair(self):
        # the seed-29 mask leaves (2,3), (2,5), (3,4) and (4,5) with no shared
        # coordinate; the first in row-major order is named
        pts = np.arange(18.0).reshape(6, 3)
        with pytest.raises(ValueError) as err:
            perturb_missing(pts, 0.5, seed=29)
        assert str(err.value) == "points 2 and 3 share no surviving coordinate"

    def test_triangle_violations_at_half(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(100, 50))
        d = perturb_missing(pts, 0.5, seed=3)
        check_dissimilarity(d)
        assert count_triangle_violations(d) > 0

    def test_rejects_bad_keep_prob(self):
        with pytest.raises(ValueError, match="keep_prob"):
            perturb_missing(np.zeros((3, 2)), 0.0)
