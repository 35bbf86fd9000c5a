import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def knn_geodesics(p, k_nn):
    """Squared k-NN graph geodesics by Floyd-Warshall, or the component sizes,
    in the order of each component's first point, if the graph is disconnected.
    A pair is an edge when either point lists the other among its k_nn nearest
    (stable order), weighted by the Euclidean distance, however short."""
    n = p.shape[0]
    e = np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=-1))
    nbrs = np.argsort(np.where(np.eye(n, dtype=bool), np.inf, e), axis=1, kind="stable")
    edge = np.zeros((n, n), dtype=bool)
    edge[np.arange(n)[:, None], nbrs[:, :k_nn]] = True
    g = np.where(edge | edge.T, e, np.inf)
    np.fill_diagonal(g, 0.0)
    for m in range(n):
        g = np.minimum(g, g[:, m, None] + g[None, m, :])
    first = np.isfinite(g).argmax(axis=1)  # each point's component, by its first point
    if np.any(first):
        return np.unique(first, return_counts=True)[1].tolist()
    return g * g


def repeated_cloud(rng, n, dim):
    """n points on a small integer grid, some of them repeated.  Integer
    coordinates keep every distance exact, so both distance forms rank the
    neighbors alike."""
    base = rng.integers(0, 5, size=(n * 2 // 3, dim)).astype(np.float64)
    p = np.vstack([base, base[rng.integers(0, len(base), size=n - len(base))]])
    return p[rng.permutation(n)]


def has_repeats(p):
    return len(np.unique(p, axis=0)) < len(p)


class TestKnn:
    X_DUP = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0]])

    @pytest.mark.parametrize("k_nn", [1, 2])
    def test_repeated_points_lie_at_zero(self, k_nn):
        d = perturb_knn(self.X_DUP, k_nn)
        assert d[0, 1] == d[1, 0] == 0.0
        np.testing.assert_allclose(d, knn_geodesics(self.X_DUP, k_nn), rtol=1e-12, atol=0)

    def test_matches_floyd_warshall_on_repeated_points(self):
        outcomes = {"connected": 0, "disconnected": 0}
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n, dim = (6, 15, 40)[seed % 3], 1 + seed % 3
            p = repeated_cloud(rng, n, dim)
            assert has_repeats(p)
            for k_nn in (1, 2, 3):
                want = knn_geodesics(p, k_nn)
                if isinstance(want, list):
                    outcomes["disconnected"] += 1
                    with pytest.raises(ValueError) as err:
                        perturb_knn(p, k_nn)
                    assert str(err.value) == (f"k-nn graph is disconnected: {len(want)} "
                                              f"components with sizes {want}")
                else:
                    outcomes["connected"] += 1
                    np.testing.assert_allclose(perturb_knn(p, k_nn), want, rtol=1e-12, atol=0)
        assert min(outcomes.values()) > 0, outcomes

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
        for pts in ([[0.0], [1.0], [100.0], [101.0]],
                    [[0.0, 0.0], [0.0, 0.0], [5.0, 0.0], [5.0, 1.0]]):  # 0 and 1 at length 0
            with pytest.raises(ValueError) as err:
                perturb_knn(np.array(pts), 1)
            assert str(err.value) == "k-nn graph is disconnected: 2 components with sizes [2, 2]"

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

    def test_repeated_points_give_a_symmetric_hollow_matrix(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(30, 4))
        pts[rng.integers(0, 30, size=10)] = pts[rng.integers(0, 30, size=10)]
        assert has_repeats(pts)
        for sigma in ("auto", 0.3):
            d = perturb_noise(pts, sigma, seed=5)
            np.testing.assert_array_equal(d, d.T)
            assert not np.any(np.diag(d)) and not np.any(np.signbit(np.diag(d)))

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

    def test_repeated_points_lie_at_zero(self):
        rng = np.random.default_rng(11)
        pts = repeated_cloud(rng, 40, 12)
        assert has_repeats(pts)
        same = np.all(pts[:, None, :] == pts[None, :, :], axis=-1)
        for keep_prob, seed in ((1.0, 0), (0.9, 1), (0.9, 2)):
            d = perturb_missing(pts, keep_prob, seed=seed)
            np.testing.assert_array_equal(d[same], 0.0)

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


# ---------------------------------------------------------------- identical points

@st.composite
def float_clouds_with_repeats(draw, min_dim=1):
    """A float cloud, offset from the origin so the Gram form cancels, in which
    some rows repeat others exactly; with a seed for the generator under test."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, dim = draw(st.integers(3, 25)), draw(st.integers(min_dim, 12))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    base = rng.normal(size=(n - draw(st.integers(1, n // 2)), dim)) * scale
    base += rng.normal(size=dim) * 10.0 * scale
    p = np.vstack([base, base[rng.integers(0, len(base), size=n - len(base))]])
    return p[rng.permutation(n)], draw(st.integers(0, 2**32 - 1))


def identical_pairs(p):
    same = np.all(p[:, None, :] == p[None, :, :], axis=-1)
    assert same.sum() > len(p)
    return same


def assert_plus_zero(values):
    assert values.tobytes() == np.zeros_like(values).tobytes()  # +0.0, not -0.0 or rounding


class TestIdenticalPointsAtZero:
    @settings(max_examples=60, deadline=None)
    @given(case=float_clouds_with_repeats(), n_plus=st.integers(0, 12))
    def test_squared_distances(self, case, n_plus):
        p, _ = case
        same = identical_pairs(p)
        assert_plus_zero(pairwise_sq(p)[same])
        assert_plus_zero(_distances(p)[same])
        assert_plus_zero(signed_sq_dissimilarity(p, min(n_plus, p.shape[1]))[same])

    @settings(max_examples=60, deadline=None)
    @given(case=float_clouds_with_repeats(min_dim=6), keep_prob=st.sampled_from([1.0, 0.95, 0.8]))
    def test_missing(self, case, keep_prob):
        p, seed = case
        try:
            d = perturb_missing(p, keep_prob, seed=seed)
        except ValueError:  # a pair with no shared coordinate
            assume(False)
        assert_plus_zero(d[identical_pairs(p)])

    @settings(max_examples=60, deadline=None)
    @given(case=float_clouds_with_repeats(), k_nn=st.integers(1, 5))
    def test_knn(self, case, k_nn):
        p, _ = case
        assume(k_nn < len(p))
        want = knn_geodesics(p, k_nn)
        assume(not isinstance(want, list))  # connected
        d = perturb_knn(p, k_nn)
        assert_plus_zero(d[identical_pairs(p)])
        # the Gram form's rounding, sqrt'ed, moves short edges by up to ~1e-8 of the spread
        np.testing.assert_allclose(d, want, rtol=1e-9, atol=1e-7 * float(d.max()))

    @settings(max_examples=60, deadline=None)
    @given(case=float_clouds_with_repeats())
    def test_noise_is_the_noise_alone(self, case):
        # the distance is +0.0, so the entry is the square of its pair's draw
        p, seed = case
        n = len(p)
        noise = np.random.Generator(np.random.Philox(seed)).normal(0.0, 0.5, size=n * (n - 1) // 2)
        d = perturb_noise(p, 0.5, seed=seed)
        for i, j in zip(*np.nonzero(np.triu(identical_pairs(p), 1))):
            at = i * (2 * n - i - 1) // 2 + j - i - 1  # row-major upper triangle
            assert d[i, j] == d[j, i] == noise[at] * noise[at]
