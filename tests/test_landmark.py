import numpy as np
import pytest

from neucmds import embedding
from neucmds.datasets import gen_euclidean_ball, gen_random_simplex
from neucmds.embedding import embed, reconstruct, report
from neucmds.landmark import embed_landmark, fit_landmarks, triangulate
from neucmds.linalg import double_center, eig_sym
from neucmds.selection import CMDS, NEUC, PLUS

from conftest import random_edm, random_hollow
from oracle import ref_embed_landmark

COLLINEAR = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]])


class TestFit:
    def test_all_points_as_landmarks_matches_full(self, rng):
        d = random_hollow(rng, 20)
        full = embed(d, 5, NEUC)
        lm = embed_landmark(d, 20, 5, NEUC, seed=3)
        np.testing.assert_array_equal(lm.coords, full.coords)
        np.testing.assert_array_equal(lm.axis_values, full.axis_values)

    def test_seed_determinism(self, rng):
        d = random_hollow(rng, 30)
        a = fit_landmarks(d, 10, 3, NEUC, seed=11)
        b = fit_landmarks(d, 10, 3, NEUC, seed=11)
        np.testing.assert_array_equal(a.landmark_indices, b.landmark_indices)
        np.testing.assert_array_equal(a.base.coords, b.base.coords)
        c = fit_landmarks(d, 10, 3, NEUC, seed=12)
        assert not np.array_equal(a.landmark_indices, c.landmark_indices)

    def test_nonzero_axis_values(self, rng):
        d = random_edm(rng, 20, 2)  # rank-2 cloud: most eigenvalues vanish
        model = fit_landmarks(d, 12, 8, NEUC, seed=0)
        assert np.all(model.base.axis_values != 0.0)
        assert model.base.k <= 8

    def test_guards(self, rng):
        d = random_hollow(rng, 10)
        with pytest.raises(ValueError, match="landmarks"):
            fit_landmarks(d, 3, 3, NEUC)
        with pytest.raises(ValueError, match="landmarks"):
            fit_landmarks(d, 11, 2, NEUC)


@pytest.mark.parametrize("n, m, seed", [(2, 2, 0), (9, 9, 4), (30, 10, 11), (500, 37, 2**40)])
def test_landmarks_are_the_sorted_philox_draw(n, m, seed):
    # the package's one seeded landmark draw: m of n without replacement, sorted
    d = random_hollow(np.random.default_rng(n), n)
    got = fit_landmarks(d, m, 1, NEUC, seed=seed).landmark_indices
    want = np.sort(np.random.Generator(np.random.Philox(seed)).choice(n, m, replace=False))
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, want)


class TestTriangulate:
    @pytest.mark.parametrize("method", [NEUC, PLUS])
    def test_self_consistency(self, method, rng):
        d = random_hollow(rng, 40)
        model = fit_landmarks(d, 20, 6, method, seed=2)
        sub = d[np.ix_(model.landmark_indices, model.landmark_indices)]
        for j in range(model.m):
            got = triangulate(model, sub[:, j])
            ref = model.base.coords[:, j]
            assert np.abs(got - ref).max() <= 1e-6 * max(1.0, np.abs(ref).max())

    def test_mean_row_maps_to_origin(self, rng):
        d = random_hollow(rng, 30)
        model = fit_landmarks(d, 15, 4, NEUC, seed=2)
        np.testing.assert_allclose(
            triangulate(model, model.mean_dissim), np.zeros(model.base.k), atol=1e-12
        )

    def test_length_mismatch(self, rng):
        d = random_hollow(rng, 20)
        model = fit_landmarks(d, 10, 3, NEUC, seed=0)
        with pytest.raises(ValueError, match="dissimilarities"):
            triangulate(model, np.zeros(9))

    def test_one_point_per_column(self, rng):
        d = random_hollow(rng, 30)
        model = fit_landmarks(d, 15, 4, NEUC, seed=2)
        deltas = d[model.landmark_indices]  # every point, landmarks included
        got = triangulate(model, deltas)
        assert got.shape == (model.base.k, 30)
        for j in range(30):
            want = triangulate(model, deltas[:, j])
            assert np.abs(got[:, j] - want).max() <= 1e-12 * np.abs(want).max(), j
        for bad in (np.zeros((14, 30)), np.zeros((15, 2, 1)), np.float64(0.0)):
            with pytest.raises(ValueError, match="expected 15 dissimilarities"):
                triangulate(model, bad)

    def test_matches_classical_lmds_on_euclidean(self, rng):
        # independent positive-eigenvalue triangulation for comparison
        d = random_edm(rng, 40, 5)
        model = fit_landmarks(d, 20, 5, NEUC, seed=4)
        idx = model.landmark_indices
        sub = d[np.ix_(idx, idx)]
        dec = eig_sym(double_center(sub))
        kept = dec.eigenvalues[:5]
        assert np.all(kept > 0)
        vecs = dec.eigenvectors[:, :5]
        mu = sub.mean(axis=0)
        rest = np.setdiff1d(np.arange(40), idx)
        ours = embed_landmark(d, 20, 5, NEUC, seed=4)
        for i in rest:
            delta = d[i, idx]
            classical = -(vecs.T @ (delta - mu)) / (2.0 * np.sqrt(kept))
            got = ours.coords[:, i]
            # axis order and sign conventions may differ; compare per-axis
            match = np.abs(np.sort(np.abs(classical)) - np.sort(np.abs(got))).max()
            assert match <= 1e-8 * max(1.0, np.abs(classical).max())


def ref_triangulate_block(model, dec, deltas):
    """The three-step triangulation the one projection replaced: unit
    eigenvectors from the coordinates, a division by -2 times the unshifted
    eigenvalue, then the axis scale back on."""
    scale = np.sqrt(np.abs(model.base.axis_values))[:, None]
    vectors = model.base.coords / scale
    centered = deltas.T - model.mean_dissim[:, None]
    coef = (vectors @ centered) / (-2.0 * dec.eigenvalues[model.base.axis_indices][:, None])
    return scale * coef


@pytest.mark.parametrize("method", [CMDS, NEUC, PLUS])
@pytest.mark.parametrize("seed", range(6))
def test_projection_matches_the_three_step_triangulation(method, seed):
    rng = np.random.default_rng(seed)
    n, m = 70, 25
    d = random_hollow(rng, n) if seed % 2 else random_edm(rng, n, 8)
    model = fit_landmarks(d, m, 6, method, seed=seed)
    idx = model.landmark_indices
    dec = eig_sym(double_center(d[np.ix_(idx, idx)]))
    rest = np.setdiff1d(np.arange(n), idx)
    want = ref_triangulate_block(model, dec, d[np.ix_(rest, idx)])
    got = embed_landmark(d, m, 6, method, seed=seed).coords[:, rest]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # at this size the whole rows' product is bitwise the product over the rest alone
    plain = model.projection @ (d[np.ix_(idx, rest)] - model.mean_dissim[:, None])
    assert got.tobytes() == plain.tobytes()
    for j in (0, m // 2, m - 1):  # one row alone, and a landmark's own row
        row = d[idx[j], idx]
        want_row = ref_triangulate_block(model, dec, row[None, :])[:, 0]
        assert np.abs(triangulate(model, row) - want_row).max() <= 1e-12 * np.abs(want_row).max()
        base = model.base.coords[:, j]
        assert np.abs(triangulate(model, row) - base).max() <= 1e-9 * np.abs(base).max()


class TestEmbedLandmark:
    def test_collinear_exact_recovery(self):
        emb = embed_landmark(COLLINEAR, 2, 1, NEUC, seed=0)
        np.testing.assert_allclose(reconstruct(emb), COLLINEAR, atol=1e-9)

    def test_landmark_columns_equal_base(self, rng):
        d = random_hollow(rng, 25)
        model = fit_landmarks(d, 10, 3, NEUC, seed=9)
        emb = embed_landmark(d, 10, 3, NEUC, seed=9)
        np.testing.assert_array_equal(
            emb.coords[:, model.landmark_indices], model.base.coords
        )

    def test_signature_carried_over(self, rng):
        d = random_hollow(rng, 25)
        emb = embed_landmark(d, 12, 4, NEUC, seed=1)
        assert set(np.unique(emb.signature)).issubset({-1, 1})
        assert emb.coords.shape == (4, 25)

    # n - m: 260 and 871, and 227, which is not a multiple of 4
    @pytest.mark.parametrize("n, m, k", [(300, 40, 5), (1000, 129, 17), (257, 30, 7)])
    @pytest.mark.parametrize("method", [CMDS, NEUC, PLUS])
    def test_whole_rows_place_as_the_gather_of_the_rest(self, n, m, k, method):
        d = random_hollow(np.random.default_rng(n), n)
        model = fit_landmarks(d, m, k, method, seed=n)
        got = embed_landmark(d, m, k, method, seed=n)
        want = ref_embed_landmark(d, m, k, method, seed=n)
        assert got.coords.shape == want.coords.shape == (model.base.k, n)
        # the base coordinates are written over the landmarks' own columns
        np.testing.assert_array_equal(got.coords[:, model.landmark_indices], model.base.coords)
        # a wider product may round differently in its last bits
        assert np.abs(got.coords - want.coords).max() <= 1e-14 * np.abs(want.coords).max()

    def test_list_of_lists_embeds(self, rng):
        d = random_hollow(rng, 25)
        got = embed_landmark(d.tolist(), 10, 3, NEUC, seed=9)
        want = embed_landmark(d, 10, 3, NEUC, seed=9)
        assert got.coords.tobytes() == want.coords.tobytes()

    def test_psd_pipeline_close_to_full(self, rng):
        # on Euclidean input with all landmarks, matches the full classical run
        d = random_edm(rng, 15, 14)
        full = embed(d, 4, NEUC)
        lm = embed_landmark(d, 15, 4, NEUC, seed=0)
        np.testing.assert_allclose(lm.coords, full.coords, atol=1e-10)


# scaling by a power of two is exact through the fit's centering, eigensolve and
# selection and through the placement, so landmark(4 d) is landmark(d) scaled, bitwise
@pytest.mark.parametrize("method", [CMDS, NEUC, PLUS])
@pytest.mark.parametrize("gen", [gen_random_simplex, gen_euclidean_ball], ids=["simplex", "ball"])
def test_landmark_of_4d_is_landmark_of_d_scaled_bitwise(gen, method):
    d = gen(300, seed=3)
    a, b = (embed_landmark(s * d, 40, 5, method, seed=2) for s in (1.0, 4.0))
    assert b.coords.tobytes() == (2.0 * a.coords).tobytes()
    assert b.axis_values.tobytes() == (4.0 * a.axis_values).tobytes()
    np.testing.assert_array_equal(b.signature, a.signature)
    ra, rb = report(d, a), report(4.0 * d, b)
    assert (rb.stress_sq, rb.scaled_additive) == (16.0 * ra.stress_sq, 4.0 * ra.scaled_additive)
    assert (rb.avg_distortion, rb.neg_dissim_count) == (ra.avg_distortion, ra.neg_dissim_count)


@pytest.mark.parametrize("call, message", [
    (lambda d: embed(d, 0), "1 <= k <= 8, got 0"),
    (lambda d: embed(d, 9), "1 <= k <= 8, got 9"),
    (lambda d: embed_landmark(d, 5, 0), "1 <= k <= m - 1 = 4 for m=5 landmarks, got 0"),
    (lambda d: embed_landmark(d, 5, 5), "1 <= k <= m - 1 = 4 for m=5 landmarks, got 5"),
], ids=["embed-k-0", "embed-k-above-n", "landmark-k-0", "landmark-k-m"])
def test_bad_k_fails_before_the_eigensolve(call, message, monkeypatch, rng):
    def unreachable(*args, **kwargs):
        raise AssertionError("the eigensolve ran with a bad k")

    monkeypatch.setattr(embedding, "_eig_lower", unreachable)
    with pytest.raises(ValueError, match=f"k must satisfy {message}$"):
        call(random_hollow(rng, 8))


@pytest.mark.parametrize("m", [-3, 0, 1])
def test_landmark_count_below_2_is_named_first(m, monkeypatch, rng):
    # no count below 2 can embed: the count fails before the method and k are read
    def unreachable(*args, **kwargs):
        raise AssertionError("the eigensolve ran with a bad landmark count")

    monkeypatch.setattr(embedding, "_eig_lower", unreachable)
    with pytest.raises(ValueError, match=f"^the landmark count must be at least 2, got {m}$"):
        embed_landmark(random_hollow(rng, 8), m, 1, method="bogus")
