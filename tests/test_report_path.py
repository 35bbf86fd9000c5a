"""The lean report path against the reference bodies it replaced.

``metrics.report`` sums every field from strips of d_hat and builds no
n x n array besides d; it must equal the whole-matrix
functions on ``reconstruct`` within 1e-12 relative on the sums, and exactly
on the counts and on c1, c2, c3.  Its distortion median, taken from the
log-ratios inside a pilot's bracket, must be bitwise the median of a buffer
of every log-ratio (the path it replaced), also where a bracket forced off
the median costs one more pass; it holds no such buffer, and the landmark
placement holds no m x n array.  ``reconstruct``, ``stress`` and
``scaled_additive_error`` build at most one n x n array each.
``negativity_stats``, ``avg_geometric_distortion``, ``check_symmetric`` and
``check_dissimilarity`` read their inputs in strips of ``BLOCK`` rows and
build no n x n temporary; the distortion holds two float buffers of the
qualifying pair count.  The ``ref_*`` functions below are the
straightforward versions; those public functions must match them bitwise, on
symmetric, asymmetric and negative inputs alike, and ``negativity_stats``
and ``avg_geometric_distortion`` must do so with every helper of ``report``
made to raise: they are the references of its streamed values.  The
``whole_*`` functions are the whole-matrix bodies the strip versions
replaced: the checks must give their messages, and a memory guard must hold
for the strip versions and fail for them.  A failing check names its
failure from the strip that finds it, so it stays below one n x n bool as a
passing one does.
"""

import collections
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from neucmds import embedding, landmark, linalg, metrics
from neucmds.datasets import gen_euclidean_ball, perturb_missing
from neucmds.embedding import Embedding, embed_from_decomposition, reconstruct, report
from neucmds.linalg import BLOCK, check_dissimilarity, check_symmetric, double_center, eig_sym
from neucmds.metrics import (
    StressReport,
    avg_geometric_distortion,
    decompose,
    negativity_stats,
    scaled_additive_error,
    stress,
)
from neucmds.selection import METHODS

from conftest import random_hollow
from oracle import full_axis_values

SIZES = [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 600]


# ---------------------------------------------------------------- references

def ref_reconstruct(emb):
    x = emb.coords
    n = emb.n
    if x.shape[0] == 0:
        return np.zeros((n, n))
    sx = emb.signature.astype(np.float64)[:, None] * x
    g = x.T @ sx
    y = np.diagonal(g)
    d_hat = y[:, None] + y[None, :] - 2.0 * g
    upper = np.triu(d_hat, 1)
    return upper + upper.T


def ref_stress(d, d_hat):
    diff = d_hat - d
    return float(np.sum(diff * diff))


def ref_scaled_additive_error(d, d_hat):
    x = d.ravel()
    y = d_hat.ravel()
    yy = float(np.dot(y, y))
    if yy == 0.0:
        return float(np.linalg.norm(x))
    t = float(np.dot(x, y)) / yy
    return float(np.linalg.norm(x - t * y))


def ref_avg_geometric_distortion(d, d_hat):
    iu = np.triu_indices(d.shape[0], 1)
    a = d[iu]
    b = d_hat[iu]
    ok = (a > 0.0) & (b > 0.0)
    if not np.any(ok):
        return None
    logs = 0.5 * (np.log(a[ok]) - np.log(b[ok]))
    logs -= np.median(logs)
    return float(math.exp(np.mean(np.abs(logs))))


def ref_negativity_stats(d_hat, signature):
    iu = np.triu_indices(d_hat.shape[0], 1)
    return int(np.sum(d_hat[iu] < 0.0)), int(np.sum(np.asarray(signature) < 0))


# the whole-matrix bodies the strip versions replaced: the message and memory references

def whole_check_symmetric(m, name="matrix"):
    if not np.array_equal(m, m.T):
        bad = np.argwhere(m != m.T)
        i, j = (int(v) for v in bad[0])
        raise ValueError(
            f"{name} is not symmetric: entry ({i},{j})={float(m[i, j])} "
            f"but ({j},{i})={float(m[j, i])}"
        )


def whole_check_dissimilarity(d, name="dissimilarity matrix"):
    if not np.isfinite(d).all():
        i, j = (int(v) for v in np.argwhere(~np.isfinite(d))[0])
        raise ValueError(f"{name} has a non-finite entry: ({i},{j}) is {float(d[i, j])}")
    whole_check_symmetric(d, name)


def whole_avg_geometric_distortion(d, d_hat):
    ok = np.triu((d > 0.0) & (d_hat > 0.0), 1)
    if not np.any(ok):
        return None
    logs, other = d[ok], d_hat[ok]
    np.subtract(np.log(logs, out=logs), np.log(other, out=other), out=logs)
    logs *= 0.5
    np.copyto(other, logs)
    logs -= np.median(other, overwrite_input=True)
    return float(math.exp(np.mean(np.abs(logs, out=logs))))


def whole_negativity_stats(d_hat, signature):
    neg_pairs = int(np.count_nonzero(np.triu(d_hat < 0.0, 1)))
    return neg_pairs, int(np.sum(np.asarray(signature) < 0))


def whole_report(d, emb):
    """The report body that built d_hat: each metric on ``reconstruct``."""
    d_hat = reconstruct(emb)
    ssq = stress(d, d_hat)
    c1, c2, c3 = emb.split or (None, None, None)
    neg_pairs, neg_axes = negativity_stats(d_hat, emb.signature)
    return StressReport(
        stress_sq=ssq,
        stress=math.sqrt(ssq),
        c1=c1,
        c2=c2,
        c3=c3,
        scaled_additive=scaled_additive_error(d, d_hat),
        avg_distortion=avg_geometric_distortion(d, d_hat),
        neg_dissim_count=neg_pairs,
        neg_axes_count=neg_axes,
    )


def empty_embedding(n):
    return Embedding(
        coords=np.zeros((0, n)),
        signature=np.zeros(0, dtype=np.int64),
        axis_values=np.zeros(0),
        axis_indices=np.zeros(0, dtype=np.intp),
    )


def embeddings(n, seed):
    """(d, decomposition, embedding) for k in {0, 1, n} and every method."""
    d = random_hollow(np.random.default_rng(seed), n)
    dec = eig_sym(double_center(d))
    yield d, dec, empty_embedding(n)
    for k in sorted({1, n}):
        for method in METHODS:
            yield d, dec, embed_from_decomposition(dec, k, method)


def assert_metrics_match(d, d_hat, signature=(1, -1)):
    assert stress(d, d_hat) == ref_stress(d, d_hat)
    assert scaled_additive_error(d, d_hat) == ref_scaled_additive_error(d, d_hat)
    got = avg_geometric_distortion(d, d_hat)
    want = ref_avg_geometric_distortion(d, d_hat)
    assert (got is None and want is None) or got == want
    assert negativity_stats(d_hat, signature) == ref_negativity_stats(d_hat, signature)


# ---------------------------------------------------------------- equivalence

@pytest.mark.parametrize("n", SIZES)
def test_reconstruct_is_bitwise_equal(n):
    for _, _, emb in embeddings(n, seed=n):
        got = reconstruct(emb)
        assert got.tobytes() == ref_reconstruct(emb).tobytes()
        assert got.shape == (n, n) and got.flags.c_contiguous


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("order", ["C", "F"])
def test_reconstruct_free_coordinates(n, order):
    # any coordinates and signature, in either memory layout
    rng = np.random.default_rng(1000 + n)
    for k in sorted({1, 3, n}):
        emb = Embedding(
            coords=np.asarray(rng.normal(size=(k, n)), order=order),
            signature=np.where(rng.random(k) < 0.4, -1, 1),
            axis_values=np.ones(k),
            axis_indices=np.arange(k),
        )
        assert reconstruct(emb).tobytes() == ref_reconstruct(emb).tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_metrics_match_on_reconstructions(n):
    for d, _, emb in embeddings(n, seed=n):
        assert_metrics_match(d, reconstruct(emb), emb.signature)


@pytest.mark.parametrize("n", SIZES)
def test_metrics_match_on_asymmetric_inputs(n):
    rng = np.random.default_rng(2000 + n)
    d = rng.normal(size=(n, n))
    d_hat = rng.normal(size=(n, n))
    assert_metrics_match(d, d_hat)
    assert_metrics_match(d_hat, d)
    assert_metrics_match(np.abs(d), np.abs(d_hat) + 1.0)


@pytest.mark.parametrize("n", SIZES)
def test_metrics_match_on_negative_inputs(n):
    rng = np.random.default_rng(3000 + n)
    d = random_hollow(rng, n)
    assert_metrics_match(d, random_hollow(rng, n, scale=3.0))
    assert_metrics_match(-np.abs(d), d)  # no positive pair on the left
    assert_metrics_match(d, np.zeros((n, n)))
    assert_metrics_match(np.zeros((n, n)), -np.abs(d))


# the whole-matrix references stand apart from report, whose streamed values they check
@pytest.mark.parametrize("n", SIZES)
def test_the_references_call_no_helper_of_report(n, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a reference called a helper of report")
    for name in ("_upper_strips", "_above_diagonal", "_log_ratios", "_bracket", "_Tally",
                 "_avg_distortion"):
        monkeypatch.setattr(metrics, name, unreachable)
    for d, _, emb in embeddings(n, seed=n):
        assert_metrics_match(d, reconstruct(emb), emb.signature)


# ---------------------------------------------------------------- strip paths

STRIP_SIZES = [BLOCK - 1, BLOCK, BLOCK + 1]


def few_pairs(n, count, seed):
    """(d, d_hat) with exactly ``count`` qualifying pairs: d is negative except
    on its diagonal, on ``count`` random strict-upper entries (the last pair
    among them) and on as many lower entries, which do not count; d_hat is
    positive everywhere."""
    rng = np.random.default_rng(seed)
    d = -rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(d, 1.0)
    upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))
    last = (n - 2) * n + n - 1
    picked = np.append(rng.choice(upper[upper != last], count - 1, replace=False), last)
    d.flat[picked] = rng.uniform(0.1, 10.0, size=count)
    lower = np.flatnonzero(np.tril(np.ones((n, n), dtype=bool), -1))
    d.flat[rng.choice(lower, count, replace=False)] = 5.0
    return d, rng.uniform(0.1, 10.0, size=(n, n))


@pytest.mark.parametrize("n", STRIP_SIZES)
@pytest.mark.parametrize("count", [1, 2, 3, 4, 101, 1000])
def test_strip_metrics_match_on_few_qualifying_pairs(n, count):
    d, d_hat = few_pairs(n, count, seed=n * 7 + count)
    want = ref_avg_geometric_distortion(d, d_hat)
    assert want is not None
    assert avg_geometric_distortion(d, d_hat) == want
    assert avg_geometric_distortion(d_hat, d) == ref_avg_geometric_distortion(d_hat, d)
    assert negativity_stats(-d, [1, -1]) == ref_negativity_stats(-d, [1, -1]) == (count, 1)


@pytest.mark.parametrize("n", STRIP_SIZES)
def test_distortion_of_infinite_pairs(n):
    d, d_hat = few_pairs(n, 10, seed=n)
    i, j = divmod(int(np.flatnonzero(np.triu(d > 0.0, 1))[-1]), n)
    d[i, j] = np.inf  # +inf on one side: an infinite log-ratio
    assert avg_geometric_distortion(d, d_hat) == ref_avg_geometric_distortion(d, d_hat)
    d_hat[i, j] = np.inf  # +inf on both sides: a NaN log-ratio
    with np.errstate(invalid="ignore"):
        got = avg_geometric_distortion(d, d_hat)
        want = ref_avg_geometric_distortion(d, d_hat)
    assert math.isnan(got) and math.isnan(want)


def layouts(a):
    """a in Fortran order, and as a view with non-unit strides on both axes."""
    yield np.asfortranarray(a)
    big = np.zeros((2 * a.shape[0], 3 * a.shape[1]))
    big[::2, ::3] = a
    yield big[::2, ::3]


@pytest.mark.parametrize("n", [2, *STRIP_SIZES, 300])
def test_strip_metrics_read_any_layout(n):
    rng = np.random.default_rng(4000 + n)
    d, d_hat = np.abs(random_hollow(rng, n)), random_hollow(rng, n, scale=3.0)
    want = ref_avg_geometric_distortion(d, d_hat), ref_negativity_stats(d_hat, [-1])
    for d_view, d_hat_view in zip(layouts(d), layouts(d_hat)):
        assert not d_view.flags.c_contiguous and not d_hat_view.flags.c_contiguous
        got = avg_geometric_distortion(d_view, d_hat_view), negativity_stats(d_hat_view, [-1])
        assert got == want


# ---------------------------------------------------------------- call path

REPORT_LAYERS = (
    "reconstruct",
    "stress",
    "decompose",
    "scaled_additive_error",
    "avg_geometric_distortion",
    "negativity_stats",
)


def count_calls(monkeypatch, module, names, record=lambda *args, **kwargs: True):
    """Wrap module attributes the way a span tracer does; count the calls
    for which ``record`` holds."""
    calls = collections.Counter()
    for name in names:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            if record(*args, **kwargs):
                calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_report_calls_every_layer_by_name(monkeypatch):
    # the benchmark's per-layer figures patch these module attributes; a
    # fused or inlined layer would read zero there.  The report's one layer is
    # the strip kernel: no whole-matrix function runs, in either module
    d = random_hollow(np.random.default_rng(5), 12)
    dec = eig_sym(double_center(d))
    counters = [count_calls(monkeypatch, embedding, ["reconstruct", "decompose", "report"]),
                count_calls(monkeypatch, metrics, REPORT_LAYERS[1:])]
    emb = embed_from_decomposition(dec, 4, "neuc-plus")
    assert sum(counters, collections.Counter()) == {"decompose": 1}  # where dec is in hand
    for c in counters:
        c.clear()
    embedding.report(d, emb)  # the name the tracer wraps
    assert sum(counters, collections.Counter()) == {"report": 1}


def ref_report(d, emb, dec):
    """The report body that took the decomposition as a parameter."""
    d_hat = reconstruct(emb)
    ssq = stress(d, d_hat)
    c1, c2, c3 = decompose(dec.eigenvalues, dec.eigenvectors, full_axis_values(emb))
    neg_pairs, neg_axes = negativity_stats(d_hat, emb.signature)
    return StressReport(
        stress_sq=ssq,
        stress=math.sqrt(ssq),
        c1=c1,
        c2=c2,
        c3=c3,
        scaled_additive=scaled_additive_error(d, d_hat),
        avg_distortion=avg_geometric_distortion(d, d_hat),
        neg_dissim_count=neg_pairs,
        neg_axes_count=neg_axes,
    )


@pytest.mark.parametrize("n", [3, 40, BLOCK + 1])
@pytest.mark.parametrize("method", METHODS)
def test_report_equals_the_report_given_the_decomposition(n, method):
    d = random_hollow(np.random.default_rng(n), n)
    dec = eig_sym(double_center(d))
    for k in (1, 3, n):
        emb = embed_from_decomposition(dec, k, method)
        assert_reports_match(report(d, emb), ref_report(d, emb, dec), d)


# ---------------------------------------------------------------- streamed report

RTOL = 1e-12
NOISE = 1e-14  # an exact fit's norms are rounding noise, below 1e-16 ||d|| here


def assert_reports_match(got, want, d):
    """c1, c2, c3 and the counts exactly; stress_sq, stress, scaled_additive and
    avg_distortion within ``RTOL`` relative.  Where an exact fit leaves only
    rounding noise in a norm, the two sums of noise differ: the norms are also
    allowed ``NOISE`` ||d||, and stress_sq its square."""
    scale = NOISE * math.sqrt(float(np.vdot(d, d)))
    assert (got.c1, got.c2, got.c3) == (want.c1, want.c2, want.c3)
    assert (got.neg_dissim_count, got.neg_axes_count) == (want.neg_dissim_count,
                                                          want.neg_axes_count)
    assert got.stress_sq == pytest.approx(want.stress_sq, rel=RTOL, abs=scale * scale)
    assert got.stress == math.sqrt(got.stress_sq)
    assert got.stress == pytest.approx(want.stress, rel=RTOL, abs=scale)
    assert got.scaled_additive == pytest.approx(want.scaled_additive, rel=RTOL, abs=scale)
    if want.avg_distortion is None:
        assert got.avg_distortion is None
    else:
        assert got.avg_distortion == pytest.approx(want.avg_distortion, rel=RTOL, abs=0)


def assert_streams(d, emb):
    want = whole_report(d, emb)
    assert_reports_match(report(d, emb), want, d)
    return want


@pytest.mark.parametrize("n", SIZES)
def test_streamed_report_matches_the_whole_matrix_bodies(n):
    for d, dec, emb in embeddings(n, seed=n):
        want = assert_streams(d, emb)
        if emb.split is not None:  # k >= 1: the split the decomposition gives
            assert want == ref_report(d, emb, dec)


@pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK + 1, 300])
def test_streamed_report_of_landmark_embeddings(n):
    rng = np.random.default_rng(n)
    d = np.abs(random_hollow(rng, n))
    for method in METHODS:
        emb = landmark.embed_landmark(d, min(n, 40), min(n - 1, 3), method, seed=n)
        assert emb.split is None
        assert_streams(d, emb)
        assert_streams(random_hollow(rng, n), emb)  # negative pairs on the left too


def free_embedding(n, k, signs, seed, scale=1.0):
    """Random coordinates of n points on k axes with the given signs."""
    coords = np.random.default_rng(seed).normal(scale=scale, size=(k, n))
    return Embedding(coords, np.asarray(signs, dtype=np.int64), np.ones(k), np.arange(k))


@pytest.mark.parametrize("n", [2, BLOCK + 1, 300])
def test_streamed_report_of_all_zero_axes(n):
    # ||d_hat||^2 = 0: scaled_additive is ||d||, and no pair qualifies
    d = random_hollow(np.random.default_rng(n), n)
    emb = free_embedding(n, 2, [1, -1], seed=n, scale=0.0)
    want = assert_streams(d, emb)
    assert (want.scaled_additive, want.avg_distortion) == (float(np.linalg.norm(d)), None)
    assert (want.neg_dissim_count, want.neg_axes_count) == (0, 1)


@pytest.mark.parametrize("n", [2, BLOCK, 300])
def test_streamed_report_without_qualifying_pairs(n):
    rng = np.random.default_rng(n)
    emb = free_embedding(n, 3, [1, 1, 1], seed=n)
    want = assert_streams(-np.abs(random_hollow(rng, n)), emb)
    assert want.avg_distortion is None and want.neg_dissim_count == 0


@pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK + 1, 300])
def test_streamed_report_of_an_all_negative_d_hat(n):
    d = np.abs(random_hollow(np.random.default_rng(n), n))
    want = assert_streams(d, free_embedding(n, 3, [-1, -1, -1], seed=n))
    assert want.neg_dissim_count == n * (n - 1) // 2
    assert (want.avg_distortion, want.neg_axes_count) == (None, 3)


def with_positive_pairs(n, count, seed):
    """Hollow symmetric d, negative off the diagonal except on ``count`` pairs."""
    rng = np.random.default_rng(seed)
    d = -np.abs(random_hollow(rng, n)) - 0.1
    i, j = np.triu_indices(n, 1)
    picked = rng.choice(i.size, count, replace=False)
    d[i[picked], j[picked]] = d[j[picked], i[picked]] = rng.uniform(0.1, 10.0, size=count)
    np.fill_diagonal(d, 0.0)
    return d


@pytest.mark.parametrize("n", STRIP_SIZES)
@pytest.mark.parametrize("count", [1, 2, 3, 4, 101, 1000])
def test_streamed_report_on_odd_and_even_qualifying_counts(n, count):
    # a positive-signature embedding of distinct points: d_hat > 0 on every pair
    d = with_positive_pairs(n, count, seed=n * 7 + count)
    want = assert_streams(d, free_embedding(n, 4, [1, 1, 1, 1], seed=count))
    assert want.avg_distortion is not None and want.neg_dissim_count == 0


@pytest.mark.parametrize("n", [BLOCK + 1, 300])
def test_the_second_pass_runs_where_the_one_pass_residual_cancels(monkeypatch, n):
    # near d_hat, the misfit is noise and the one-pass residual keeps its digits;
    # near 3 d_hat, it is mostly along d_hat and the residual is summed again
    # (with one pair, n = 2, every d is a multiple of d_hat)
    rng = np.random.default_rng(n)
    emb = free_embedding(n, 4, [1, -1, 1, 1], seed=n)
    d_hat = reconstruct(emb)
    noise = random_hollow(rng, n, scale=1e-4 * float(np.abs(d_hat).max()))
    calls = count_calls(monkeypatch, metrics, ["_upper_strips"])
    for d, passes in ((d_hat + noise, 1), (3.0 * d_hat + noise, 2), (3.0 * d_hat, 2)):
        calls.clear()
        assert_streams(d, emb)
        assert calls["_upper_strips"] == passes


def test_streamed_report_checks_the_shape():
    emb = free_embedding(5, 2, [1, -1], seed=0)
    for d in (np.zeros((4, 4)), np.zeros((5, 6)), np.zeros(25)):
        with pytest.raises(ValueError) as info:
            whole_report(d, emb)
        with pytest.raises(ValueError, match=f"^{re.escape(str(info.value))}$"):
            report(d, emb)


# ---------------------------------------------------------------- bracketed median

def strip_logs(d, emb):
    """Every qualifying pair's half log-ratio, from the strips report reads."""
    n = emb.n
    bufs = np.empty((2, min(BLOCK, n) * n))
    return np.concatenate([metrics._log_ratios(dp, hat) for dp, hat in
                           metrics._upper_strips(d, emb.coords, emb.signature, bufs)])


def buffer_path(d, emb):
    """(median, avg_distortion) as report took them before its bracket: every
    qualifying pair's half log-ratio in one buffer, partitioned at its middle."""
    logs = strip_logs(d, emb)
    half = logs.size // 2
    logs.partition(half)
    median = logs[half] if logs.size % 2 else (logs[:half].max() + logs[half]) / 2.0
    logs -= median
    return float(median), float(math.exp(np.mean(np.abs(logs, out=logs))))


def assert_bracketed(d, emb, monkeypatch, bracket=None):
    """report's median is the buffer path's bitwise, and its avg_distortion is
    within RTOL of the buffer path's and the whole-matrix reference's; with
    ``bracket``, in place of the pilot's.  Returns the number of passes that
    tallied log-ratios: 2 where the median fell outside the bracket."""
    want_median, want = buffer_path(d, emb)
    medians, real = [], metrics._middle

    def middle(*args):
        medians.append(real(*args))
        return medians[-1]
    monkeypatch.setattr(metrics, "_middle", middle)
    if bracket is not None:
        monkeypatch.setattr(metrics, "_bracket", lambda *args: bracket)
    tallies = count_calls(monkeypatch, metrics, ["_Tally"])
    got = report(d, emb)
    assert_reports_match(got, whole_report(d, emb), d)
    assert [m.hex() for m in medians] == [want_median.hex()]
    assert got.avg_distortion == pytest.approx(want, rel=RTOL, abs=0)
    return tallies["_Tally"]


def ball_embedding(n, seed):
    """A gen_euclidean_ball input and its cmds embedding: nearly every pair qualifies."""
    d = gen_euclidean_ball(n, seed=seed)
    return d, embedding.embed(d, 10, "cmds")


def with_pair_count(n, count):
    """A hollow symmetric d and a positive-signature embedding of distinct points
    with exactly ``count`` qualifying pairs."""
    return with_positive_pairs(n, count, seed=n + count), free_embedding(n, 4, [1] * 4, seed=count)


# each bracket as a function of the sorted log-ratios v, whose middle ranks are h - 1
# and h (even count) or h (odd): wholly off either end, one value off the median
# on either side, and for an even count between its two middle values
MISPLACED = {
    "above every value": lambda v, h: (v[-1] + 1.0, v[-1] + 1.5, v[-1] + 2.0),
    "below every value": lambda v, h: (v[0] - 2.0, v[0] - 1.5, v[0] - 1.0),
    "just above the median": lambda v, h: (v[h + 1], v[h + 1], v[h + 2]),
    "just below the median": lambda v, h: (v[h - 3], v[h - 2], v[h - 2]),
    "between the middle values": lambda v, h: ((v[h - 1] + v[h]) / 2.0,) * 3,
}


@pytest.mark.parametrize("where", MISPLACED)
@pytest.mark.parametrize("count", [1000, 1001])
def test_a_misplaced_bracket_costs_one_more_pass(monkeypatch, where, count):
    d, emb = with_pair_count(BLOCK + 1, count)
    v = np.sort(strip_logs(d, emb))
    assert v.size == count
    bracket = MISPLACED[where](v, count // 2)
    if where == "between the middle values" and count % 2:
        bracket = (v[count // 2 - 1],) * 3  # an odd count has one middle value: just below it
    assert assert_bracketed(d, emb, monkeypatch, bracket) == 2


@pytest.mark.parametrize("where", ["above every value", "below every value"])
@pytest.mark.parametrize("case", ["embed", "landmark"])
def test_a_misplaced_bracket_on_a_grouped_pilot_input(monkeypatch, where, case):
    d, emb = ball_embedding(600, seed=2)
    if case == "landmark":
        emb = landmark.embed_landmark(d, 60, 5, "neuc", seed=3)
    v = np.sort(strip_logs(d, emb))
    assert assert_bracketed(d, emb, monkeypatch, MISPLACED[where](v, v.size // 2)) == 2


@pytest.mark.parametrize("n", [BLOCK + 1, 600])
def test_the_pilot_brackets_the_median(monkeypatch, n):
    d, emb = ball_embedding(n, seed=n)
    assert assert_bracketed(d, emb, monkeypatch) == 1


@pytest.mark.parametrize("n, count", [(2, 1), *((n, c) for n in (BLOCK + 1, 300)
                                                  for c in (1, 2, 3, 4))])
def test_the_median_of_a_few_pairs(monkeypatch, n, count):
    d, emb = with_pair_count(n, count)
    passes = assert_bracketed(d, emb, monkeypatch)
    # up to PILOT points the pilot is every pair, bitwise as the pass takes it; past
    # that, a pilot that holds one or two of a few pairs may miss their median
    assert passes == 1 if n <= metrics.PILOT else passes <= 2


@pytest.mark.parametrize("n", [300, 600])
@pytest.mark.parametrize("count", [1, 2, 3, 101])
def test_a_pilot_without_pairs_under_raising_errors(monkeypatch, n, count):
    # qualifying pairs only between an even and an odd point, which no pilot group of
    # points r, r + g, r + 2g, ... holds for an even g: no 0 * inf may reach a sum
    d = -np.abs(random_hollow(np.random.default_rng(n), n)) - 0.1
    np.fill_diagonal(d, 0.0)
    rng = np.random.default_rng(count)
    i, j = np.divmod(rng.choice((n // 2) ** 2, count, replace=False), n // 2)
    d[2 * i, 2 * j + 1] = d[2 * j + 1, 2 * i] = rng.uniform(0.1, 10.0, size=count)
    emb = free_embedding(n, 4, [1] * 4, seed=count)
    assert metrics._bracket(d, emb.coords, emb.signature) == (-math.inf, 0.0, math.inf)
    with np.errstate(all="raise"):
        assert assert_bracketed(d, emb, monkeypatch) == 1


@pytest.mark.parametrize("n, ratio, pilot", [(2, 4.0, True), (BLOCK + 1, 4.0, True),
                                             (300, 4.0, True), (300, 3.0, False)])
def test_equal_ratios_give_exactly_one(monkeypatch, n, ratio, pilot):
    # points of a regular simplex: d_hat is 8 on every pair, d is ratio d_hat; without
    # a pilot pair, d is that only between an even and an odd point, so every value is
    # kept around a centre of 0, and sum |l - 0| taken strip by strip and over the kept
    # values differ in their last bits
    emb = Embedding(2.0 * np.eye(n), np.ones(n, dtype=np.int64), np.ones(n), np.arange(n))
    d = ratio * reconstruct(emb)
    if not pilot:
        d[::2, ::2] = d[1::2, 1::2] = -1.0
        np.fill_diagonal(d, 0.0)
        assert metrics._bracket(d, emb.coords, emb.signature) == (-math.inf, 0.0, math.inf)
    assert_bracketed(d, emb, monkeypatch)
    assert report(d, emb).avg_distortion == avg_geometric_distortion(d, reconstruct(emb)) == 1.0


def test_a_nan_log_ratio_gives_nan():
    # report raises on the infinite d_hat a NaN log-ratio needs before it takes a
    # distortion, so the tally takes the strips itself; NaN returns before a miss pass
    rng = np.random.default_rng(7)
    strips = [rng.normal(size=size) for size in (500, 301, 1)]
    strips[1][17] = np.nan
    logs = np.concatenate(strips)
    logs.partition(logs.size // 2)
    logs -= logs[logs.size // 2]  # the buffer path: an odd count
    assert math.isnan(math.exp(np.mean(np.abs(logs))))
    for bracket in ((-0.1, 0.0, 0.1), (-math.inf, 0.0, math.inf), (5.0, 5.5, 6.0)):
        tally = metrics._Tally(*bracket)
        for strip in strips:
            tally.add(strip.copy())
        assert math.isnan(metrics._avg_distortion(tally, None, None, None, None))


@pytest.mark.parametrize("case", ["embed", "landmark"])
def test_report_is_invariant_under_a_permutation(case):
    # permuting d and the coordinates' columns together moves the pairs between
    # strips and changes the points each pilot group samples
    d, emb = ball_embedding(600, seed=5)
    if case == "landmark":
        emb = landmark.embed_landmark(d, 60, 5, "neuc", seed=6)
    p = np.random.default_rng(7).permutation(600)
    want = report(d, emb)
    assert want.avg_distortion is not None
    got = report(d[np.ix_(p, p)], replace(emb, coords=emb.coords[:, p]))
    assert_reports_match(got, want, d)


# ---------------------------------------------------------------- validation

def _full_size(d, *args, **kwargs):
    return np.shape(d) == (9, 9)


@pytest.mark.parametrize("call", [
    lambda d: embedding.embed(d, 2, "neuc"),
    lambda d: embedding.sweep(d, [1, 2], ["cmds", "neuc"]),
    lambda d: landmark.embed_landmark(d, 5, 2, seed=1),
], ids=["embed", "sweep", "embed_landmark"])
def test_each_call_validates_its_input_once(monkeypatch, call):
    counters = [count_calls(monkeypatch, module, ["check_dissimilarity"], _full_size)
                for module in (linalg, embedding, landmark)  # every module holding it
                if hasattr(module, "check_dissimilarity")]
    call(random_hollow(np.random.default_rng(9), 9))
    assert sum(sum(c.values()) for c in counters) == 1


BAD_INPUTS = [
    (np.zeros((2, 3)), "dissimilarity matrix must be square, got shape (2, 3)"),
    (np.array([[0.0, np.nan], [np.nan, 0.0]]),
     "dissimilarity matrix has a non-finite entry: (0,1) is nan"),
    (np.array([[0.0, 1.0], [2.0, 0.0]]),
     "dissimilarity matrix is not symmetric: entry (0,1)=1.0 but (1,0)=2.0"),
    (np.array([[0.0, 1.0], [1.0, 3.0]]),
     "dissimilarity matrix is not hollow: diagonal entry 1 is 3.0"),
]


@pytest.mark.parametrize("d, message", BAD_INPUTS,
                         ids=["non-square", "non-finite", "asymmetric", "non-hollow"])
@pytest.mark.parametrize("call", [
    lambda d: embedding.embed(d, 1, "neuc"),
    lambda d: embedding.sweep(d, [1], ["bogus"]),  # the input is checked first
    lambda d: landmark.embed_landmark(d, 2, 1),
], ids=["embed", "sweep", "embed_landmark"])
def test_invalid_input_messages(d, message, call):
    with pytest.raises(ValueError) as info:
        call(d)
    assert str(info.value) == message


def symmetry_message(check, m):
    with pytest.raises(ValueError) as info:
        check(m)
    return str(info.value)


def asymmetric_cases():
    """(n, entries given m[i, j] += 1) for each spot the strips or the tile walk
    treat apart, at every n where the spot exists; at 3 BLOCK + 1 the last tile
    is one wide."""
    for n in (2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5, 3 * BLOCK + 1):
        spots = {
            "lower": [(n - 1, 0)],
            "upper": [(0, n - 1)],
            "first tile": [(min(3, n - 1), min(3, n - 1) - 1)],
            "last tile": [(n - 1, n - 2)],
            "strip boundary, upper": [(BLOCK - 1, BLOCK)],
            "strip boundary, lower": [(BLOCK, BLOCK - 1)],
            # the row-major first mismatch, (1, n-1), mirrors the lower entry
            "two pairs": [(n - 1, 1), (2, n - 2)],
            # the walk stops in tile pair (0, 0); the message names (3, 2 BLOCK + 1)
            "walk order": [(5, 7), (3, 2 * BLOCK + 1)],
        }
        for where, entries in spots.items():
            if max(map(max, entries)) < n:
                yield pytest.param(n, entries, id=f"{n}-{where}")


@pytest.mark.parametrize("n, spots", asymmetric_cases())
def test_check_symmetric_names_the_parents_entry(n, spots):
    m = random_hollow(np.random.default_rng(n), n)
    for i, j in spots:
        m[i, j] += 1.0
    want = symmetry_message(whole_check_symmetric, m)
    assert symmetry_message(check_symmetric, m) == want
    assert symmetry_message(check_dissimilarity, m) == symmetry_message(
        whole_check_dissimilarity, m)
    for vectors in (True, False):
        assert symmetry_message(lambda b: eig_sym(b, vectors), m) == want


@pytest.mark.parametrize("n, zeros", [
    *(pytest.param(n, [], id=str(n)) for n in (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1)),
    # an upper -0.0 mirrored by +0.0 compares equal
    pytest.param(3 * BLOCK + 1, [(5, 2 * BLOCK + 3)], id=f"{3 * BLOCK + 1}-signed zero"),
])
def test_symmetric_input_passes(n, zeros):
    m = random_hollow(np.random.default_rng(n), n)
    for i, j in zeros:
        m[i, j], m[j, i] = -0.0, 0.0
    f = np.asfortranarray(m)
    check_symmetric(m)
    check_symmetric(f)
    assert check_dissimilarity(m) is m
    assert check_dissimilarity(f) is f


@pytest.mark.parametrize("n, spots", [
    (1, [(0, 0)]),
    (2, [(1, 1)]),
    (BLOCK + 1, [(BLOCK, BLOCK)]),
    (BLOCK + 1, [(BLOCK, 3), (3, BLOCK)]),
    (2 * BLOCK + 5, [(BLOCK + 2, BLOCK + 7), (BLOCK + 7, BLOCK + 2), (2 * BLOCK, 2 * BLOCK)]),
])
def test_nan_matrix_is_not_symmetric(n, spots):
    m = random_hollow(np.random.default_rng(n), n)
    for i, j in spots:
        m[i, j] = np.nan
    want = symmetry_message(whole_check_symmetric, m)
    assert "is not symmetric" in want
    assert symmetry_message(check_symmetric, m) == want
    for vectors in (True, False):
        assert symmetry_message(lambda b: eig_sym(b, vectors), m) == want


@pytest.mark.parametrize("n, spots", [
    (BLOCK + 1, [(BLOCK, 0)]),
    (BLOCK + 1, [(BLOCK, BLOCK - 1), (BLOCK - 1, BLOCK)]),
    (2 * BLOCK + 5, [(2 * BLOCK + 4, 1), (BLOCK + 1, 2 * BLOCK), (2 * BLOCK, 0)]),
    # below, the walk stops in another tile pair than the named entry's, or for another
    # reason; a spot (i, j, x) sets the finite x, an asymmetry
    (3 * BLOCK + 1, [(100, 50), (2, 3 * BLOCK)]),  # the last tile is one wide
    (3 * BLOCK + 1, [(5, 2 * BLOCK + 3, 7.5), (2 * BLOCK + 4, 1)]),
    (3 * BLOCK + 1, [(5, 7), (7, 5), (3, 2 * BLOCK + 1), (2 * BLOCK + 1, 3)]),  # symmetric pairs
    (3 * BLOCK + 1, [(2 * BLOCK + 6, 4), (2 * BLOCK + 5, 2 * BLOCK + 5)]),  # on the diagonal
])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_check_dissimilarity_names_the_first_non_finite_entry(n, spots, value):
    m = random_hollow(np.random.default_rng(n), n)
    for i, j, *finite in spots:
        m[i, j] = finite[0] if finite else value
    want = symmetry_message(whole_check_dissimilarity, m)
    assert "non-finite entry" in want
    assert symmetry_message(check_dissimilarity, m) == want


# ---------------------------------------------------------------- memory

GUARD_N = 600


def traced_peak(fn, *args):
    """Peak bytes that numpy and Python allocate during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def guard_case(case):
    """(strip function, whole-matrix body, args, bound in bytes) at n = GUARD_N:
    the symmetry and finiteness checks and negativity_stats stay below one
    n x n bool; the distortion stays within two float buffers of the
    qualifying count plus one float strip; the report, with every pair
    qualifying, within its log-ratio buffer of n (n - 1) / 2 floats plus four
    float strips, where the whole body holds d_hat and one more n x n float."""
    n = GUARD_N
    d = random_hollow(np.random.default_rng(n), n)
    if case == "report":
        emb = free_embedding(n, 20, [1] * 20, seed=n)
        return report, whole_report, (np.abs(d), emb), 8 * (n * (n - 1) // 2 + 4 * BLOCK * n)
    if case == "check_symmetric":
        return check_symmetric, whole_check_symmetric, (d,), n * n
    if case == "check_dissimilarity":
        return check_dissimilarity, whole_check_dissimilarity, (d,), n * n
    if case == "negativity_stats":
        return negativity_stats, whole_negativity_stats, (d, [1, -1]), n * n
    if case == "distortion, 11 pairs":
        pair, count = few_pairs(n, 11, seed=1), 11
    else:
        pair, count = (np.abs(d) + 1.0, np.abs(d) + 0.5), n * (n - 1) // 2
        np.fill_diagonal(pair[0], 0.0)
    assert np.count_nonzero(np.triu((pair[0] > 0.0) & (pair[1] > 0.0), 1)) == count
    return (avg_geometric_distortion, whole_avg_geometric_distortion, pair,
            2 * 8 * count + 8 * BLOCK * n)


GUARD_CASES = ["check_symmetric", "check_dissimilarity", "negativity_stats",
               "distortion, 11 pairs", "report", "distortion, all pairs"]


@pytest.mark.parametrize("case", GUARD_CASES)
def test_strip_functions_stay_within_their_memory_bound(case):
    strip_fn, _, args, bound = guard_case(case)
    assert traced_peak(strip_fn, *args) < bound


def test_report_keeps_an_eighth_of_the_pairs_at_most():
    # nearly every pair qualifies; the bracket keeps a few hundredths of them where
    # the buffer path held all n (n - 1) / 2 log-ratios
    n = 1000
    d, emb = ball_embedding(n, seed=0)
    pairs = n * (n - 1) // 2
    qualifying = np.count_nonzero(np.triu((d > 0.0) & (reconstruct(emb) > 0.0), 1))
    assert qualifying > 0.99 * pairs
    assert traced_peak(report, d, emb) < 8 * (4 * BLOCK * n + pairs // 8)


def test_landmark_placement_holds_no_m_by_n_array():
    # the placement takes the landmarks' rows BLOCK columns at a time; the whole rows
    # and their centred copy were two m x n arrays beside the k x n output
    n, m, k = 1000, 129, 5
    d = gen_euclidean_ball(n, seed=1)
    assert traced_peak(landmark.embed_landmark, d, m, k, "neuc", 1) < 8 * (k * n + m * n)


@pytest.mark.parametrize("check", [check_symmetric, check_dissimilarity],
                         ids=["check_symmetric", "check_dissimilarity"])
def test_input_checks_hold_one_tile_pair_at_any_n(check):
    # a valid input takes the tile walk alone, whose temporaries do not grow with n;
    # a strip of BLOCK rows against its column strip held BLOCK n bools and more
    small, large = (traced_peak(check, random_hollow(np.random.default_rng(n), n))
                    for n in (GUARD_N, 3 * GUARD_N))
    assert abs(large - small) <= 4096
    assert large < BLOCK * 3 * GUARD_N


# with every pair qualifying, the two float buffers dominate and the whole
# body's n x n masks fit the distortion's bound
@pytest.mark.parametrize("case", GUARD_CASES[:-1])
def test_the_memory_bound_fails_the_whole_matrix_bodies(case):
    _, whole_fn, args, bound = guard_case(case)
    assert traced_peak(whole_fn, *args) >= bound


# a failing check names its first failure from the strip that finds it, with no
# whole-array failure scan: below one n x n bool where the parent's scans held several
def failing_peak(fn, *args):
    """(peak traced bytes, message) of fn(*args), which must raise ValueError."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            fn(*args)
        return tracemalloc.get_traced_memory()[1], str(info.value)
    finally:
        tracemalloc.stop()


def failing_case(case):
    """(check, the whole-matrix body it must match, its input) at n = GUARD_N."""
    n = GUARD_N
    if case == "asymmetric":
        m = np.random.default_rng(n).normal(size=(n, n))
        np.fill_diagonal(m, 0.0)
        return check_symmetric, whole_check_symmetric, m
    return check_dissimilarity, whole_check_dissimilarity, np.full((n, n), np.nan)


@pytest.mark.parametrize("case", ["asymmetric", "NaN-filled"])
def test_failing_checks_stay_within_their_memory_bound(case):
    check, whole, m = failing_case(case)
    want = symmetry_message(whole, m)
    peak, message = failing_peak(check, m)
    assert message == want
    assert peak < GUARD_N * GUARD_N


def test_perturb_missing_names_the_first_pair_among_many():
    # two coordinates kept with probability 0.3: most pairs share none; the shared
    # counts stay the one n x n array, with no mask or index list of the failures
    n, keep_prob, seed = GUARD_N, 0.3, 1
    p = np.random.default_rng(n).normal(size=(n, 2))
    mask = (np.random.Generator(np.random.Philox(seed)).uniform(size=p.shape)
            < keep_prob).astype(np.float64)
    shared = mask @ mask.T
    np.fill_diagonal(shared, 1.0)
    pairs = np.argwhere(shared == 0.0)
    assert len(pairs) > n * n // 2
    i, j = pairs[0]
    peak, message = failing_peak(perturb_missing, p, keep_prob, seed)
    assert message == f"points {i} and {j} share no surviving coordinate"
    assert peak < 9 * n * n  # the float counts and one n x n bool
