"""The lean report path against the reference bodies it replaced.

``reconstruct`` and the metrics behind ``report`` build at most one n x n
array each.  The reference functions below are the straightforward
versions they replaced; every result must match them bitwise, on
symmetric, asymmetric and negative inputs alike.
"""

import collections
import math

import numpy as np
import pytest

from neucmds import embedding, landmark, linalg
from neucmds.embedding import Embedding, embed_from_decomposition, reconstruct, report
from neucmds.linalg import BLOCK, double_center, eig_sym
from neucmds.metrics import (
    avg_geometric_distortion,
    negativity_stats,
    scaled_additive_error,
    stress,
)
from neucmds.selection import METHODS

from conftest import random_hollow

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


def empty_embedding(n):
    return Embedding(
        coords=np.zeros((0, n)),
        signature=np.zeros(0, dtype=np.int64),
        axis_values=np.zeros(0),
        axis_indices=np.zeros(0, dtype=np.intp),
        selection=None,
        method="neuc",
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
            selection=None,
            method="neuc",
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
    # fused or inlined layer would read zero there
    d = random_hollow(np.random.default_rng(5), 12)
    dec = eig_sym(double_center(d))
    emb = embed_from_decomposition(dec, 4, "neuc-plus")
    calls = count_calls(monkeypatch, embedding, REPORT_LAYERS)
    report(d, emb, dec)
    assert calls == {name: 1 for name in REPORT_LAYERS}
    calls.clear()
    report(d, emb)
    assert calls == {name: 1 for name in REPORT_LAYERS if name != "decompose"}


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
