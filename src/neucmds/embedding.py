"""Signed-spectral embedding pipeline.

Center the dissimilarity matrix, decompose, select k eigenvalues, and build
real coordinates with one sign per axis.  The reconstruction evaluates the
signature bilinear form, so negative output dissimilarities are possible and
are reported rather than clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    SpectralDecomposition,
    as_square_matrix,
    double_center,
    eig_sym,
    sum_minus_twice,
)
from .metrics import (
    StressReport,
    avg_geometric_distortion,
    decompose,
    negativity_stats,
    scaled_additive_error,
    stress,
)
from .selection import METHODS, NEUC, _check_k, normalize_method, select


@dataclass(frozen=True)
class Embedding:
    """k-axis signed embedding of n points.

    ``coords[l, i]`` is the l-th coordinate of point i; axes are ordered by
    descending |axis value|.  ``signature[l]`` is +1 or -1 and matches the
    sign of ``axis_values[l]`` (zero axes carry +1 and all-zero coordinates).
    ``axis_indices[l]`` and the exact stress split ``split`` = (c1, c2, c3)
    refer to the decomposition the embedding was built from; ``split`` is None
    without one (a landmark or hand-built embedding).
    """

    coords: np.ndarray
    signature: np.ndarray
    axis_values: np.ndarray
    axis_indices: np.ndarray
    split: tuple[float, float, float] | None = None

    @property
    def n(self) -> int:
        return int(self.coords.shape[1])

    @property
    def k(self) -> int:
        return int(self.coords.shape[0])


def embed_from_decomposition(dec: SpectralDecomposition, k: int, method: str) -> Embedding:
    """Build an embedding and its split from a decomposition with eigenvectors."""
    sel = select(dec.eigenvalues, k, method)
    # the split first (it rejects a values-only dec): its n x n temporary is
    # freed before the coordinates are allocated
    full = np.zeros(dec.n)
    full[sel.chosen] = sel.values
    split = decompose(dec.eigenvalues, dec.eigenvectors, full)
    # descending |value|, magnitude ties by ascending eigenvalue index so the
    # axis order does not depend on the selector's pick order
    order = np.lexsort((sel.chosen, -np.abs(sel.values)))
    axis_values = sel.values[order]
    axis_indices = sel.chosen[order]
    # one C-order gather: the layout of coords sets the reconstruct GEMM's rounding
    vecs = np.take(dec.eigenvectors, axis_indices, axis=1)
    # reproducible output: largest-magnitude entry of every eigenvector positive
    cols = np.arange(vecs.shape[1])
    flip = vecs[np.argmax(np.abs(vecs), axis=0), cols] < 0.0
    vecs[:, flip] *= -1.0
    signature = np.where(axis_values < 0.0, -1, 1).astype(np.int64)
    coords = np.sqrt(np.abs(axis_values))[:, None] * vecs.T
    return Embedding(coords, signature, axis_values, axis_indices, split)


def spectrum(d, k: int, name: str, vectors: bool = True) -> SpectralDecomposition:
    """Check d square and k against its order, then validate, double-center and
    decompose d (eigenvalues alone unless ``vectors``); ``name`` is what
    validation errors call the input."""
    d = as_square_matrix(d, name)
    _check_k(k, d.shape[0])  # before the eigensolve
    return eig_sym(double_center(d, name), vectors)


def embed(d, k: int, method: str = NEUC, name: str = "dissimilarity matrix") -> Embedding:
    """Full pipeline: ``spectrum``, selection, coordinates.

    Each axis carries its ``SelectionResult.values`` entry; a zero value gives
    a zero-filled axis.  Deterministic in (d, k, method).  ``name`` is what
    validation errors call the input.
    """
    return embed_from_decomposition(spectrum(d, k, name), k, method)


def reconstruct(emb: Embedding) -> np.ndarray:
    """Pairwise dissimilarities of an embedding under its signature form.

    Entry (i, j) is sum_l signature[l] * (coords[l,i] - coords[l,j])^2.  The
    output is exactly hollow and symmetric; entries may be negative.  It is
    built in place in the Gram product g = x^T S x: (g_ii + g_jj) - 2 g_ij,
    by ``linalg.sum_minus_twice``.
    """
    x = emb.coords
    g = x.T @ (emb.signature.astype(np.float64)[:, None] * x)
    y = np.diagonal(g).copy()
    return sum_minus_twice(g, lambda i0, i1: np.add.outer(y[i0:i1], y[i0:]))


def report(d, emb: Embedding) -> StressReport:
    """Error report of an embedding against the matrix d; c1, c2, c3 are ``emb.split``."""
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


@dataclass(frozen=True)
class SweepEntry:
    k: int
    method: str
    report: StressReport


def sweep(d, k_list, methods=METHODS, name: str = "dissimilarity matrix") -> list[SweepEntry]:
    """Stress reports over a (k, method) grid sharing one eigendecomposition.

    ``name`` is what validation errors call the input.
    """
    d = as_square_matrix(d, name)
    b = double_center(d, name)  # validates d before the methods and ks, eig_sym after them
    methods = [normalize_method(m) for m in methods]
    k_list = [_check_k(k, b.shape[0]) for k in k_list]
    dec = eig_sym(b)
    del b  # one n x n less while the reports run
    return [
        SweepEntry(k, m, report(d, embed_from_decomposition(dec, k, m)))
        for k in k_list
        for m in methods
    ]
