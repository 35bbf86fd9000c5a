"""Signed-spectral embedding pipeline.

Center the dissimilarity matrix, decompose, select k eigenvalues, and build
real coordinates with one sign per axis.  The reconstruction evaluates the
signature bilinear form, so negative output dissimilarities are possible and
are reported rather than clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SpectralDecomposition, _eig_lower, double_center, sum_minus_twice
# report, the one report builder, is also importable from here, beside embed
from .metrics import StressReport, decompose, report, spectral_reports
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
    # the split first: it rejects a values-only dec
    full = np.zeros(dec.n)
    full[sel.chosen] = sel.values
    split = decompose(dec.eigenvalues, dec.eigenvectors, full)
    # descending |value|, magnitude ties by ascending eigenvalue index so the
    # axis order does not depend on the selector's pick order
    order = np.lexsort((sel.chosen, -np.abs(sel.values)))
    axis_values = sel.values[order]
    axis_indices = sel.chosen[order]
    # one gather of eigenvector rows, C-ordered for either eigenvector layout:
    # the layout of coords sets the reconstruct GEMM's rounding
    vecs = dec.eigenvectors.T[axis_indices]
    # reproducible output: largest-magnitude entry of every eigenvector positive
    flip = vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs), axis=1)] < 0.0
    vecs[flip] *= -1.0
    signature = np.where(axis_values < 0.0, -1, 1).astype(np.int64)
    coords = np.sqrt(np.abs(axis_values))[:, None] * vecs
    return Embedding(coords, signature, axis_values, axis_indices, split)


def spectrum(d, grid, name: str = "dissimilarity matrix", vectors: bool = True,
             overwrite: bool = False):
    """The one way into the eigensolve.  Validate and double-center d, check each
    (k, method) pair of ``grid`` in turn, its method and then its k against the
    order of d, and only then solve its mirrored B (eigenvalues alone unless ``vectors``).
    ``grid`` is read once, so a bad pair fails before any later pair is drawn.
    Returns the decomposition and the checked grid, each k an int and each
    method normalized.  ``name`` is what validation errors call the input.
    ``overwrite`` writes B into d itself, as ``double_center`` does: the
    ``select`` and ``sweep`` commands set it, as they never read d again; a
    caller that does keeps the default."""
    b = double_center(d, name, overwrite)
    checked = []
    for k, method in grid:
        method = normalize_method(method)
        checked.append((_check_k(k, b.shape[0]), method))
    return _eig_lower(b, vectors), checked


def embed(d, k: int, method: str = NEUC, name: str = "dissimilarity matrix") -> Embedding:
    """Full pipeline: ``spectrum``, selection, coordinates.

    Each axis carries its ``SelectionResult.values`` entry; a zero value gives
    a zero-filled axis.  Deterministic in (d, k, method).  ``name`` is what
    validation errors call the input.
    """
    dec, [(k, method)] = spectrum(d, [(k, method)], name)
    return embed_from_decomposition(dec, k, method)


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


@dataclass(frozen=True)
class SweepEntry:
    k: int
    method: str
    report: StressReport


def sweep(d, k_list, methods=METHODS, name: str = "dissimilarity matrix",
          overwrite: bool = False) -> list[SweepEntry]:
    """Stress reports over a (k, method) grid sharing one eigendecomposition.

    Every row comes from the spectrum alone (``metrics.spectral_reports``),
    with no d_hat; ``avg_distortion`` and ``neg_dissim_count`` are None on
    every row.  ``name`` is what validation errors call the input.
    ``overwrite`` lets ``spectrum`` write B into d itself, for a caller that
    never reads d again; the default leaves d unchanged.
    """
    methods = list(methods)
    dec, grid = spectrum(d, ((k, m) for k in k_list for m in methods), name, overwrite=overwrite)
    return [SweepEntry(k, m, rep) for (k, m), rep in zip(grid, spectral_reports(dec, grid))]
