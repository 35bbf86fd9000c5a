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

from .linalg import SpectralDecomposition, check_dissimilarity, double_center, eig_sym
from .metrics import (
    StressReport,
    avg_geometric_distortion,
    decompose,
    negativity_stats,
    scaled_additive_error,
    stress,
)
from .selection import CMDS, NEUC, PLUS, SelectionResult, normalize_method, select

__all__ = [
    "Embedding",
    "SweepEntry",
    "embed",
    "embed_from_decomposition",
    "reconstruct",
    "report",
    "sweep",
]


@dataclass(frozen=True)
class Embedding:
    """k-axis signed embedding of n points.

    ``coords[l, i]`` is the l-th coordinate of point i; axes are ordered by
    descending |axis value|.  ``signature[l]`` is +1 or -1 and matches the
    sign of ``axis_values[l]`` (zero axes carry +1 and all-zero coordinates).
    ``axis_indices[l]`` is the position of axis l in the sorted eigenvalue
    vector of the decomposition the embedding was built from.
    """

    coords: np.ndarray
    signature: np.ndarray
    axis_values: np.ndarray
    axis_indices: np.ndarray
    selection: SelectionResult | None
    method: str

    @property
    def n(self) -> int:
        return int(self.coords.shape[1])

    @property
    def k(self) -> int:
        return int(self.coords.shape[0])

    def full_axis_values(self) -> np.ndarray:
        """Length-n axis-value vector, zero outside the selected set."""
        full = np.zeros(self.n, dtype=np.float64)
        full[self.axis_indices] = self.axis_values
        return full


def embed_from_decomposition(dec: SpectralDecomposition, k: int, method: str) -> Embedding:
    """Build an embedding from an existing decomposition (shared by sweeps)."""
    method = normalize_method(method)
    sel = select(dec.eigenvalues, k, method)
    lam_sel = dec.eigenvalues[sel.chosen]
    if method == PLUS:
        shift = float(np.sum(dec.eigenvalues[~sel.w])) / (1.0 + k)
        axis_values = lam_sel + shift
    elif method == CMDS:
        axis_values = np.maximum(lam_sel, 0.0)
    else:
        axis_values = lam_sel.copy()

    chosen = np.asarray(sel.chosen, dtype=np.intp)
    # descending |value|, magnitude ties by ascending eigenvalue index so the
    # axis order does not depend on the selector's pick order
    order = np.lexsort((chosen, -np.abs(axis_values)))
    axis_values = axis_values[order]
    axis_indices = chosen[order]
    vecs = dec.eigenvectors[:, axis_indices].copy()
    # reproducible output: largest-magnitude entry of every eigenvector positive
    cols = np.arange(vecs.shape[1])
    flip = vecs[np.argmax(np.abs(vecs), axis=0), cols] < 0.0
    vecs[:, flip] *= -1.0
    signature = np.where(axis_values < 0.0, -1, 1).astype(np.int64)
    coords = np.sqrt(np.abs(axis_values))[:, None] * vecs.T
    return Embedding(
        coords=coords,
        signature=signature,
        axis_values=axis_values,
        axis_indices=axis_indices,
        selection=sel,
        method=method,
    )


def embed(d, k: int, method: str = NEUC) -> Embedding:
    """Full pipeline: double centering, eigendecomposition, selection, coordinates.

    For "neuc" the selected eigenvalues are used as-is; for "neuc-plus" each is
    shifted by (sum of dropped eigenvalues)/(1+k); for "cmds" non-positive
    selected values are clamped to zero-filled axes.  Deterministic in
    (d, k, method).
    """
    d = check_dissimilarity(d)
    dec = eig_sym(double_center(d))
    return embed_from_decomposition(dec, k, method)


def reconstruct(emb: Embedding) -> np.ndarray:
    """Pairwise dissimilarities of an embedding under its signature form.

    Entry (i, j) is sum_l signature[l] * (coords[l,i] - coords[l,j])^2.  The
    output is exactly hollow and symmetric; entries may be negative.
    """
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


def report(d, emb: Embedding, dec: SpectralDecomposition | None = None) -> StressReport:
    """Error report of an embedding against the matrix it approximates.

    ``dec`` is the decomposition the embedding was built from; only with it
    is the exact split c1 + c2 + c3 defined.  Without it (a landmark
    embedding, whose spectrum is the landmark submatrix's) the three fields
    are None.
    """
    d_hat = reconstruct(emb)
    ssq = stress(d, d_hat)
    c1 = c2 = c3 = None
    if dec is not None:
        c1, c2, c3 = decompose(
            dec.eigenvalues, dec.eigenvectors, emb.selection.w, emb.full_axis_values()
        )
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


def sweep(d, k_list, methods=(CMDS, NEUC, PLUS)) -> list[SweepEntry]:
    """Stress reports over a (k, method) grid sharing one eigendecomposition."""
    d = check_dissimilarity(d)
    methods = [normalize_method(m) for m in methods]
    dec = eig_sym(double_center(d))
    return [
        SweepEntry(int(k), m, report(d, embed_from_decomposition(dec, int(k), m), dec))
        for k in k_list
        for m in methods
    ]
