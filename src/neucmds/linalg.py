"""Dense symmetric-matrix primitives.

Double centering, symmetric eigendecomposition and Gram/dissimilarity
conversions used by every embedding routine in this package.  All matrices
are plain float64 numpy arrays; dissimilarity matrices are symmetric with an
exactly zero diagonal ("hollow") and may contain negative entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances the decomposition invariants are tested against.
ORTHONORMALITY_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-9
CENTERING_TOL = 1e-10  # scaled by n * max|D| in the row-sum check


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square float64 array, copying only if needed."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def check_symmetric(m: np.ndarray, name: str = "matrix") -> None:
    """Require exact (bitwise) symmetry; our constructors guarantee it."""
    if not np.array_equal(m, m.T):
        bad = np.argwhere(m != m.T)
        i, j = (int(v) for v in bad[0])
        raise ValueError(
            f"{name} is not symmetric: entry ({i},{j})={float(m[i, j])} "
            f"but ({j},{i})={float(m[j, i])}"
        )


def check_dissimilarity(d, name: str = "dissimilarity matrix") -> np.ndarray:
    """Validate a finite hollow symmetric matrix and return it as float64."""
    d = as_square_matrix(d, name)
    if not np.isfinite(d).all():
        i, j = (int(v) for v in np.argwhere(~np.isfinite(d))[0])
        raise ValueError(f"{name} has a non-finite entry: ({i},{j}) is {float(d[i, j])}")
    check_symmetric(d, name)
    diag = np.diagonal(d)
    if np.any(diag != 0.0):
        i = int(np.flatnonzero(diag != 0.0)[0])
        raise ValueError(f"{name} is not hollow: diagonal entry {i} is {float(diag[i])}")
    return d


def mirror_upper(m: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy of m: upper triangle (diagonal kept) mirrored down."""
    upper = np.triu(m)
    return upper + np.triu(m, 1).T


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues sorted descending with paired orthonormal eigenvectors.

    Column ``eigenvectors[:, i]`` belongs to ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return int(self.eigenvalues.shape[0])


def double_center(d) -> np.ndarray:
    """Centered Gram matrix of a dissimilarity matrix.

    Computes B = -C d C / 2 with C = I - (1/n) 11^T.  The result is exactly
    symmetric and every row sums to zero up to rounding.

    Parameters
    ----------
    d : (n, n) array
        Hollow symmetric dissimilarity matrix (negative entries allowed).

    Raises
    ------
    ValueError
        If the input is not square, not symmetric, or not hollow.
    """
    d = check_dissimilarity(d)
    row = d.mean(axis=1, keepdims=True)
    b = -0.5 * (d - row - row.T + d.mean())
    # the two mean subtractions round differently across the diagonal
    return mirror_upper(b)


def eig_sym(b) -> SpectralDecomposition:
    """Full symmetric eigendecomposition, eigenvalues descending.

    Deterministic for a given input; ties keep the solver's original order.

    Raises
    ------
    ValueError
        If the input is not symmetric.
    numpy.linalg.LinAlgError
        If the eigenvalue iteration fails to converge.
    """
    b = as_square_matrix(b)
    check_symmetric(b)
    lam, u = np.linalg.eigh(b)
    order = np.argsort(-lam, kind="stable")
    return SpectralDecomposition(
        eigenvalues=np.ascontiguousarray(lam[order]),
        eigenvectors=np.ascontiguousarray(u[:, order]),
    )


def gram_to_dissim(g) -> np.ndarray:
    """Squared-distance analog of a Gram matrix: m_ij = g_ii + g_jj - 2 g_ij.

    The output is exactly hollow and symmetric.  For a centered Gram matrix
    (zero row sums) this inverts :func:`double_center`.
    """
    g = as_square_matrix(g, "Gram matrix")
    check_symmetric(g, "Gram matrix")
    diag = np.diagonal(g)
    m = diag[:, None] + diag[None, :] - 2.0 * g
    np.fill_diagonal(m, 0.0)
    return mirror_upper(m)
