"""Dense symmetric-matrix primitives.

Input validation, double centering and symmetric eigendecomposition, used
by every embedding routine in this package.  All matrices are plain float64
numpy arrays; dissimilarity matrices are symmetric with an exactly zero
diagonal ("hollow") and may contain negative entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


BLOCK = 128  # row strip of the n x n checks, constructions and pair metrics


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square float64 array, copying only if needed."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def _check_sigma(sigma) -> float:
    sigma = float(sigma)
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return sigma


def check_symmetric(m: np.ndarray, name: str = "matrix") -> None:
    """Require exact (bitwise) symmetry; our constructors guarantee it.

    Compares each strip of ``BLOCK`` rows from the diagonal on with the
    matching column strip, so a symmetric m costs no n x n temporary; a NaN
    anywhere fails.  Only a failing m is compared whole, to name its first
    asymmetric entry in row-major order.
    """
    if all(np.array_equal(m[i0:i0 + BLOCK, i0:], m[i0:, i0:i0 + BLOCK].T)
           for i0 in range(0, m.shape[0], BLOCK)):
        return
    i, j = (int(v) for v in np.argwhere(m != m.T)[0])
    raise ValueError(
        f"{name} is not symmetric: entry ({i},{j})={float(m[i, j])} "
        f"but ({j},{i})={float(m[j, i])}"
    )


def check_dissimilarity(d, name: str = "dissimilarity matrix") -> np.ndarray:
    """Validate a finite hollow symmetric matrix and return it as float64."""
    d = as_square_matrix(d, name)
    if not all(np.isfinite(d[i0:i0 + BLOCK]).all() for i0 in range(0, d.shape[0], BLOCK)):
        i, j = (int(v) for v in np.argwhere(~np.isfinite(d))[0])
        raise ValueError(f"{name} has a non-finite entry: ({i},{j}) is {float(d[i, j])}")
    check_symmetric(d, name)
    diag = np.diagonal(d)
    if np.any(diag != 0.0):
        i = int(np.flatnonzero(diag != 0.0)[0])
        raise ValueError(f"{name} is not hollow: diagonal entry {i} is {float(diag[i])}")
    return d


def mirror_upper_inplace(a: np.ndarray) -> np.ndarray:
    """Mirror a's upper triangle (diagonal kept) down in place, one block of rows at
    a time, each entry ``+ 0`` so that -0.0 reads +0.0; returns a."""
    for i0 in range(0, a.shape[0], BLOCK):
        i1 = i0 + BLOCK
        a[i0:i1, i0:] += 0
        tile = a[i0:i1, i0:i1]
        np.copyto(tile, tile.T, where=np.tri(*tile.shape, -1, dtype=bool))
        a[i1:, i0:i1] = a[i0:i1, i1:].T
    return a


def sum_minus_twice(g: np.ndarray, pair_sum) -> np.ndarray:
    """Hollow symmetric pair_sum - 2 g, written over g: ``pair_sum(i0, i1)`` gives rows
    i0:i1 of the sum from column i0 on, the upper part that the mirror reads."""
    for i0 in range(0, g.shape[0], BLOCK):
        rows = g[i0:i0 + BLOCK, i0:]
        rows *= 2.0
        np.subtract(pair_sum(i0, i0 + BLOCK), rows, out=rows)
    np.fill_diagonal(g, 0.0)
    return mirror_upper_inplace(g)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues sorted descending with paired orthonormal eigenvectors.

    Column ``eigenvectors[:, i]`` belongs to ``eigenvalues[i]``.
    ``eigenvectors`` is None for a values-only solve.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    @property
    def n(self) -> int:
        return int(self.eigenvalues.shape[0])


def double_center(d, name: str = "dissimilarity matrix") -> np.ndarray:
    """Centered Gram matrix of a dissimilarity matrix.

    Computes B = -C d C / 2 with C = I - (1/n) 11^T.  The result is exactly
    symmetric and every row sums to zero up to rounding.

    Parameters
    ----------
    d : (n, n) array
        Hollow symmetric dissimilarity matrix (negative entries allowed).
    name : str
        What validation errors call the input.

    Raises
    ------
    ValueError
        If the input is not square, not finite, not symmetric, or not hollow.
    FloatingPointError
        If the centering overflows (entries too close to the float64 limit).
    """
    d = check_dissimilarity(d, name)
    try:
        with np.errstate(over="raise"):
            row = d.mean(axis=1, keepdims=True)
            b = np.subtract(d, row, order="C")
            b -= row.T
            b += d.mean()
            b *= -0.5
    except FloatingPointError:
        raise FloatingPointError("double centering overflowed; rescale the input") from None
    # the two mean subtractions round differently across the diagonal
    return mirror_upper_inplace(b)


def eig_sym(b, vectors: bool = True) -> SpectralDecomposition:
    """Symmetric eigendecomposition, eigenvalues descending.

    With ``vectors=False`` only the eigenvalues are computed
    (``np.linalg.eigvalsh``, about half the time of the full solve) and
    ``eigenvectors`` is None.  The commands that use the spectrum alone
    solve that way: ``select`` and ``rmt``; ``embed``, ``sweep`` and
    ``landmark`` need the eigenvectors.  Checks symmetry, then ``_eig_lower``.

    Deterministic for a given input; the solver's ascending output is
    reversed, so ties come out in reverse solver order.

    Raises
    ------
    ValueError
        If the input is not symmetric.
    numpy.linalg.LinAlgError
        If the eigenvalue iteration fails to converge.
    """
    b = as_square_matrix(b)
    check_symmetric(b)
    return _eig_lower(b, vectors)


def _eig_lower(b: np.ndarray, vectors: bool = True) -> SpectralDecomposition:
    """The one solver call, unchecked; it reads b's lower triangle alone (``UPLO='L'``)."""
    lam, u = np.linalg.eigh(b) if vectors else (np.linalg.eigvalsh(b), None)
    return SpectralDecomposition(
        eigenvalues=np.ascontiguousarray(lam[::-1]),
        eigenvectors=None if u is None else np.ascontiguousarray(u[:, ::-1]),
    )
