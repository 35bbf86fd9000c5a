"""Dense symmetric-matrix primitives.

Input validation, double centering and symmetric eigendecomposition, used
by every embedding routine in this package.  All matrices are plain float64
numpy arrays; dissimilarity matrices are symmetric with an exactly zero
diagonal ("hollow") and may contain negative entries.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np


# row strip of the n x n constructions and pair metrics, and the side of the
# tiles the input checks compare with their mirrors
BLOCK = 128


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square float64 array, copying only if needed."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def _require_integer(v, what: str) -> None:
    """Require v to be an integer: 2, 2.0 and numpy integers are; 2.5, "2" and nan are not.
    The range is the caller's to check, with v as it came."""
    try:
        integral = int(v) == v
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{what} must be an integer, got {v!r}")


def _check_finite(what: str, *sums) -> None:
    """Require every sum to be finite: BLAS sums and Python's float arithmetic
    overflow to inf where numpy's error state cannot see it."""
    if not all(map(math.isfinite, sums)):
        raise FloatingPointError(f"{what} overflowed; rescale the input")


def _check_sigma(sigma) -> float:
    sigma = float(sigma)
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return sigma


def _tile_pairs(m: np.ndarray):
    """Each upper tile ``m[i0:i0+BLOCK, j0:j0+BLOCK]``, j0 >= i0, with its mirror
    tile ``m[j0:j0+BLOCK, i0:i0+BLOCK]``.  The two fit in cache, where a strip
    of rows compared with its column strip reads across all n rows."""
    n = m.shape[0]
    for i0 in range(0, n, BLOCK):
        for j0 in range(i0, n, BLOCK):
            yield m[i0:i0 + BLOCK, j0:j0 + BLOCK], m[j0:j0 + BLOCK, i0:i0 + BLOCK]


def check_symmetric(m: np.ndarray, name: str = "matrix") -> None:
    """Require exact (bitwise) symmetry; our constructors guarantee it.

    Compares each upper tile with its mirror (``_tile_pairs``), so no call
    builds more than one tile's temporary; a NaN anywhere fails.  Only a
    failed walk reads strips of ``BLOCK`` rows from the diagonal on, each
    compared with the matching column strip: the first failing strip names
    m's first asymmetric entry in row-major order, which lies on or above the
    diagonal.
    """
    if all((u == l.T).all() for u, l in _tile_pairs(m)):
        return
    for i0 in range(0, m.shape[0], BLOCK):
        same = m[i0:i0 + BLOCK, i0:] == m[i0:, i0:i0 + BLOCK].T
        if not same.all():
            i, j = (i0 + int(v) for v in divmod(int(same.argmin()), same.shape[1]))
            raise ValueError(
                f"{name} is not symmetric: entry ({i},{j})={float(m[i, j])} "
                f"but ({j},{i})={float(m[j, i])}"
            )


def check_dissimilarity(d, name: str = "dissimilarity matrix") -> np.ndarray:
    """Validate a finite hollow symmetric matrix and return it as float64.

    One walk of ``_tile_pairs`` tests each upper tile for finiteness and for
    equality with its mirror, which carries finiteness across (a NaN fails
    ``==``); then the diagonal must be zero.  Only if a test fails do strips
    of ``BLOCK`` rows name the first failure: a non-finite entry, in
    row-major order, then ``check_symmetric``'s asymmetric one, then a nonzero
    diagonal entry.
    """
    d = as_square_matrix(d, name)
    if (all(np.isfinite(u).all() and (u == l.T).all() for u, l in _tile_pairs(d))
            and not np.diagonal(d).any()):
        return d
    for i0 in range(0, d.shape[0], BLOCK):
        finite = np.isfinite(d[i0:i0 + BLOCK])
        if not finite.all():
            i, j = divmod(i0 * d.shape[1] + int(finite.argmin()), d.shape[1])
            raise ValueError(f"{name} has a non-finite entry: ({i},{j}) is {float(d[i, j])}")
    check_symmetric(d, name)
    i = int(np.flatnonzero(np.diagonal(d))[0])
    raise ValueError(f"{name} is not hollow: diagonal entry {i} is {float(d[i, i])}")


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
    ``eigenvectors`` is None for a values-only solve.  A solve leaves it in
    Fortran order, LAPACK's, in the buffer it solved, so ``eigenvectors.T``
    holds one eigenvector per contiguous row, the rows that coordinates and the
    stress sums gather; a C-ordered array (as built by hand) serves too, only
    slower.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    @property
    def n(self) -> int:
        return int(self.eigenvalues.shape[0])


def double_center(d, name: str = "dissimilarity matrix", overwrite: bool = False) -> np.ndarray:
    """Centered Gram matrix of a dissimilarity matrix.

    Computes B = -C d C / 2 with C = I - (1/n) 11^T.  The result is exactly
    symmetric and every row sums to zero up to rounding.

    Parameters
    ----------
    d : (n, n) array
        Hollow symmetric dissimilarity matrix (negative entries allowed).
    name : str
        What validation errors call the input.
    overwrite : bool
        Write B into d itself where d is a writable float64 array, as scipy's
        ``overwrite_a``; otherwise into a fresh C-ordered array.  The row
        means and the mean are taken before the first write, so B is bitwise
        the same either way.  Only a caller that never reads d again sets it:
        the ``select`` and ``sweep`` commands.  A d that fails validation is
        left untouched; one whose centering overflows may be left half written.

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
            mu = d.mean()
            b = np.subtract(d, row, out=d if overwrite and d.flags.writeable else None,
                            order="C")
            b -= row.T
            b += mu
            b *= -0.5
    except FloatingPointError:
        raise FloatingPointError("double centering overflowed; rescale the input") from None
    # the two mean subtractions round differently across the diagonal
    return mirror_upper_inplace(b)


def eig_sym(b, vectors: bool = True) -> SpectralDecomposition:
    """Symmetric eigendecomposition, eigenvalues descending.

    With ``vectors=False`` only the eigenvalues are computed (LAPACK's
    ``dsyevd`` without vectors, about half the time of the full solve) and
    ``eigenvectors`` is None.  The commands that use the spectrum alone
    solve that way: ``select`` and ``rmt``; ``embed``, ``sweep`` and
    ``landmark`` need the eigenvectors.  Checks symmetry, then solves a
    Fortran-ordered copy of b with ``_eig_lower``: the caller's array is left
    as it was, and its lower triangle is read, as ``np.linalg.eigh`` reads it.

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
    return _eig_lower(np.array(b, order="F"), vectors)


def _bind_dsyevd():
    """LAPACK's ``dsyevd`` from the OpenBLAS that ``np.linalg.eigh`` itself calls,
    found through numpy's linalg extension: the ILP64 ``scipy_openblas64_`` build of
    numpy >= 2 wheels, with 64-bit integers and the lengths of JOBZ and UPLO last.
    None where numpy links another LAPACK."""
    try:
        from numpy.linalg import _umath_linalg
        fn = ctypes.CDLL(_umath_linalg.__file__).scipy_dsyevd_64_
    except (ImportError, AttributeError, OSError):
        return None
    fn.argtypes = [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 9 + [ctypes.c_size_t] * 2
    fn.restype = None
    return fn


_DSYEVD = _bind_dsyevd()


def _dsyevd(a: np.ndarray, vectors: bool) -> np.ndarray:
    """Eigenvalues, ascending, of the writable Fortran-ordered symmetric a from its
    lower triangle, which the solve overwrites; with ``vectors``, a then holds the
    eigenvectors, one per column.  The workspace is what an ``lwork = -1`` query
    asks for, as numpy sizes it: a shorter one can change the bits."""
    n, info = ctypes.c_int64(a.shape[0]), ctypes.c_int64()
    lda = ctypes.c_int64(max(a.shape[0], 1))
    w = np.empty(a.shape[0])

    def call(work, iwork, lwork, liwork):
        _DSYEVD(b"V" if vectors else b"N", b"L", ctypes.byref(n), a.ctypes.data,
                ctypes.byref(lda), w.ctypes.data, work.ctypes.data,
                ctypes.byref(ctypes.c_int64(lwork)), iwork.ctypes.data,
                ctypes.byref(ctypes.c_int64(liwork)), ctypes.byref(info), 1, 1)

    work, iwork = np.empty(1), np.empty(1, np.int64)
    call(work, iwork, -1, -1)
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), np.empty(liwork, np.int64), lwork, liwork)
    if info.value:  # > 0: no convergence; < 0 names a bad argument, never passed here
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


def _reverse_columns(u: np.ndarray) -> None:
    """Reverse u's columns in place: ``BLOCK`` columns at a time trade places with
    their mirrors through one n x ``BLOCK`` buffer."""
    n = u.shape[1]
    buf = np.empty((u.shape[0], min(BLOCK, n // 2)), order="F")
    for j0 in range(0, n // 2, BLOCK):
        j1 = min(j0 + BLOCK, n // 2)
        left, right, tmp = u[:, j0:j1], u[:, n - j1:n - j0][:, ::-1], buf[:, :j1 - j0]
        np.copyto(tmp, left)
        np.copyto(left, right)
        np.copyto(right, tmp)


def _eig_lower(b: np.ndarray, vectors: bool = True) -> SpectralDecomposition:
    """The one solver call, unchecked, in place on a buffer the package owns.

    LAPACK reads the lower triangle of a Fortran-ordered matrix (``UPLO='L'``, as
    numpy passes it).  A Fortran-ordered b (``rmt``'s ``m.T``, ``eig_sym``'s copy)
    is passed itself, its lower triangle read; a C-ordered b (``spectrum``'s B) is
    passed as b.T, its upper triangle read, which must equal the lower bitwise, as
    a mirrored B does.  The solve overwrites b, and with ``vectors`` the returned
    eigenvectors are a Fortran-ordered view of it.  Any other b (strided, read-only
    or not float64) is copied first.
    Where numpy's LAPACK does not export ``dsyevd`` (``_DSYEVD`` is None), this is
    ``np.linalg.eigh`` or ``eigvalsh`` on b, bitwise the same, b left unchanged.
    """
    if _DSYEVD is None:
        lam, u = np.linalg.eigh(b) if vectors else (np.linalg.eigvalsh(b), None)
        return SpectralDecomposition(
            eigenvalues=np.ascontiguousarray(lam[::-1]),
            eigenvectors=None if u is None else np.asfortranarray(u[:, ::-1]),
        )
    a = b if b.flags.f_contiguous else b.T
    if not (a.flags.f_contiguous and a.flags.writeable and a.dtype == np.float64):
        a = np.array(b, dtype=np.float64, order="F")
    lam = _dsyevd(a, vectors)
    if vectors:
        _reverse_columns(a)
    return SpectralDecomposition(eigenvalues=lam[::-1].copy(), eigenvectors=a if vectors else None)
