"""Dense matrix primitives shared by the decompositions and bounds.

Everything operates on 2-D real or complex arrays in double precision.
Rank decisions follow one convention throughout: an explicit positive
caller tolerance wins, otherwise ``max(m, n) * eps * sigma_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas as _blas

from .exceptions import DomainError, MatrixFormatError, NumericalError

__all__ = [
    "SvdFactors",
    "frobenius_norm",
    "spectral_norm",
    "svd",
    "pinv",
    "psd_eigh",
    "psd_sqrt",
    "range_projector",
    "read_matrix",
    "write_matrix",
]

_EPS = float(np.finfo(np.float64).eps)
# Relative tolerance of the Hermitian and PSD checks on coefficients.
_HERMITIAN_RTOL = 1e-10


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return `M` as a finite 2-D float64 or complex128 array."""
    M = np.asarray(M)
    if M.ndim != 2 or M.size == 0:
        raise DomainError(f"{name} must be a nonempty 2-D array, got shape {M.shape}")
    if not np.issubdtype(M.dtype, np.number):
        raise DomainError(f"{name} must be numeric, got dtype {M.dtype}")
    M = M.astype(np.complex128 if np.iscomplexobj(M) else np.float64, copy=False)
    if not np.isfinite(M).all():
        raise DomainError(f"{name} contains non-finite entries")
    return M


def require_square(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = as_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise DomainError(f"{name} must be square, got shape {M.shape}")
    return M


def require_hermitian(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check ``||M - M*||_F <= 1e-10 * ||M||_F`` and return the symmetrized matrix."""
    M = require_square(M, name)
    if frobenius_norm(M - M.conj().T) > _HERMITIAN_RTOL * frobenius_norm(M):
        raise DomainError(
            f"{name} is not Hermitian within relative tolerance {_HERMITIAN_RTOL:g}"
        )
    return (M + M.conj().T) / 2


def rank_cutoff(shape: tuple[int, int], largest: float, tol: float = 0.0) -> float:
    """Threshold below which singular values or PSD eigenvalues count as zero."""
    if not tol >= 0:
        raise DomainError(f"tolerance must be nonnegative, got {tol}")
    if tol > 0:
        return tol
    return max(shape) * _EPS * largest


def frobenius_norm(M) -> float:
    """Frobenius norm of a matrix.

    Accumulated entry by entry with the scaled BLAS ``nrm2`` kernel rather
    than ``sqrt(sum(|m_ij|^2))``.  The sequential scaled accumulation cannot
    overflow and, unlike pairwise summation, rounds two rearrangements of
    the same multiset of entries identically, so bound formulas that agree
    in exact arithmetic stay consistent under comparison.  A NaN or inf
    entry raises `DomainError`; a norm beyond the largest double gives inf.
    """
    if not (
        isinstance(M, np.ndarray)
        and M.ndim == 2
        and M.size
        and M.dtype in (np.float64, np.complex128)
    ):
        M = as_matrix(M)
    norm = _nrm2(M)
    if not math.isfinite(norm):
        as_matrix(M)
    return norm


def _nrm2(M: np.ndarray) -> float:
    """:func:`frobenius_norm` of a float64 or complex128 array, unchecked."""
    v = np.ascontiguousarray(np.ravel(M))
    if np.iscomplexobj(v):
        return float(_blas.dznrm2(v))
    return float(_blas.dnrm2(v))


def _frobenius_norms(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix ``M[i]`` of a 3-D float64 or complex128
    stack.

    One call of the same ``nrm2`` kernel as :func:`frobenius_norm` per
    matrix, on the same entries in the same order, so each norm equals
    ``frobenius_norm(M[i])`` bit for bit.  :func:`frobenius_norm` does not
    go through this: it runs thousands of times per perturbation scenario,
    where the stack set-up would double its cost.
    """
    if M.ndim != 3 or M.dtype not in (np.float64, np.complex128):
        raise DomainError(
            f"expected a 3-D float64 or complex128 stack, got shape {M.shape} "
            f"and dtype {M.dtype}"
        )
    rows = np.ascontiguousarray(M).reshape(M.shape[0], -1)
    nrm2 = _blas.dznrm2 if np.iscomplexobj(rows) else _blas.dnrm2
    return np.fromiter(map(nrm2, rows), dtype=np.float64, count=rows.shape[0])


def spectral_norm(M) -> float:
    """Largest singular value of `M`."""
    M = as_matrix(M)
    try:
        s = np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed to converge") from exc
    return float(s[0])


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Full singular value decomposition ``M = P @ diag(sigma) @ Q*``.

    `P` is m x m unitary, `Q` is n x n unitary, `sigma` holds the
    min(m, n) singular values in nonincreasing order, and `rank` counts
    the singular values above the tolerance frozen at factorization time.
    """

    P: np.ndarray
    sigma: np.ndarray
    Q: np.ndarray
    rank: int


def svd(M, tol: float = 0.0) -> SvdFactors:
    """Full SVD with an explicit rank decision.

    Parameters
    ----------
    M : (m, n) array_like
        Matrix to factor.
    tol : float, optional
        Absolute threshold below which singular values count as zero.
        Zero selects ``max(m, n) * eps * sigma_max``.

    Returns
    -------
    SvdFactors
        Factors with ``P @ diag(sigma) @ Q* == M`` up to round-off and the
        rank frozen under `tol`.

    Raises
    ------
    DomainError
        If `M` is not a nonempty finite 2-D array or `tol` is negative or NaN.
    NumericalError
        If the underlying SVD iteration fails to converge.
    """
    M = as_matrix(M)
    try:
        P, sigma, Qh = np.linalg.svd(M, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed to converge") from exc
    largest = float(sigma[0]) if sigma.size else 0.0
    cutoff = rank_cutoff(M.shape, largest, tol)
    rank = int(np.count_nonzero(sigma > cutoff))
    return SvdFactors(P=P, sigma=sigma, Q=Qh.conj().T, rank=rank)


def pinv(M, tol: float = 0.0) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the SVD.

    Singular values at or below the rank threshold are dropped, not
    inverted, so the result is stable for rank-deficient input.  Satisfies
    the four Penrose identities to round-off.
    """
    M = as_matrix(M)
    f = svd(M, tol)
    r = f.rank
    if r == 0:
        return np.zeros((M.shape[1], M.shape[0]), dtype=M.dtype)
    return (f.Q[:, :r] / f.sigma[:r]) @ f.P[:, :r].conj().T


def psd_eigh(H, name: str = "H") -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, Q)`` of a Hermitian PSD matrix, `w` ascending.

    Raises
    ------
    DomainError
        If `H` is not square, not Hermitian (see :func:`require_hermitian`),
        or has an eigenvalue below ``-1e-10 * ||H||_2``.
    NumericalError
        If the eigensolver fails to converge.
    """
    H = require_hermitian(H, name)
    try:
        w, Q = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed to converge") from exc
    scale = float(np.abs(w).max())
    if w[0] < -_HERMITIAN_RTOL * scale:
        raise DomainError(
            f"{name} is not positive semidefinite: eigenvalue {w[0]:.3e} "
            f"below -{_HERMITIAN_RTOL:g} * ||{name}||_2"
        )
    return w, Q


def psd_sqrt(H) -> np.ndarray:
    """Hermitian PSD square root ``R`` with ``R @ R == H`` up to round-off.

    Negative eigenvalues that :func:`psd_eigh` accepts as round-off are
    clamped to zero; raises as :func:`psd_eigh`.
    """
    w, Q = psd_eigh(H, "H")
    R = (Q * np.sqrt(np.maximum(w, 0.0))) @ Q.conj().T
    return (R + R.conj().T) / 2


def range_projector(M, tol: float = 0.0) -> np.ndarray:
    """Orthogonal projector ``M @ pinv(M)`` onto the range of `M`."""
    M = as_matrix(M)
    return M @ pinv(M, tol)


def write_matrix(M, path) -> None:
    """Write a matrix as decimal text.

    The first line holds ``rows cols``; each following line holds one row
    as ``2 * cols`` numbers, the real and imaginary part of every entry.
    Values use the shortest decimal representation that round-trips to the
    same double, so write followed by read is exact.
    """
    M = as_matrix(M)
    rows, cols = M.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{rows} {cols}\n")
        for row in M:
            fh.write(" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row))
            fh.write("\n")


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`; returns complex128.

    Raises
    ------
    MatrixFormatError
        If the header or any row is malformed, a value is not a finite
        number, or the number of rows or columns does not match the header.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise MatrixFormatError(f"{path}: empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixFormatError(f"{path}: header must be 'rows cols', got {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: non-integer header {lines[0]!r}") from exc
    if rows <= 0 or cols <= 0:
        raise MatrixFormatError(f"{path}: dimensions must be positive, got {rows} x {cols}")
    if len(lines) - 1 != rows:
        raise MatrixFormatError(f"{path}: expected {rows} data rows, found {len(lines) - 1}")
    out = np.empty((rows, cols), dtype=np.complex128)
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != 2 * cols:
            raise MatrixFormatError(
                f"{path}: row {i + 1} has {len(parts)} values, expected {2 * cols}"
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise MatrixFormatError(f"{path}: row {i + 1} has a non-numeric value") from exc
        if not all(np.isfinite(vals)):
            raise MatrixFormatError(f"{path}: row {i + 1} has a non-finite value")
        out[i] = [complex(re, im) for re, im in zip(vals[::2], vals[1::2])]
    return out
