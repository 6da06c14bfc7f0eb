"""Dense matrix primitives shared by the decompositions and bounds.

Everything operates on 2-D real or complex arrays in double precision, or
on 3-D stacks of them, which cost one numpy or LAPACK call for the stack.
Rank decisions follow one fixed rule throughout: a singular value or PSD
eigenvalue counts as zero at or below ``max(m, n) * eps * sigma_max``.

Frobenius norms follow the rounding of the ``nrm2`` kernel of the OpenBLAS
in scipy's x86-64 wheels.  A single norm is one call of that kernel; a
stack of small matrices evaluates the kernel's x87 rule in long double
(:func:`_frobenius_norms`).  The first call that needs BLAS loads scipy's
compiled BLAS extension, ``scipy.linalg._fblas``, on its own (:func:`_blas`):
about 15 ms and 4 MB, where importing the ``scipy.linalg`` package took
about 0.24 s and 29 MB.  No path of the library imports ``scipy.linalg``,
and a process that only runs the Monte Carlo comparison loads no BLAS
extension at all.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, MatrixFormatError, NumericalError

__all__ = [
    "SvdFactors",
    "frobenius_norm",
    "svd",
    "pinv",
    "psd_eigh",
    "read_matrix",
    "write_matrix",
]

_EPS = float(np.finfo(np.float64).eps)
# Matrices of at most this many doubles (a 3 x 3 complex one) have their
# stacked norms from the long double model of `nrm2`.  Per matrix of a
# 4096-stack, model against one BLAS call (2-CPU x86-64 Xeon, numpy 2.4.6,
# BENCH_22.json): 0.09 us against 0.17 us at 9 doubles, 0.17 us against
# 0.17 us at 18, the crossover, and 0.19 us against 0.17 us at 20.  A stack
# of one matrix costs about 8 us against 1.0 us; the single-pair bounds pay
# that, so that no stack of small matrices loads the BLAS extension.
_MODEL_MAX_PARTS = 18
# Long double is the x87 80-bit format, whose 64-bit significand the model
# needs; elsewhere every stack calls BLAS.
_X87_LONG_DOUBLE = np.finfo(np.longdouble).nmant == 63
# Relative tolerance of the Hermitian and PSD checks on coefficients.
_HERMITIAN_RTOL = 1e-10
# The dtypes whose matrices :func:`frobenius_norm` hands to BLAS unconverted.
_NORM_DTYPES = (np.dtype(np.float64), np.dtype(np.complex128))


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
    """Check ``||M - M*||_F <= 1e-10 * ||M||_F``; return :func:`_hermitian_part` of `M`.

    The check runs on `M` scaled by :func:`_pow2_scaled`, so neither norm
    overflows.
    """
    M = require_square(M, name)
    S = _pow2_scaled(M)[0]
    if frobenius_norm(S - S.conj().T) > _HERMITIAN_RTOL * frobenius_norm(S):
        raise DomainError(
            f"{name} is not Hermitian within relative tolerance {_HERMITIAN_RTOL:g}"
        )
    return _hermitian_part(M)


def _pow2_scaled(M: np.ndarray) -> tuple[np.ndarray, int]:
    """``(M / 2^e, e)``, `e` the `frexp` exponent of the largest real or
    imaginary part of the float64 or complex128 `M`: the package's one
    power-of-two scaling (Anderson, "Algorithm 978: Safe scaling in the Level 1
    BLAS", TOMS 2017), exact but for parts far below the largest that underflow."""
    parts = np.ascontiguousarray(M).view(np.float64)
    e = math.frexp(np.abs(parts).max())[1]
    return np.ldexp(parts, -e).view(M.dtype), e


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    """``(M + M*) / 2``, each real and imaginary part ``(a + b) / 2`` rounded
    once; of each matrix of a stack along the last two axes.

    So it is exactly Hermitian, finite, and `M` itself for exactly Hermitian
    `M`.  Where ``a + b`` overflows, one term exceeds ``DBL_MAX / 2`` and the
    sum of the halves rounds the same way: a half is inexact only for a
    subnormal, far below the larger term's ulp.
    """
    a = np.ascontiguousarray(M).view(np.float64)
    b = np.conjugate(np.swapaxes(M, -1, -2), order="C").view(np.float64)
    with np.errstate(over="ignore"):
        mean = (a + b) / 2
    big = np.isinf(mean)
    mean[big] = a[big] / 2 + b[big] / 2
    return mean.view(M.dtype)


def rank_cutoff(shape: tuple[int, int], largest: float) -> float:
    """Threshold at or below which singular values or PSD eigenvalues count as zero."""
    return max(shape) * _EPS * largest


def _above_cutoff(w: np.ndarray) -> np.ndarray:
    """Which PSD eigenvalues lie above the rank cutoff of their spectrum, for
    each spectrum along the first axis of `w`; the others count as zero."""
    p = w.shape[0]
    return w > rank_cutoff((p, p), np.maximum(w.max(axis=0), 0.0))


def frobenius_norm(M) -> float:
    """Frobenius norm of a matrix: one BLAS ``nrm2`` call over its entries.

    The OpenBLAS in scipy's x86-64 wheels (its SkylakeX kernels) sums the
    unscaled squares in x87 80-bit precision into four interleaved partial
    sums, so no finite entries overflow or underflow the sum, but two orders
    of the same entries (a transpose, say) can round differently: the
    entries go in row-major order, whatever the layout of `M`.  A NaN or inf
    entry raises `DomainError`; a norm beyond the largest double gives inf.
    A nonempty 2-D float64 or complex128 ndarray goes straight to BLAS, with
    no validation unless the norm is not finite: about 0.8 us for a 4 x 5
    complex matrix (2-CPU x86-64 Xeon, numpy 2.4.6).
    """
    if type(M) is not np.ndarray or M.ndim != 2 or not M.size or M.dtype not in _NORM_DTYPES:
        M = as_matrix(M)
    norm = _nrm2(M)
    if not math.isfinite(norm):
        as_matrix(M)
    return norm


@functools.cache
def _blas():
    """scipy's compiled BLAS wrappers, the extension ``scipy.linalg._fblas``,
    loaded on first use straight from the ``scipy.linalg`` directory.

    Finding that directory imports only the top-level ``scipy``; the package
    ``scipy.linalg`` itself is never imported.  ``scipy.linalg.blas``
    re-exports these same functions, so every norm is the same call.  Loading
    the extension takes about 15 ms and 4 MB, against about 0.24 s and 29 MB
    for ``from scipy.linalg import blas`` (2-CPU x86-64 Xeon, scipy 1.17.1).
    The extension registers itself in ``sys.modules`` under its full name,
    where a later import of ``scipy.linalg.blas`` finds it, so both name the
    same functions; the attribute ``scipy.linalg._fblas`` of that package is
    then left unset.  A scipy without the extension raises
    `ModuleNotFoundError`, as ``scipy.linalg.blas`` needs it too.
    """
    package = importlib.util.find_spec("scipy.linalg")
    spec = package and importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._fblas", package.submodule_search_locations
    )
    if spec is None:
        raise ModuleNotFoundError(
            "scipy's BLAS extension scipy.linalg._fblas was not found",
            name="scipy.linalg._fblas",
        )
    fblas = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fblas)
    return fblas


def _nrm2(M: np.ndarray) -> float:
    """:func:`frobenius_norm` of a float64 or complex128 array, unchecked.

    ``M.reshape(-1)`` is a view of a C-contiguous `M` and a row-major copy
    of any other; the BLAS wrapper copies a strided view to a contiguous one.
    """
    v = M.reshape(-1)
    blas = _blas()
    return float((blas.dznrm2 if v.dtype == _NORM_DTYPES[1] else blas.dnrm2)(v))


def _row_norms(rows: np.ndarray) -> list[float]:
    """:func:`_nrm2` of each row of a 2-D float64 or complex128 array whose
    rows are contiguous, unchecked: one BLAS call per row, each row's norm
    the bits of :func:`frobenius_norm` of the row."""
    blas = _blas()
    nrm2 = blas.dznrm2 if rows.dtype == _NORM_DTYPES[1] else blas.dnrm2
    return [float(nrm2(row)) for row in rows]


def _frobenius_norms(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix ``M[i]`` of a 3-D float64 or complex128 stack.

    Each norm equals ``frobenius_norm(M[i])`` bit for bit.  Matrices of at
    most ``_MODEL_MAX_PARTS`` doubles take :func:`_x87_norms`, the kernel's
    rule in long double; larger ones, and every stack where long double is
    not the x87 format, take one BLAS call per matrix.  A stack of one
    matrix costs about 8 us against 0.8 us for :func:`frobenius_norm`, so
    single norms skip it, and so do the perturbation terms, three matrices
    at a time, which take :func:`_row_norms` (2-CPU x86-64 Xeon, numpy
    2.4.6).
    """
    if M.ndim != 3 or M.dtype not in (np.float64, np.complex128):
        raise DomainError(
            f"expected a 3-D float64 or complex128 stack, got shape {M.shape} "
            f"and dtype {M.dtype}"
        )
    rows = np.ascontiguousarray(M).reshape(M.shape[0], -1)
    pairs = np.iscomplexobj(rows)
    parts = rows.view(np.float64)
    if _X87_LONG_DOUBLE and parts.shape[1] <= _MODEL_MAX_PARTS:
        return _x87_norms(parts, pairs)
    nrm2 = _blas().dznrm2 if pairs else _blas().dnrm2
    return np.fromiter(map(nrm2, rows), dtype=np.float64, count=rows.shape[0])


def _x87_norms(parts: np.ndarray, pairs: bool) -> np.ndarray:
    """``nrm2`` of each row of the 2-D float64 `parts`, a row of real and
    imaginary parts in turn if `pairs`, by the x87 rule of OpenBLAS's
    SkylakeX kernels (ROADMAP, "What `nrm2` computes here").

    The squares go unscaled, in 80-bit long double, into four partial sums
    `A`, `B`, `C`, `D`: the first ``8 * (n // 8)`` of the `n` parts by index
    mod 4, the rest to `A` in order, or, if `pairs`, real parts to `A` and
    imaginary parts to `B`.  The norm is ``sqrt(D + ((C + A) + B))`` in long
    double, rounded to a double, as the kernel's ``fsqrt`` and store round
    it.  Each lane is summed in sequence, one column of the transposed
    squares at a time, as numpy's reductions may sum pairwise.  A norm
    beyond the largest double gives inf, as BLAS does.
    """
    n = parts.shape[1]
    squares = parts.T.astype(np.longdouble, order="C")
    np.square(squares, out=squares)
    blocked = n - n % 8
    lanes = ([], [], [], [])
    for i in range(n):
        lanes[i % 4 if i < blocked else i % 2 if pairs else 0].append(squares[i])
    A, B, C, D = (functools.reduce(np.add, lane) if lane else 0.0 for lane in lanes)
    with np.errstate(over="ignore"):
        return np.sqrt(D + ((C + A) + B)).astype(np.float64)


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Full singular value decomposition ``M = P @ diag(sigma) @ Q*``.

    `P` is m x m unitary, `Q` is n x n unitary, `sigma` holds the
    min(m, n) singular values in nonincreasing order, and `rank` counts
    the singular values above the rank cutoff of :func:`rank_cutoff`.
    """

    P: np.ndarray
    sigma: np.ndarray
    Q: np.ndarray
    rank: int


def svd(M, name: str = "matrix") -> SvdFactors:
    """Full SVD with an explicit rank decision.

    Parameters
    ----------
    M : (m, n) array_like
        Matrix to factor.
    name : str
        What the error messages call `M`.

    Returns
    -------
    SvdFactors
        Factors with ``P @ diag(sigma) @ Q* == M`` up to round-off, and the
        rank: the number of singular values above
        ``max(m, n) * eps * sigma_max``.

    Raises
    ------
    DomainError
        If `M` is not a nonempty finite 2-D array.
    NumericalError
        If the underlying SVD iteration fails to converge, or a singular
        value overflows the largest double, which LAPACK returns as inf or
        NaN although every entry is finite.
    """
    P, sigma, Q, [rank] = _svds(as_matrix(M, name)[None], (name,))
    return SvdFactors(P=P[0], sigma=sigma[0], Q=Q[0], rank=rank)


def _svds(M: np.ndarray, names) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """:func:`svd` of each matrix ``M[i]`` of a 3-D float64 or complex128
    stack, in one ``np.linalg.svd`` call; ``names[i]`` is what the errors
    call ``M[i]``.

    Returns the stacks `P`, `sigma` and `Q` and the ranks.  numpy runs the
    LAPACK routine on each matrix of the stack in turn, so each matrix gets
    the bits of a call on it alone.  A stack has one dtype: a real matrix
    promoted to complex would factor to other bits.
    """
    try:
        P, sigma, Qh = np.linalg.svd(M, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed to converge") from exc
    finite = np.isfinite(sigma).all(axis=1)
    if not finite.all():
        name = names[int(np.argmin(finite))]
        raise NumericalError(f"a singular value of {name} overflows the largest double")
    ranks = (sigma > rank_cutoff(M.shape[1:], sigma[:, :1])).sum(axis=1).tolist()
    return P, sigma, Qh.conj().swapaxes(-1, -2), ranks


def pinv(M) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the SVD.

    Singular values at or below the rank cutoff of :func:`svd` are dropped,
    not inverted, so the result is stable for rank-deficient input.
    Satisfies the four Penrose identities to round-off.
    """
    return _pinv_from(svd(M))


def _pinv_from(f: SvdFactors) -> np.ndarray:
    """:func:`pinv` of the matrix whose SVD is `f`."""
    r = f.rank
    return (f.Q[:, :r] / f.sigma[:r]) @ f.P[:, :r].conj().T


def _eigh(H: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of the Hermitian `H`; :class:`NumericalError` if it
    fails to converge or an eigenvalue overflows."""
    try:
        w, Q = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed to converge") from exc
    if not np.isfinite(w).all():
        raise NumericalError(f"an eigenvalue of {name} overflows the largest double")
    return w, Q


def psd_eigh(H, name: str = "H") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition ``H = Q @ diag(w) @ Q*`` of a Hermitian PSD matrix.

    Returns ``(H, w, Q)`` with `w` ascending; `H` is the Hermitian part of
    the argument (see :func:`require_hermitian`), the matrix factored.

    Raises
    ------
    DomainError
        If `H` is not square, not Hermitian (see :func:`require_hermitian`),
        or has an eigenvalue below ``-1e-10 * ||H||_2``.
    NumericalError
        If the eigensolver fails to converge, or an eigenvalue overflows.
    """
    H = require_hermitian(H, name)
    w, Q = _eigh(H, name)
    scale = float(np.abs(w).max())
    if not (w[0] >= -_HERMITIAN_RTOL * scale):
        raise DomainError(
            f"{name} is not positive semidefinite: eigenvalue {w[0]:.3e} "
            f"below -{_HERMITIAN_RTOL:g} * ||{name}||_2"
        )
    return H, w, Q


def write_matrix(M, path) -> None:
    """Write a matrix as decimal text.

    The first line holds ``rows cols``; each following line holds one row
    as ``2 * cols`` numbers, the real and imaginary part of every entry.
    Values use the shortest decimal representation that round-trips to the
    same double, so write followed by read is exact.
    """
    M = as_matrix(M)
    parts = np.ascontiguousarray(M, dtype=np.complex128).view(np.float64).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        fh.writelines(" ".join(map(repr, row)) + "\n" for row in parts)


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
    # Real and imaginary parts interleaved; numpy reads each with float().
    out = np.empty((rows, 2 * cols), dtype=np.float64)
    bad, problem = rows, None
    for i, parts in enumerate(line.split() for line in lines[1:]):
        if len(parts) != 2 * cols:
            bad, problem = i, f"has {len(parts)} values, expected {2 * cols}"
            break
        try:
            out[i] = parts
        except ValueError:
            bad, problem = i, "has a non-numeric value"
            break
    # A non-finite value in an earlier row is reported first.
    finite = np.isfinite(out[:bad]).all(axis=1)
    if not finite.all():
        bad, problem = int(np.argmin(finite)), "has a non-finite value"
    if problem:
        raise MatrixFormatError(f"{path}: row {bad + 1} {problem}")
    return out.view(np.complex128)
