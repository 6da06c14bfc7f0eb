"""Generalized polar decomposition of arbitrary, possibly singular, matrices."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import matrixcore
from .exceptions import DomainError

__all__ = ["PolarFactors", "PolarResiduals", "generalized_polar", "verify_polar"]


@dataclass(frozen=True, eq=False)
class PolarFactors:
    """Factors of ``A = U @ H`` with `U` a partial isometry.

    `U` (m x n) satisfies ``U @ U* @ U == U`` with ``U @ U*`` and ``U* @ U``
    the orthogonal projectors onto the ranges of ``A`` and ``A*``; `H`
    (n x n) is Hermitian PSD with the same rank as ``A``.  The pair is
    unique, independent of which SVD produced it.

    Factors from :func:`generalized_polar` also keep, privately, the SVD of
    ``A`` and a SHA-256 digest of the validated ``A`` it factored, so that
    :func:`verify_polar` handed that same matrix does not factor it again.
    They hold the two unitary SVD factors for as long as they live.
    """

    U: np.ndarray
    H: np.ndarray
    rank: int
    _svd: matrixcore.SvdFactors | None = field(default=None, repr=False)
    _digest: bytes | None = field(default=None, repr=False)


@dataclass(frozen=True)
class PolarResiduals:
    """Frobenius residuals of the defining identities, scaled by ``1 + ||A||_F``.

    `factorization` is ``A - U H``, `partial_isometry` is ``U U* U - U``,
    `right_projector` is ``U* U - pinv(A) A``, `left_projector` is
    ``U U* - A pinv(A)``, and `hermitian` is ``H - H*``.
    """

    factorization: float
    partial_isometry: float
    right_projector: float
    left_projector: float
    hermitian: float

    @property
    def max_residual(self) -> float:
        return max(
            self.factorization,
            self.partial_isometry,
            self.right_projector,
            self.left_projector,
            self.hermitian,
        )


def generalized_polar(A) -> PolarFactors:
    """Polar decomposition ``A = U @ H`` valid for any rank and shape.

    Parameters
    ----------
    A : (m, n) array_like
        Real or complex matrix.

    Returns
    -------
    PolarFactors
        With SVD ``A = P @ diag(sigma) @ Q*`` and rank ``r``, the factors
        are ``U = P[:, :r] @ Q[:, :r]*`` and ``H = Q @ diag(sigma_r, 0) @ Q*``
        where singular values at or below the rank cutoff
        ``max(m, n) * eps * sigma_max`` are zeroed so `U` and `H` agree on
        rank.

    Raises
    ------
    DomainError
        If `A` is not a nonempty finite 2-D array.
    NumericalError
        If the SVD fails to converge, or a singular value of `A` overflows
        the largest double.

    Notes
    -----
    For square nonsingular `A` this is the ordinary polar decomposition
    with unitary `U`.  For rank-deficient or rectangular `A` the factor
    `U` is the unique partial isometry with range equal to the range of
    `A` and corange equal to the range of ``A*``.
    """
    M = matrixcore.as_matrix(A)
    f = matrixcore.svd(M, "A")
    return _polar_from_svd(f, _svd=f, _digest=_digest(M))


def _digest(M: np.ndarray) -> bytes:
    """SHA-256 over the shape, the dtype and the C-order bytes of `M`.

    Signed zeros and the dtype count: ``-0.0`` for ``+0.0``, or the same
    values as complex, give another digest and so another SVD.
    """
    h = hashlib.sha256(f"{M.shape} {M.dtype.str}".encode())
    h.update(np.ascontiguousarray(M))
    return h.digest()


def _polar_from_svd(f: matrixcore.SvdFactors, **private) -> PolarFactors:
    """Polar factors from a full SVD and its rank decision; `private` sets
    the fields that only :func:`generalized_polar` fills."""
    r = f.rank
    U = f.P[:, :r] @ f.Q[:, :r].conj().T
    kept = np.zeros(f.Q.shape[0], dtype=np.float64)
    kept[:r] = f.sigma[:r]
    H = matrixcore._hermitian_part((f.Q * kept) @ f.Q.conj().T)
    return PolarFactors(U=U, H=H, rank=r, **private)


def verify_polar(A, factors: PolarFactors) -> PolarResiduals:
    """Residuals of the polar identities for `factors` against `A`.

    All five residuals are Frobenius norms divided by ``1 + ||A||_F``; the
    projector residuals use ``pinv(A)`` under the rank cutoff of
    :func:`generalized_polar`.  This only reports; it never raises on a
    large residual.

    ``pinv(A)`` comes from the SVD that :func:`generalized_polar` kept in
    `factors` when the validated `A` has the digest of the matrix it
    factored: the same shape, dtype and bytes.  Otherwise (hand-built
    factors, `A` changed in place, or another matrix) it comes from a fresh
    SVD of `A`.  The kept SVD is of `A` alone, so `U` and `H` are checked
    as given either way.
    """
    A = matrixcore.as_matrix(A, "A")
    U, H = matrixcore.as_matrix(factors.U, "U"), matrixcore.as_matrix(factors.H, "H")
    if U.shape != A.shape or H.shape != (A.shape[1], A.shape[1]):
        raise DomainError(
            f"factor shapes {U.shape}, {H.shape} do not match A of shape {A.shape}"
        )
    kept = factors._svd is not None and _digest(A) == factors._digest
    Ap = matrixcore._pinv_from(factors._svd) if kept else matrixcore.pinv(A)
    scale = 1.0 + matrixcore.frobenius_norm(A)
    # U U* serves two residuals. U* is not kept, and the one residual that
    # needs it comes first, so beside pinv(A) and U U* at most two
    # matrix-sized temporaries are alive at once.
    right_projector = matrixcore.frobenius_norm(U.conj().T @ U - Ap @ A) / scale
    UUs = U @ U.conj().T
    return PolarResiduals(
        factorization=matrixcore.frobenius_norm(A - U @ H) / scale,
        partial_isometry=matrixcore.frobenius_norm(UUs @ U - U) / scale,
        right_projector=right_projector,
        left_projector=matrixcore.frobenius_norm(UUs - A @ Ap) / scale,
        hermitian=matrixcore.frobenius_norm(H - H.conj().T) / scale,
    )
