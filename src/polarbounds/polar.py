"""Generalized polar decomposition of arbitrary, possibly singular, matrices."""

from __future__ import annotations

from dataclasses import dataclass

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
    """

    U: np.ndarray
    H: np.ndarray
    rank: int


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

    Notes
    -----
    For square nonsingular `A` this is the ordinary polar decomposition
    with unitary `U`.  For rank-deficient or rectangular `A` the factor
    `U` is the unique partial isometry with range equal to the range of
    `A` and corange equal to the range of ``A*``.
    """
    return _polar_from_svd(matrixcore.svd(A))


def _polar_from_svd(f: matrixcore.SvdFactors) -> PolarFactors:
    """Polar factors from a full SVD and its rank decision."""
    r = f.rank
    U = f.P[:, :r] @ f.Q[:, :r].conj().T
    kept = np.zeros(f.Q.shape[0], dtype=np.float64)
    kept[:r] = f.sigma[:r]
    H = matrixcore._hermitian_part((f.Q * kept) @ f.Q.conj().T)
    return PolarFactors(U=U, H=H, rank=r)


def verify_polar(A, factors: PolarFactors) -> PolarResiduals:
    """Residuals of the polar identities for `factors` against `A`.

    All five residuals are Frobenius norms divided by ``1 + ||A||_F``; the
    projector residuals use ``pinv(A)`` under the rank cutoff of
    :func:`generalized_polar`.  This only reports; it never raises on a
    large residual.
    """
    A = matrixcore.as_matrix(A, "A")
    U, H = matrixcore.as_matrix(factors.U, "U"), matrixcore.as_matrix(factors.H, "H")
    if U.shape != A.shape or H.shape != (A.shape[1], A.shape[1]):
        raise DomainError(
            f"factor shapes {U.shape}, {H.shape} do not match A of shape {A.shape}"
        )
    Ap = matrixcore.pinv(A)
    scale = 1.0 + matrixcore.frobenius_norm(A)
    Us = U.conj().T
    return PolarResiduals(
        factorization=matrixcore.frobenius_norm(A - U @ H) / scale,
        partial_isometry=matrixcore.frobenius_norm(U @ Us @ U - U) / scale,
        right_projector=matrixcore.frobenius_norm(Us @ U - Ap @ A) / scale,
        left_projector=matrixcore.frobenius_norm(U @ Us - A @ Ap) / scale,
        hermitian=matrixcore.frobenius_norm(H - H.conj().T) / scale,
    )
