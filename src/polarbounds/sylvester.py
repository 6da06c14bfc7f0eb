"""Spectral solver for ``A X + X B = A C + D B`` with Hermitian PSD `A`, `B`.

The right-hand side is determined by two data matrices `C` and `D`, and the
solution of interest is the one whose rows live in the range of `A` and
whose columns live in the range of `B`.  Diagonalizing both coefficients
reduces the equation to entrywise divisions by eigenvalue sums, with
divisions skipped wherever both eigenvalues vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds, matrixcore
from .exceptions import (
    DomainError,
    HypothesisError,
    InconsistentSystemError,
    NumericalError,
    SpectralOverlapError,
)

__all__ = [
    "StructuredProblem",
    "SylvesterSolution",
    "structured_problem",
    "solve_structured",
    "solve_general_hermitian",
    "splitting_identity_residual",
]

_FLAG_RTOL = 1e-10
# Largest scaled residual a solver accepts.
_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class StructuredProblem:
    """Problem data for ``A X + X B = A C + D B`` with range bookkeeping.

    `A` (m x m) and `B` (n x n) are Hermitian PSD: the Hermitian parts of
    the given coefficients, which are the matrices whose eigendecompositions
    are kept.  `C` and `D` are m x n.
    The four flags record, each at relative tolerance 1e-10, whether the
    data matrices conform to the coefficient ranges:

    - `c_left_conforming`:  ``pinv(A) A C == C``
    - `c_right_conforming`: ``C B pinv(B) == C``
    - `d_left_conforming`:  ``pinv(A) A D == D``
    - `d_right_conforming`: ``D B pinv(B) == D``

    The solver requires `c_left_conforming` and `d_right_conforming`; the
    other two flags are needed by the norm splitting identity.  Ascending
    eigendecompositions of `A` and `B` are kept so downstream routines do
    not refactor.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    c_left_conforming: bool
    c_right_conforming: bool
    d_left_conforming: bool
    d_right_conforming: bool
    eigenvalues_a: np.ndarray
    eigenvectors_a: np.ndarray
    eigenvalues_b: np.ndarray
    eigenvectors_b: np.ndarray


@dataclass(frozen=True, eq=False)
class SylvesterSolution:
    """Solution `X` with its scaled residual and range conformity.

    `residual` is ``||A X + X B - (A C + D B)||_F / (1 + ||A C + D B||_F)``.
    `range_conforming` records whether ``pinv(A) A X == X`` and
    ``X B pinv(B) == X`` hold at relative tolerance 1e-10.
    """

    X: np.ndarray
    residual: float
    range_conforming: bool


def _sqrt_scales(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the square root and of its pseudoinverse.

    Sharing one rank decision matters: the pseudoinverse of the square root
    ``M^(1/2)`` would re-decide rank after the square root has compressed
    the gap between genuine and round-off eigenvalues from ``eps`` to
    ``sqrt(eps)``, and a round-off eigenvalue that slips through gets
    inverted into noise.
    """
    pos = matrixcore._above_cutoff(w)
    root = np.where(pos, np.sqrt(np.maximum(w, 0.0)), 0.0)
    inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=pos)
    return root, inv_root


def _conforms(w: np.ndarray, Q: np.ndarray, M: np.ndarray, side: str) -> bool:
    """Whether `M` lies in the range of ``Q diag(w) Q*`` on the given side.

    Measures ``||P M - M||_F`` (left) or ``||M P - M||_F`` (right) for the
    range projector `P` as the norm of `M` against the null eigenvectors.
    """
    null = Q[:, ~matrixcore._above_cutoff(w)]
    if null.shape[1] == 0:  # full rank; the norm of an empty product is rejected
        return True
    resid = matrixcore.frobenius_norm(null.conj().T @ M if side == "left" else M @ null)
    return resid <= _FLAG_RTOL * (1.0 + matrixcore.frobenius_norm(M))


def _spectral_solve(M1, w1, Q1, M2, w2, Q2, S, keep=True) -> tuple[np.ndarray, float]:
    """Solve ``M1 X + X M2 = S`` from ``M1 = Q1 diag(w1) Q1*`` and
    ``M2 = Q2 diag(w2) Q2*``.

    In the joint eigenbasis each entry is divided by ``w1_i + w2_j`` where
    `keep` holds and set to zero elsewhere.  Returns `X` and the scaled
    residual ``||M1 X + X M2 - S||_F / (1 + ||S||_F)``.
    """
    St = Q1.conj().T @ S @ Q2
    Xt = np.zeros_like(St)
    np.divide(St, w1[:, None] + w2[None, :], out=Xt, where=keep)
    X = Q1 @ Xt @ Q2.conj().T
    # Unchecked norms: a NaN residual must reach the caller's residual gate.
    residual = matrixcore._nrm2(M1 @ X + X @ M2 - S) / (1.0 + matrixcore._nrm2(S))
    return X, residual


def structured_problem(A, B, C, D) -> StructuredProblem:
    """Validate problem data and record range-compatibility flags.

    Parameters
    ----------
    A, B : array_like
        Hermitian PSD coefficients, m x m and n x n.
    C, D : array_like
        Data matrices, both m x n.

    Raises
    ------
    DomainError
        On shape mismatch or if `A` or `B` fails the Hermitian PSD check
        (relative tolerance 1e-10).
    NumericalError
        If an eigenvalue of `A` or `B` overflows or fails to converge.
    """
    A, wa, Qa = matrixcore.psd_eigh(A, "A")
    B, wb, Qb = matrixcore.psd_eigh(B, "B")
    C = matrixcore.as_matrix(C, "C")
    D = matrixcore.as_matrix(D, "D")
    m, n = A.shape[0], B.shape[0]
    if C.shape != (m, n) or D.shape != (m, n):
        raise DomainError(
            f"C and D must be {m} x {n} to match A and B, "
            f"got {C.shape} and {D.shape}"
        )
    return StructuredProblem(
        A=A,
        B=B,
        C=C,
        D=D,
        c_left_conforming=_conforms(wa, Qa, C, "left"),
        c_right_conforming=_conforms(wb, Qb, C, "right"),
        d_left_conforming=_conforms(wa, Qa, D, "left"),
        d_right_conforming=_conforms(wb, Qb, D, "right"),
        eigenvalues_a=wa,
        eigenvectors_a=Qa,
        eigenvalues_b=wb,
        eigenvectors_b=Qb,
    )


def solve_structured(problem: StructuredProblem) -> SylvesterSolution:
    """Solve ``A X + X B = A C + D B`` for the range-conforming `X`.

    Parameters
    ----------
    problem : StructuredProblem
        Validated problem data; `c_left_conforming` and
        `d_right_conforming` must hold.

    Returns
    -------
    SylvesterSolution
        In the joint eigenbasis the solution entries are
        ``S_ij / (lambda_i + mu_j)`` where both eigenvalues are positive,
        and zero where either factor annihilates the entry, which places
        the rows of `X` in the range of `A` and its columns in the range
        of `B`.

    Raises
    ------
    HypothesisError
        If the required compatibility flags are false.
    InconsistentSystemError
        If the scaled residual exceeds 1e-8, or is NaN, meaning no
        range-conforming solution exists within tolerance.
    """
    if not (problem.c_left_conforming and problem.d_right_conforming):
        raise HypothesisError(
            "solve_structured needs pinv(A) A C == C and D B pinv(B) == D; "
            f"flags are c_left={problem.c_left_conforming}, "
            f"d_right={problem.d_right_conforming}"
        )
    wa, Qa = problem.eigenvalues_a, problem.eigenvectors_a
    wb, Qb = problem.eigenvalues_b, problem.eigenvectors_b
    S = problem.A @ problem.C + problem.D @ problem.B
    keep = matrixcore._above_cutoff(wa)[:, None] & matrixcore._above_cutoff(wb)[None, :]
    X, residual = _spectral_solve(problem.A, wa, Qa, problem.B, wb, Qb, S, keep)
    if not (residual <= _RESIDUAL_TOL):
        raise InconsistentSystemError(
            f"no range-conforming solution within tolerance: "
            f"scaled residual {residual:.3e} exceeds {_RESIDUAL_TOL:g}"
        )
    conforming = _conforms(wa, Qa, X, "left") and _conforms(wb, Qb, X, "right")
    return SylvesterSolution(X=X, residual=residual, range_conforming=conforming)


def solve_general_hermitian(Omega, Gamma, S) -> np.ndarray:
    """Solve ``Omega X - X Gamma = S`` for Hermitian `Omega`, `Gamma`.

    The spectra must be disjoint; each transformed entry is divided by
    the eigenvalue difference ``omega_i - gamma_j``.

    Parameters
    ----------
    Omega, Gamma : array_like
        Hermitian matrices, k x k and l x l, of any signature.
    S : array_like
        Right-hand side, k x l.

    Raises
    ------
    SpectralOverlapError
        If the spectra overlap (see :func:`bounds.spectral_separation`),
        so the solution is not unique.
    NumericalError
        If the eigensolver fails to converge on `Omega` or `Gamma`, or one
        of their eigenvalues overflows, or if the computed solution's scaled
        residual exceeds 1e-8, which happens when the spectra are close
        enough to destroy precision.
    """
    Omega = matrixcore.require_hermitian(Omega, "Omega")
    Gamma = matrixcore.require_hermitian(Gamma, "Gamma")
    S = matrixcore.as_matrix(S, "S")
    if S.shape != (Omega.shape[0], Gamma.shape[0]):
        raise DomainError(
            f"S must be {Omega.shape[0]} x {Gamma.shape[0]}, got {S.shape}"
        )
    wo, Qo = matrixcore._eigh(Omega, "Omega")
    wg, Qg = matrixcore._eigh(Gamma, "Gamma")
    _, overlap = bounds._spectral_separations(wo[None], wg[None])
    if overlap[0]:
        raise SpectralOverlapError(
            "spectra of Omega and Gamma overlap; the solution is not unique"
        )
    # Omega X - X Gamma = S is Omega X + X (-Gamma) = S, negated exactly.
    X, residual = _spectral_solve(Omega, wo, Qo, -Gamma, -wg, Qg, S)
    if not (residual <= _RESIDUAL_TOL):
        raise NumericalError(
            f"solution lost precision: scaled residual {residual:.3e} "
            f"exceeds {_RESIDUAL_TOL:g}; the spectra are likely too close"
        )
    return X


def splitting_identity_residual(
    problem: StructuredProblem, solution: SylvesterSolution
) -> float:
    """Residual of the four-term splitting of ``||D - C||_F^2``.

    When all four compatibility flags hold and `X` is the range-conforming
    solution, ``||D - C||_F^2`` splits exactly into

    ``||D - X||_F^2 + ||X - C||_F^2 + ||sqrt(A) (X - C) sqrt(pinv(B))||_F^2
    + ||sqrt(pinv(A)) (D - X) sqrt(B)||_F^2``.

    Returns ``|lhs - rhs| / (1 + lhs)``.

    Raises
    ------
    HypothesisError
        If any compatibility flag is false or the solution is not
        range-conforming.
    """
    flags = (
        problem.c_left_conforming,
        problem.c_right_conforming,
        problem.d_left_conforming,
        problem.d_right_conforming,
    )
    if not (all(flags) and solution.range_conforming):
        raise HypothesisError(
            "the splitting identity needs all four compatibility flags and a "
            f"range-conforming solution; flags are {flags}, "
            f"range_conforming={solution.range_conforming}"
        )
    C, D, X = problem.C, problem.D, solution.X
    Qa, Qb = problem.eigenvectors_a, problem.eigenvectors_b
    root_a, inv_root_a = _sqrt_scales(problem.eigenvalues_a)
    root_b, inv_root_b = _sqrt_scales(problem.eigenvalues_b)
    x_c, d_x = X - C, D - X
    # sqrt(A) = Qa diag(root_a) Qa* and so on, so by unitary invariance the
    # weighted terms are entrywise-scaled copies in the joint eigenbasis.
    Qah = Qa.conj().T
    weighted_x_c = root_a[:, None] * (Qah @ x_c @ Qb) * inv_root_b
    weighted_d_x = inv_root_a[:, None] * (Qah @ d_x @ Qb) * root_b
    lhs = matrixcore.frobenius_norm(D - C) ** 2
    rhs = (
        matrixcore.frobenius_norm(d_x) ** 2
        + matrixcore.frobenius_norm(x_c) ** 2
        + matrixcore.frobenius_norm(weighted_x_c) ** 2
        + matrixcore.frobenius_norm(weighted_d_x) ** 2
    )
    return abs(lhs - rhs) / (1.0 + lhs)
