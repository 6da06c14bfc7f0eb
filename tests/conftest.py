"""Shared random-instance generators for the test suite."""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.extra import numpy as hnp

from polarbounds import matrixcore

# Reproducible property runs: derandomized, with no example database.
PROPERTY = settings(max_examples=50, derandomize=True, database=None, deadline=None)
INTEGER_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64)


def complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def rank_r_matrix(rng, m, n, r, complex_entries=True):
    """Random m x n matrix of exact rank `r` (r = 0 gives the zero matrix)."""
    if r == 0:
        return np.zeros((m, n), dtype=complex if complex_entries else float)
    if complex_entries:
        return complex_gaussian(rng, (m, r)) @ complex_gaussian(rng, (r, n))
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


def exact_factor_changes(A, D1, D2):
    """``||V - U||_F`` and ``|| |B| - |A| ||_F`` for the exact ``B = D1* A D2``,
    as mpmath numbers from 50-digit SVDs.  Every singular value is kept, so
    the first is the change of the generalized polar factor only for `A` of
    full rank; the PSD factor ``(M* M)^(1/2)`` needs no rank decision."""
    import mpmath

    def polar(M):
        P, sigma, Qh = mpmath.svd_c(M)  # M = P diag(sigma) Qh
        return P * Qh, Qh.H * mpmath.diag(sigma) * Qh

    with mpmath.workdps(50):
        A_, D1_, D2_ = (mpmath.matrix(np.asarray(M).tolist()) for M in (A, D1, D2))
        (U, H), (V, G) = polar(A_), polar(D1_.H * A_ * D2_)
        return mpmath.mnorm(V - U, "f"), mpmath.mnorm(G - H, "f")


def random_psd(rng, n, rank):
    """Random n x n Hermitian PSD matrix of the given rank."""
    G = complex_gaussian(rng, (rank, n))
    H = G.conj().T @ G
    return (H + H.conj().T) / 2


def structured_instance(rng, m, n, rank_a=None, rank_b=None):
    """Random structured problem data with all four compatibility
    conditions enforced by projecting C and D onto the coefficient ranges."""
    if rank_a is None:
        rank_a = int(rng.integers(1, m + 1))
    if rank_b is None:
        rank_b = int(rng.integers(1, n + 1))
    A = random_psd(rng, m, rank_a)
    B = random_psd(rng, n, rank_b)
    Pa = A @ matrixcore.pinv(A)
    Pb = B @ matrixcore.pinv(B)
    C = Pa @ complex_gaussian(rng, (m, n)) @ Pb
    D = Pa @ complex_gaussian(rng, (m, n)) @ Pb
    return A, B, C, D


def gram_root(M):
    """``|M| = (M* M)^(1/2)`` from ``np.linalg.eigh``, an oracle for the PSD
    polar factor that shares no code with the library's SVD path."""
    w, Q = np.linalg.eigh(M.conj().T @ M)
    return (Q * np.sqrt(np.maximum(w, 0.0))) @ Q.conj().T


def spectral_norm(M):
    """Largest singular value, from ``np.linalg.norm(M, 2)``."""
    return float(np.linalg.norm(M, 2))


def kronecker_solve(A, B, S):
    """Dense oracle for A X + X B = S via column-stacking vectorization."""
    m, n = A.shape[0], B.shape[0]
    K = np.kron(np.eye(n), A) + np.kron(B.T, np.eye(m))
    x = np.linalg.solve(K, S.reshape(-1, order="F"))
    return x.reshape((m, n), order="F")


def integer_matrix(shape, dtype, low=-9, high=9):
    """Strategy for integer matrices of `dtype` with entries in
    ``[low, high]``, from 0 when `dtype` is unsigned."""
    if np.issubdtype(dtype, np.unsignedinteger):
        low = max(low, 0)
    return hnp.arrays(dtype, shape, elements=st.integers(low, high))
