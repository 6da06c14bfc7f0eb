"""Frobenius-norm enclosures for the range-conforming Sylvester solution.

Given ``A X + X B = A C + D B`` with Hermitian PSD coefficients, every
routine here encloses ``||X||_F`` using only norms of the data matrices
and coarse spectral information about `A` and `B`:

- a crude upper bound ``sqrt(||C||_F^2 + ||D||_F^2)``, optionally divided
  by a scale-free separation of the spectra of `A` and `-B`;
- a midpoint enclosure ``(||C + D||_F -+ ||C - D||_F) / 2``;
- a weighted enclosure with data-dependent coefficients `a`, `b`, `c`;
- a symmetric enclosure that replaces the gap weight by a single factor
  ``mu < 1`` derived from the worst conditioning of the two coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import matrixcore
from .exceptions import DomainError, SpectralOverlapError

__all__ = [
    "BoundKind",
    "BoundPair",
    "SpectralSeparation",
    "WeightedBoundParams",
    "SymmetricBoundParams",
    "spectral_separation",
    "separation_bound",
    "norm_sum_bound",
    "midpoint_bounds",
    "weighted_bound_params",
    "weighted_params_from_spectra",
    "weighted_bounds",
    "symmetric_bound_params",
    "symmetric_params_from_spectra",
    "symmetric_bounds",
]

# Spectra overlap when their smallest gap is at most this times their largest value.
_OVERLAP_RTOL = 1e-12


class BoundKind(Enum):
    MIDPOINT = "midpoint"
    WEIGHTED = "weighted"
    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class SpectralSeparation:
    """Scale-free separation ``min |omega - gamma| / sqrt(omega^2 + gamma^2)``
    over all pairs drawn from two real spectra."""

    value: float


@dataclass(frozen=True)
class BoundPair:
    """Two-sided enclosure ``lower <= ||X||_F <= upper``.

    The lower member can be negative; it is reported as computed, a
    negative lower bound is simply uninformative.
    """

    lower: float
    upper: float
    kind: BoundKind


@dataclass(frozen=True)
class WeightedBoundParams:
    """Coefficients of the weighted enclosure.

    ``lambda1 = ||pinv(A)||_2 ||B||_2`` and ``lambda2 = ||A||_2 ||pinv(B)||_2``
    give ``a = 1 + 1/lambda1``, ``b = 1 + 1/lambda2`` and
    ``c = sqrt(1 - 1/(lambda1 lambda2))``; always ``c < min(a, b)``.
    """

    lambda1: float
    lambda2: float
    a: float
    b: float
    c: float


@dataclass(frozen=True)
class SymmetricBoundParams:
    """Single gap weight ``mu = sqrt((lam - 1)/(lam + 1)) < 1`` where
    ``lam = max(lambda1, lambda2)``."""

    lam: float
    mu: float


@dataclass(frozen=True)
class _StackedParams:
    """:class:`WeightedBoundParams` and :class:`SymmetricBoundParams` for a
    stack of coefficient pairs, one array entry per pair."""

    lambda1: np.ndarray
    lambda2: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lam: np.ndarray
    mu: np.ndarray


def _real_spectrum(values, name: str) -> np.ndarray:
    try:
        w = np.asarray(values, dtype=np.float64).ravel()
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real spectrum") from exc
    if w.size == 0:
        raise DomainError(f"{name} must be nonempty")
    if not np.isfinite(w).all():
        raise DomainError(f"{name} contains non-finite values")
    return w


def _real_spectra(values, name: str) -> np.ndarray:
    try:
        w = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a stack of real spectra") from exc
    if w.ndim != 2 or w.shape[1] == 0:
        raise DomainError(f"{name} must have shape (k, p) with p > 0, got {w.shape}")
    if not np.isfinite(w).all():
        raise DomainError(f"{name} contains non-finite values")
    return w


def _pair(C, D) -> tuple[np.ndarray, np.ndarray]:
    """Data matrices `C` and `D` as stacks of one, for the one-row case of a
    stacked form; :class:`DomainError` unless both are finite matrices of
    one shape."""
    C = matrixcore.as_matrix(C, "C")
    D = matrixcore.as_matrix(D, "D")
    if C.shape != D.shape:
        raise DomainError(f"C and D must have the same shape, got {C.shape} and {D.shape}")
    return C[None], D[None]


def spectral_separation(omega, gamma) -> SpectralSeparation:
    """Scale-free minimum separation between two real spectra.

    The spectra count as overlapping, and the separation as undefined, when
    the smallest gap ``|omega_i - gamma_j|`` is at most 1e-12 times the
    largest magnitude in either spectrum.

    Parameters
    ----------
    omega, gamma : array_like
        Nonempty real spectra.

    Raises
    ------
    SpectralOverlapError
        If the spectra overlap in the sense above, including the case
        where both contain zero.
    """
    w = _real_spectrum(omega, "omega")
    g = _real_spectrum(gamma, "gamma")
    values, overlap = _spectral_separations(w[None], g[None])
    if overlap[0]:
        raise SpectralOverlapError(
            "spectra overlap; the scale-free separation is undefined"
        )
    return SpectralSeparation(float(values[0]))


def _spectral_separations(omega, gamma) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`spectral_separation` over stacks of spectra.

    Parameters
    ----------
    omega, gamma : array_like, shapes (k, p) and (k, q)
        Row ``i`` of each holds one of the two spectra of pair ``i``.

    Returns
    -------
    values, overlap : ndarray, shape (k,)
        The separation of each pair, NaN where ``overlap`` is set, and
        whether the pair overlaps in the sense of :func:`spectral_separation`.
    """
    w = _real_spectra(omega, "omega")
    g = _real_spectra(gamma, "gamma")
    if w.shape[0] != g.shape[0]:
        raise DomainError(f"stacks of {w.shape[0]} and {g.shape[0]} spectra do not pair up")
    # In-place steps keep two (k, p, q) temporaries alive, not five.
    num = w[:, :, None] - g[:, None, :]
    np.abs(num, out=num)
    scale = np.maximum(np.abs(w).max(axis=1), np.abs(g).max(axis=1))
    overlap = num.min(axis=(1, 2)) <= _OVERLAP_RTOL * scale
    den = w[:, :, None] ** 2 + g[:, None, :] ** 2
    np.sqrt(den, out=den)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.divide(num, den, out=den).min(axis=(1, 2))
    values[overlap] = np.nan
    return values, overlap


def separation_bound(C, D, sep: SpectralSeparation) -> float:
    """Upper bound ``sqrt(||C||_F^2 + ||D||_F^2) / sep`` on ``||X||_F``."""
    if not sep.value > 0.0:
        raise DomainError(f"separation must be positive, got {sep.value}")
    return float(_separation_uppers(*_pair(C, D), np.array([sep.value]))[0])


def _separation_uppers(C: np.ndarray, D: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """Row-wise :func:`separation_bound` over stacks ``C[i]``, ``D[i]`` and
    positive separations ``sep[i]``."""
    fc = matrixcore._frobenius_norms(C)
    fd = matrixcore._frobenius_norms(D)
    return np.hypot(fc, fd) / sep


def norm_sum_bound(C, D) -> float:
    """Upper bound ``sqrt(||C||_F^2 + ||D||_F^2)`` on ``||X||_F``.

    Valid because the solution is a pointwise convex-like mix of `C` and
    `D` in the joint eigenbasis; it needs no spectral information at all.
    """
    C, D = _pair(C, D)
    return math.hypot(matrixcore.frobenius_norm(C[0]), matrixcore.frobenius_norm(D[0]))


def midpoint_bounds(C, D) -> BoundPair:
    """Enclosure ``(||C + D||_F -+ ||C - D||_F) / 2``, the symmetric
    enclosure at ``mu = 1``."""
    lower, upper = _symmetric_enclosures(*_pair(C, D), np.array([1.0]))
    return BoundPair(lower=float(lower[0]), upper=float(upper[0]), kind=BoundKind.MIDPOINT)


def _positive_extremes(w: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise smallest eigenvalue above the rank cutoff, and largest."""
    largest = np.maximum(w.max(axis=1), 0.0)
    pos = w > matrixcore.rank_cutoff((w.shape[1], w.shape[1]), largest)[:, None]
    if not pos.any(axis=1).all():
        raise DomainError(
            f"{name} has no eigenvalue above the rank tolerance; "
            "bound coefficients need a nonzero matrix"
        )
    return np.where(pos, w, np.inf).min(axis=1), largest


def _stacked_params(spectra_a, spectra_b) -> _StackedParams:
    """Weighted and symmetric parameters for stacks of PSD spectra.

    Row ``i`` of `spectra_a` and `spectra_b` holds the spectra of one pair
    `A`, `B`.  :func:`weighted_params_from_spectra` and
    :func:`symmetric_params_from_spectra` are the one-row case.
    """
    wa = _real_spectra(spectra_a, "spectra_a")
    wb = _real_spectra(spectra_b, "spectra_b")
    min_a, max_a = _positive_extremes(wa, "A")
    min_b, max_b = _positive_extremes(wb, "B")
    lambda1 = (1.0 / min_a) * max_b
    lambda2 = max_a * (1.0 / min_b)
    lam = np.maximum(np.maximum(lambda1, lambda2), 1.0)
    return _StackedParams(
        lambda1=lambda1,
        lambda2=lambda2,
        a=1.0 + 1.0 / lambda1,
        b=1.0 + 1.0 / lambda2,
        c=np.sqrt(np.maximum(0.0, 1.0 - 1.0 / (lambda1 * lambda2))),
        lam=lam,
        mu=np.sqrt((lam - 1.0) / (lam + 1.0)),
    )


def weighted_params_from_spectra(spectrum_a, spectrum_b) -> WeightedBoundParams:
    """Weighted-enclosure coefficients from PSD spectra of `A` and `B`."""
    p = _stacked_params(
        _real_spectrum(spectrum_a, "spectrum_a")[None],
        _real_spectrum(spectrum_b, "spectrum_b")[None],
    )
    return WeightedBoundParams(
        lambda1=float(p.lambda1[0]),
        lambda2=float(p.lambda2[0]),
        a=float(p.a[0]),
        b=float(p.b[0]),
        c=float(p.c[0]),
    )


def weighted_bound_params(A, B) -> WeightedBoundParams:
    """Weighted-enclosure coefficients for Hermitian PSD `A` and `B`.

    Raises
    ------
    DomainError
        If either matrix fails the Hermitian PSD check (relative tolerance
        1e-10) or is zero.
    """
    wa, _ = matrixcore.psd_eigh(A, "A")
    wb, _ = matrixcore.psd_eigh(B, "B")
    return weighted_params_from_spectra(wa, wb)


def weighted_bounds(C, D, params: WeightedBoundParams) -> BoundPair:
    """Enclosure ``(||a C + b D||_F -+ c ||C - D||_F) / (a + b)``.

    Exact on both sides when ``C == D`` and when `A` and `B` are positive
    scalar matrices, where ``c == 0`` collapses the enclosure to a point.
    """
    lower, upper = _weighted_enclosures(
        *_pair(C, D),
        np.array([params.a]), np.array([params.b]), np.array([params.c]),
    )
    return BoundPair(lower=float(lower[0]), upper=float(upper[0]), kind=BoundKind.WEIGHTED)


def _weighted_enclosures(C, D, a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`weighted_bounds` over stacks ``C[i]``, ``D[i]`` and
    coefficients ``a[i]``, ``b[i]``, ``c[i]``; returns lower and upper."""
    blend = matrixcore._frobenius_norms(a[:, None, None] * C + b[:, None, None] * D)
    gap = c * matrixcore._frobenius_norms(C - D)
    s = a + b
    return (blend - gap) / s, (blend + gap) / s


def symmetric_params_from_spectra(spectrum_a, spectrum_b) -> SymmetricBoundParams:
    """Symmetric-enclosure parameters from PSD spectra of `A` and `B`."""
    p = _stacked_params(
        _real_spectrum(spectrum_a, "spectrum_a")[None],
        _real_spectrum(spectrum_b, "spectrum_b")[None],
    )
    return SymmetricBoundParams(lam=float(p.lam[0]), mu=float(p.mu[0]))


def symmetric_bound_params(A, B) -> SymmetricBoundParams:
    """Symmetric-enclosure parameters for Hermitian PSD `A` and `B`; raises
    as :func:`weighted_bound_params`."""
    wa, _ = matrixcore.psd_eigh(A, "A")
    wb, _ = matrixcore.psd_eigh(B, "B")
    return symmetric_params_from_spectra(wa, wb)


def symmetric_bounds(C, D, params: SymmetricBoundParams) -> BoundPair:
    """Enclosure ``(||C + D||_F -+ mu ||C - D||_F) / 2`` with ``mu < 1``.

    Always at least as tight as the midpoint enclosure on both sides.
    """
    lower, upper = _symmetric_enclosures(*_pair(C, D), np.array([params.mu]))
    return BoundPair(lower=float(lower[0]), upper=float(upper[0]), kind=BoundKind.SYMMETRIC)


def _symmetric_enclosures(C, D, mu) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`symmetric_bounds` over stacks ``C[i]``, ``D[i]`` and
    weights ``mu[i]``; returns lower and upper."""
    s = matrixcore._frobenius_norms(C + D)
    gap = mu * matrixcore._frobenius_norms(C - D)
    return (s - gap) / 2.0, (s + gap) / 2.0
