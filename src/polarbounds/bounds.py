"""Frobenius-norm enclosures for the range-conforming Sylvester solution.

Given ``A X + X B = A C + D B`` with Hermitian PSD coefficients, every
routine here encloses ``||X||_F`` using only norms of the data matrices
and coarse spectral information about `A` and `B`:

- a crude upper bound ``sqrt(||C||_F^2 + ||D||_F^2)``, optionally divided
  by a scale-free separation of the spectra of `A` and `-B`;
- a weighted enclosure ``(||a C + b D||_F -+ c ||C - D||_F) / (a + b)``
  with data-dependent coefficients `a`, `b`, `c`;
- a symmetric enclosure, the weighted one at ``a = b = 1`` with a single
  gap weight ``c = mu <= 1`` derived from the worst conditioning of the two
  coefficients;
- a midpoint enclosure ``(||C + D||_F -+ ||C - D||_F) / 2``, the weighted
  one at ``a = b = c = 1``.
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
    "WeightedBoundParams",
    "SymmetricBoundParams",
    "spectral_separation",
    "separation_bound",
    "norm_sum_bound",
    "midpoint_bounds",
    "weighted_params_from_spectra",
    "weighted_bounds",
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
    ``c = sqrt(1 - 1/(lambda1 lambda2))``; always ``c < min(a, b)``.  In
    the stacked forms each field is an array with one entry per pair.
    """

    lambda1: float
    lambda2: float
    a: float
    b: float
    c: float


@dataclass(frozen=True)
class SymmetricBoundParams:
    """Single gap weight ``mu = sqrt((lam - 1)/(lam + 1))``, below 1 unless
    ``lam = max(lambda1, lambda2, 1)`` overflows; arrays in the stacked forms."""

    lam: float
    mu: float


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


def _stack_of_one(spectrum, name: str) -> np.ndarray:
    """Real one-dimensional `spectrum` as a stack of one, for the one-row case
    of a stacked form, which validates it."""
    try:
        w = np.asarray(spectrum, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real spectrum") from exc
    if w.ndim > 1:
        raise DomainError(f"{name} must be one-dimensional, got shape {w.shape}")
    return w.reshape(1, -1)


def _pair(C, D) -> tuple[np.ndarray, np.ndarray]:
    """Data matrices `C` and `D` as stacks of one, for the one-row case of a
    stacked form; :class:`DomainError` unless both are finite matrices of
    one shape."""
    C = matrixcore.as_matrix(C, "C")
    D = matrixcore.as_matrix(D, "D")
    if C.shape != D.shape:
        raise DomainError(f"C and D must have the same shape, got {C.shape} and {D.shape}")
    return C[None], D[None]


def _one_enclosure(kind: BoundKind, C, D, a: float, b: float, c: float) -> BoundPair:
    """The enclosure at coefficients `a`, `b`, `c` for one pair, reported as
    `kind`: the one-row case of :func:`_enclosures`.  An infinite `b` (`a`)
    gives the limit ``||D||_F`` (``||C||_F``) on both sides, where `c` drops
    out; a non-finite enclosure is evaluated again with the coefficients and
    the data each scaled by :func:`matrixcore._pow2_scaled`, and the data's
    scaling multiplied back.
    """
    C, D = _pair(C, D)
    if math.isinf(b) or math.isinf(a):
        limit = float(matrixcore._frobenius_norms(D if math.isinf(b) else C)[0])
        return BoundPair(lower=limit, upper=limit, kind=kind)
    coefficients = np.array([[a], [b], [c]])
    with np.errstate(over="ignore", invalid="ignore"):
        pair = _data_enclosures(C, D, coefficients)
        if not np.isfinite(pair).all():
            coefficients = matrixcore._pow2_scaled(coefficients)[0]
            data, e = matrixcore._pow2_scaled(np.concatenate((C, D)))
            pair = np.ldexp(_data_enclosures(data[:1], data[1:], coefficients), e)
    (lower,), (upper,) = pair.tolist()
    return BoundPair(lower=lower, upper=upper, kind=kind)


def _data_enclosures(C, D, coefficients) -> np.ndarray:
    """:func:`_enclosures` of stacks `C`, `D` at the rows ``a, b, c`` of
    `coefficients`, as the rows (lower, upper)."""
    diff = matrixcore._frobenius_norms(C - D)
    return np.array(_enclosures(_blends(C, D, *coefficients[:2]), diff, *coefficients))


def spectral_separation(omega, gamma) -> float:
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
    values, overlap = _spectral_separations(
        _stack_of_one(omega, "omega"), _stack_of_one(gamma, "gamma")
    )
    if overlap[0]:
        raise SpectralOverlapError(
            "spectra overlap; the scale-free separation is undefined"
        )
    return float(values[0])


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
    # Pairs run along the last, contiguous axis, so each reduction is an
    # elementwise pass; the values are nonnegative, with no -0.0, so the
    # order does not show.  In-place steps keep two temporaries alive, not five.
    w, g = np.ascontiguousarray(w.T)[:, None], np.ascontiguousarray(g.T)[None]
    num = w - g
    np.abs(num, out=num)
    scale = np.maximum(np.abs(w).max(axis=(0, 1)), np.abs(g).max(axis=(0, 1)))
    overlap = num.min(axis=(0, 1)) <= _OVERLAP_RTOL * scale
    den = np.hypot(w, g)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.divide(num, den, out=den).min(axis=(0, 1))
    values[overlap] = np.nan
    return values, overlap


def separation_bound(C, D, sep: float) -> float:
    """Upper bound ``sqrt(||C||_F^2 + ||D||_F^2) / sep`` on ``||X||_F``, for
    ``0 < sep < inf``; an infinite `sep` would give the false bound 0."""
    if not 0.0 < sep < math.inf:
        raise DomainError(f"separation must be positive and finite, got {sep}")
    fc, fd = map(matrixcore._frobenius_norms, _pair(C, D))
    return float(_separation_uppers(fc, fd, np.array([sep]))[0])


def _separation_uppers(fc: np.ndarray, fd: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """Row-wise :func:`separation_bound` from ``fc[i] = ||C[i]||_F``,
    ``fd[i] = ||D[i]||_F`` and positive separations ``sep[i]``."""
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
    return _one_enclosure(BoundKind.MIDPOINT, C, D, 1.0, 1.0, 1.0)


def _kept_extremes(spectra, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise smallest eigenvalue above the rank cutoff, and largest, of
    the stack `spectra` of the PSD matrix `name`."""
    # Pairs along the last axis, as in :func:`_spectral_separations`.
    w = np.ascontiguousarray(_real_spectra(spectra, f"spectra_{name.lower()}").T)
    pos = matrixcore._above_cutoff(w)
    if not pos.any(axis=0).all():
        raise DomainError(
            f"{name} has no eigenvalue above the rank tolerance; "
            "bound coefficients need a nonzero matrix"
        )
    return np.where(pos, w, np.inf).min(axis=0), w.max(axis=0)


def _lambdas(min_a, max_a, min_b, max_b):
    """``lambda1 = ||pinv(A)||_2 ||B||_2``, ``lambda2 = ||A||_2 ||pinv(B)||_2``
    and ``lam = max(lambda1, lambda2, 1)``, elementwise, from the smallest
    kept and the largest singular values of `A` and `B`: the one rule of the
    enclosures and the perturbation bounds.  Each ratio is ``(1 / min) * max``,
    or ``max / min`` where the reciprocal of a subnormal `min` overflows; a
    `min` of ``inf`` (rank 0) gives 0."""
    lo, hi = np.array((min_a, min_b)), np.array((max_b, max_a))
    with np.errstate(over="ignore"):
        inverse = 1.0 / lo
        ratios = np.where(np.isfinite(inverse), inverse * hi, hi / lo)
    return ratios[0], ratios[1], np.maximum(ratios.max(axis=0), 1.0)


def _stacked_params(spectra_a, spectra_b) -> tuple[WeightedBoundParams, SymmetricBoundParams]:
    """Weighted and symmetric parameters for stacks of PSD spectra.

    Row ``i`` of `spectra_a` and `spectra_b` holds the spectra of one pair
    `A`, `B`.  :func:`weighted_params_from_spectra` and
    :func:`symmetric_params_from_spectra` are the one-row case.  The ratios
    come from :func:`_lambdas`; where `lam` is infinite, `mu` is its limit 1,
    to which ``(lam - 1) / (lam + 1)`` rounds at the largest double.
    """
    l1, l2, lam = _lambdas(*_kept_extremes(spectra_a, "A"), *_kept_extremes(spectra_b, "B"))
    capped = np.minimum(lam, np.finfo(np.float64).max)
    # Where lambda1 or lambda2 leaves the double range, `a` or `b` is inf and
    # `c` can be NaN; the one-row enclosure takes its limit there.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = np.sqrt(np.maximum(0.0, 1.0 - 1.0 / (l1 * l2)))
        a, b = 1.0 + 1.0 / l1, 1.0 + 1.0 / l2
    return (
        WeightedBoundParams(lambda1=l1, lambda2=l2, a=a, b=b, c=c),
        SymmetricBoundParams(lam=lam, mu=np.sqrt((capped - 1.0) / (capped + 1.0))),
    )


def _one_row(spectrum_a, spectrum_b) -> tuple[WeightedBoundParams, SymmetricBoundParams]:
    """Row 0 of :func:`_stacked_params` for one pair of spectra, as floats."""
    stacked = _stacked_params(
        _stack_of_one(spectrum_a, "spectrum_a"), _stack_of_one(spectrum_b, "spectrum_b")
    )
    return tuple(type(p)(*(float(v[0]) for v in vars(p).values())) for p in stacked)


def weighted_params_from_spectra(spectrum_a, spectrum_b) -> WeightedBoundParams:
    """Weighted-enclosure coefficients from PSD spectra of `A` and `B`."""
    return _one_row(spectrum_a, spectrum_b)[0]


def weighted_bounds(C, D, params: WeightedBoundParams) -> BoundPair:
    """Enclosure ``(||a C + b D||_F -+ c ||C - D||_F) / (a + b)``.

    Exact on both sides when ``C == D`` and when `A` and `B` are positive
    scalar matrices, where ``c == 0`` collapses the enclosure to a point.
    """
    return _one_enclosure(BoundKind.WEIGHTED, C, D, params.a, params.b, params.c)


def _blends(C, D, a, b) -> np.ndarray:
    """``||a[i] C[i] + b[i] D[i]||_F`` over stacks ``C[i]``, ``D[i]``; at
    ``a = b = 1`` it is ``||C + D||_F`` bit for bit, as scaling by 1 is exact."""
    return matrixcore._frobenius_norms(a[:, None, None] * C + b[:, None, None] * D)


def _enclosures(blend, diff, a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (lower, upper) of :func:`weighted_bounds` from the norms
    ``blend`` (:func:`_blends`) and ``diff[i] = ||C[i] - D[i]||_F`` and the
    coefficients ``a[i]``, ``b[i]``, ``c[i]``.

    The symmetric and midpoint enclosures are the rows with ``a = b = 1``.
    """
    gap = c * diff
    s = a + b
    return (blend - gap) / s, (blend + gap) / s


def symmetric_params_from_spectra(spectrum_a, spectrum_b) -> SymmetricBoundParams:
    """Symmetric-enclosure parameters from PSD spectra of `A` and `B`."""
    return _one_row(spectrum_a, spectrum_b)[1]


def symmetric_bounds(C, D, params: SymmetricBoundParams) -> BoundPair:
    """Enclosure ``(||C + D||_F -+ mu ||C - D||_F) / 2`` with ``mu <= 1``.

    Always at least as tight as the midpoint enclosure on both sides.
    """
    return _one_enclosure(BoundKind.SYMMETRIC, C, D, 1.0, 1.0, params.mu)
