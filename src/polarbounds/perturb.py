"""Bounds on polar factor changes under two-sided multiplicative perturbation.

A perturbed matrix ``B = D1* A D2`` with nonsingular `D1`, `D2` has the
same rank as `A`, so both polar factors of `B` are comparable with those
of `A`.  For any pair of complex probe parameters ``(s, t)`` three
computable terms bound the subunitary factor change ``||V - U||_F`` and
three more, functions of `s` alone, bound the PSD factor change ``|| |B| -
|A| ||_F``, in both cases through ``sqrt(term1^2 + term2^2 - term3^2)``.
The probe ``(1, 1)`` already dominates the classical bounds.  The radicand
is a real quadratic in the real and imaginary parts of the probe, so the
best probe has a closed form, and it can only tighten the result.

The bound families are indexed 0 (subunitary) and 1 (PSD).  Both come
from one build of the six term matrices, which forms each product they
share once.  A scenario keeps each family's term matrices in affine form
and its report at (1, 1), so the terms of each (family, probe) pair are
evaluated once.  The work of a scenario runs on stacks, as its matrices
are small and each numpy or LAPACK call costs microseconds of overhead:
`A` and `B` share one SVD call and one polar build (one per dtype, when
`A` is real and `B` complex), and a family's three terms at a probe take
one evaluation and one pass of BLAS ``nrm2`` over its stacked form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import bounds, matrixcore
from .exceptions import DomainError, NumericalError
from .polar import PolarFactors, _polar_from_svd

__all__ = [
    "SearchStrategy",
    "PerturbationScenario",
    "PolarPerturbReport",
    "make_scenario",
    "subunitary_terms",
    "psd_terms",
    "subunitary_bound",
    "psd_factor_bound",
    "chen_li_sun_bound",
    "hong_meng_zheng_bound",
]

_COND_WARN = 1e12
# The probe (1, 1) and its four unit steps along x = (Re s - 1, Im s,
# Re t - 1, Im t), shaped so one term-matrix build evaluates all five.
_PROBE_S = np.array([1, 2, 1 + 1j, 1, 1], dtype=np.complex128).reshape(5, 1, 1)
_PROBE_T = np.array([1, 1, 1, 2, 1 + 1j], dtype=np.complex128).reshape(5, 1, 1)


class SearchStrategy(Enum):
    """How to pick the probe pair ``(s, t)`` for a bound evaluation."""

    AT_ONE_ONE = "at-one-one"
    OPTIMAL = "optimal"
    # Alias of OPTIMAL (same value), kept so callers that name it still run.
    GRID_THEN_LOCAL_SEARCH = "optimal"


@dataclass(frozen=True, eq=False)
class PerturbationScenario:
    """Original matrix, perturbers, and everything derived from them.

    `A` is m x n, `D1` (m x m) and `D2` (n x n) are nonsingular, and
    ``B = D1* A D2``.  `polar_a` and `polar_b` hold the generalized polar
    factors of `A` and `B`; their subunitary factors are written `U` and
    `V` in the term formulas.  `lam`, which scales the correction term of
    each bound, is ``max(||pinv(A)||_2 ||B||_2, ||A||_2 ||pinv(B)||_2, 1)``
    by the rule of :func:`bounds._lambdas`.  Computed on first use and
    kept: `_forms`, the term matrices of the subunitary and the PSD bound
    (families 0 and 1) as affine functions of the probe, the PSD ones of
    `s` alone, one stack of the three terms per family, and
    `_forms_finite`, whether they are finite; `_report_11`, the report at
    (1, 1); and `_factor_diffs`, the true factor changes.
    """

    A: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    B: np.ndarray
    polar_a: PolarFactors
    polar_b: PolarFactors
    lam: float
    norm_a: float
    norm_b: float
    d1_inv: np.ndarray
    d2_inv: np.ndarray

    @cached_property
    def _forms(self) -> tuple[np.ndarray, np.ndarray]:
        """The three terms of each family in affine form, from one batched build.

        Each term matrix is affine in `s`, `conj(s)`, `t` and `conj(t)`, hence
        real-affine in ``x = (Re s - 1, Im s, Re t - 1, Im t)``: its value at
        (1, 1) and its changes along the unit steps determine it.  A family's
        three terms, flattened in row-major order, have the same number `N`
        of entries, and its form is one 3 x 5 x N array `G` (3 x 3 x N and no
        `t` steps for the PSD terms): term `i` is ``G[i, 0] + x[:k - 1] @
        G[i, 1:]``, `k` = ``G.shape[1]``, ``G[i, 0]`` the term at (1, 1).
        Steps that overflow are kept as inf or NaN, without a warning;
        :attr:`_forms_finite` and the norms of :func:`_terms` judge them.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            T = _term_matrices(self, _PROBE_S, _PROBE_T)
            forms = tuple(
                np.array([M[:k].reshape(k, -1) for M in family])
                for family, k in ((T[:3], 5), (T[3:], 3))
            )
            for G in forms:
                G[:, 1:] -= G[:, :1]
        return forms

    @cached_property
    def _forms_finite(self) -> bool:
        """Whether every entry of both forms is finite: no step overflowed."""
        return all(np.isfinite(G).all() for G in self._forms)

    @cached_property
    def _report_11(self) -> PolarPerturbReport:
        return _report_at(self, 1, 1)

    @cached_property
    def _factor_diffs(self) -> tuple[float, float]:
        """``||V - U||_F`` and ``|| |B| - |A| ||_F``."""
        return (
            matrixcore.frobenius_norm(self.polar_b.U - self.polar_a.U),
            matrixcore.frobenius_norm(self.polar_b.H - self.polar_a.H),
        )


@dataclass(frozen=True)
class PolarPerturbReport:
    """Bound evaluation at one probe pair, next to the true factor changes.

    `subunitary_bound` dominates ``||V - U||_F`` and `psd_bound` dominates
    ``|| |B| - |A| ||_F`` at every valid probe; the clamp flags record
    whether the squared-term combination went negative and was clamped to
    zero before the square root.
    """

    s: complex
    t: complex
    subunitary_terms: tuple[float, float, float]
    psd_terms: tuple[float, float, float]
    subunitary_bound: float
    psd_bound: float
    subunitary_diff: float
    psd_diff: float
    subunitary_clamped: bool
    psd_clamped: bool


def _checked_inverse(D: np.ndarray, name: str) -> np.ndarray:
    """``inv(D)``, from `D` scaled by :func:`matrixcore._pow2_scaled`, so
    that neither its singular values nor its inverse under- or overflow on
    the way when `D` lies near the largest double."""
    S, e = matrixcore._pow2_scaled(D)
    s = np.linalg.svd(S, compute_uv=False)
    if float(s[-1]) <= matrixcore.rank_cutoff(D.shape, float(s[0])):
        raise DomainError(f"{name} is singular within working precision")
    cond = float(s[0]) / float(s[-1])
    if cond > _COND_WARN:
        warnings.warn(
            f"{name} has condition number {cond:.2e}; inverse-based terms "
            "may lose accuracy",
            RuntimeWarning,
            stacklevel=3,
        )
    try:
        inverse = np.linalg.inv(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"inversion of {name} failed") from exc
    return np.ldexp(inverse.view(np.float64), -e).view(inverse.dtype)


def make_scenario(A, D1, D2) -> PerturbationScenario:
    """Build a perturbation scenario ``B = D1* A D2``, `lam` by :func:`bounds._lambdas`.

    Parameters
    ----------
    A : (m, n) array_like
        Matrix to perturb; any rank.
    D1 : (m, m) array_like
        Nonsingular left perturber.
    D2 : (n, n) array_like
        Nonsingular right perturber.

    Raises
    ------
    DomainError
        On shape mismatch, if either perturber is singular within working
        precision, or if an entry of ``B = D1* A D2`` overflows.  A
        condition number above 1e12 only warns.
    NumericalError
        If a singular value of `A` or `B` overflows the largest double (see
        :func:`matrixcore.svd`), or if `B` and `A` differ in numerical rank,
        as when ``B`` underflows to 0.
    """
    A = matrixcore.as_matrix(A, "A")
    D1 = matrixcore.require_square(D1, "D1")
    D2 = matrixcore.require_square(D2, "D2")
    m, n = A.shape
    if D1.shape != (m, m) or D2.shape != (n, n):
        raise DomainError(
            f"perturbers must be {m} x {m} and {n} x {n}, "
            f"got {D1.shape} and {D2.shape}"
        )
    d1_inv = _checked_inverse(D1, "D1")
    d2_inv = _checked_inverse(D2, "D2")
    B = (D1.conj().T @ A) @ D2
    names = ("A", "B = D1* A D2")
    if not np.isfinite(B).all():
        # LAPACK may not return on a non-finite matrix, so B never enters
        # the stacked call; A is factored first, as its errors come first.
        matrixcore.svd(A, names[0])
        raise DomainError(f"{names[1]} contains non-finite entries")
    # One SVD call and one polar build per dtype: A real and B complex go
    # apart, as promoting A to complex would factor it to other bits.
    stacks = (
        [(np.array((A, B)), names)]
        if A.dtype == B.dtype
        else [(A[None], names[:1]), (B[None], names[1:])]
    )
    svds = [matrixcore._svds(*stack) for stack in stacks]
    (sigma_a, rank_a), (sigma_b, rank_b) = (
        pair for P, sigma, Q, ranks in svds for pair in zip(sigma, ranks)
    )
    if rank_b != rank_a:
        raise NumericalError(
            f"B = D1* A D2 has numerical rank {rank_b}, but A has rank "
            f"{rank_a}; the polar factors are not comparable"
        )
    polar_a, polar_b = (
        PolarFactors(U=U, H=H, rank=rank_a)
        for P, sigma, Q, _ in svds
        for U, H in zip(*_polar_from_svd(P, sigma, Q, rank_a))
    )
    norm_a, norm_b = float(sigma_a[0]), float(sigma_b[0])
    # The smallest kept singular value; inf at rank 0 gives a ratio of 0.
    min_a, min_b = (sigma[rank_a - 1] if rank_a else np.inf for sigma in (sigma_a, sigma_b))
    lam = float(bounds._lambdas(min_a, norm_a, min_b, norm_b)[2])
    return PerturbationScenario(
        A=A,
        D1=D1,
        D2=D2,
        B=B,
        polar_a=polar_a,
        polar_b=polar_b,
        lam=lam,
        norm_a=norm_a,
        norm_b=norm_b,
        d1_inv=d1_inv,
        d2_inv=d2_inv,
    )


def _term_matrices(sc: PerturbationScenario, s, t) -> tuple[np.ndarray, ...]:
    """The six term matrices at probe ``(s, t)``: first the three whose
    Frobenius norms bound ``||V - U||_F``, then the three that bound
    ``|| |B| - |A| ||_F``.

    `s` and `t` are complex scalars, or ``(k, 1, 1)`` arrays for a stack
    of `k` evaluations per term.  Each product that several terms share is
    formed once.

    The PSD terms are built without `t`: the paper's first and third hold
    ``t (V* D1* A - |B| inv(D2))`` and ``t (V* D1* A - |B| inv(D2) U* U)``,
    and both vanish, as ``V* D1* A D2 = V* V |B| = |B|`` and ``|B| inv(D2)
    U* U = V* D1* A U* U = V* D1* U |A| U* U = V* D1* A``.
    """
    U, V, A = sc.polar_a.U, sc.polar_b.U, sc.A
    Us, Vs = U.conj().T, V.conj().T
    corange_a, corange_b, range_b = Us @ U, Vs @ V, V @ Vs
    Im, In = (np.eye(k, dtype=np.complex128) for k in A.shape)
    abs_a, abs_b = sc.polar_a.H, sc.polar_b.H
    cs_d1_inv, cs_d2a = (np.conj(s) * M for M in (sc.d1_inv, sc.D2.conj().T))
    t_d2_inv, s_d2 = t * sc.d2_inv, s * sc.D2
    mix = Vs @ cs_d1_inv @ A
    return (
        V @ (In - t_d2_inv) + range_b @ (cs_d1_inv - Im) @ U,
        Us @ (np.conj(t) * sc.D1 - Im) + corange_a @ (In - s_d2) @ Vs,
        V @ (cs_d2a - t_d2_inv) @ corange_a + range_b @ (cs_d1_inv - t * sc.D1.conj().T) @ U,
        abs_b - mix,
        abs_a @ (s_d2 - In),
        abs_b @ corange_a - mix - corange_b @ (cs_d2a - In) @ abs_a,
    )


def _terms(sc: PerturbationScenario, family: int, s, t) -> tuple[float, float, float]:
    s, t = complex(s), complex(t)
    G = sc._forms[family]
    x = np.array([s.real - 1.0, s.imag, t.real - 1.0, t.imag])[: G.shape[1] - 1]
    # Each row holds the entries of its term matrix in row-major order, so
    # its norm is the matrix's.  At (1, 1) the terms are the built ones: the
    # step is skipped, because a step row that overflowed to an infinity
    # would add 0 * inf = NaN.
    rows = G[:, 0] + x @ G[:, 1:] if x.any() else G[:, 0]
    norms = matrixcore._row_norms(rows)
    for k, (norm, row) in enumerate(zip(norms, rows), 1):
        if not math.isfinite(norm) and not np.isfinite(row).all():
            raise DomainError(
                f"{('subunitary', 'PSD')[family]} term {k} at probe s = {s}, "
                f"t = {t} has non-finite entries"
            )
    t1, t2, t3 = norms
    return t1, t2, t3 / math.sqrt(sc.lam + 1.0)


def subunitary_terms(
    scenario: PerturbationScenario, s: complex, t: complex
) -> tuple[float, float, float]:
    """The three terms bounding ``||V - U||_F`` at probe ``(s, t)``.

    All three vanish at ``(1, 1)`` when ``D1 == D2 == I``.
    """
    return _terms(scenario, 0, s, t)


def psd_terms(
    scenario: PerturbationScenario, s: complex, t: complex
) -> tuple[float, float, float]:
    """The three terms bounding ``|| |B| - |A| ||_F`` at probe ``(s, t)``."""
    return _terms(scenario, 1, s, t)


def _combine(terms: tuple[float, float, float]) -> tuple[float, bool]:
    """``sqrt(t1^2 + t2^2 - t3^2)`` and whether a negative radicand was
    clamped to zero.  The three floats are squared after the scaling of
    :func:`matrixcore._pow2_scaled`, done here on scalars, so no square
    overflows; a result beyond the largest double gives inf, as
    :func:`matrixcore.frobenius_norm` does.  An infinite `t3` leaves the
    radicand's sign unknown: the result is NaN, never a clamp to zero."""
    t1, t2, t3 = terms
    if math.isinf(t3):
        return math.nan, False
    e = math.frexp(max(terms))[1]
    t1, t2, t3 = math.ldexp(t1, -e), math.ldexp(t2, -e), math.ldexp(t3, -e)
    radicand = t1 * t1 + t2 * t2 - t3 * t3
    if radicand < 0.0:
        return 0.0, True
    try:
        return math.ldexp(math.sqrt(radicand), e), False
    except OverflowError:
        return math.inf, False


def _report_at(scenario: PerturbationScenario, s: complex, t: complex) -> PolarPerturbReport:
    sub, psd = subunitary_terms(scenario, s, t), psd_terms(scenario, s, t)
    (sub_bound, sub_clamped), (psd_bound, psd_clamped) = _combine(sub), _combine(psd)
    sub_diff, psd_diff = scenario._factor_diffs
    return PolarPerturbReport(
        s=complex(s), t=complex(t), subunitary_terms=sub, psd_terms=psd,
        subunitary_bound=sub_bound, psd_bound=psd_bound,
        subunitary_diff=sub_diff, psd_diff=psd_diff,
        subunitary_clamped=sub_clamped, psd_clamped=psd_clamped,
    )


def _radicand_form(sc: PerturbationScenario, family: int) -> np.ndarray:
    """Real `Q` with ``4^-e (t1^2 + t2^2 - t3^2) = [1; x]^T Q [1; x]``.

    Here `x` is the step from the probe (1, 1), and the terms are those of
    `family`, `t3` scaled by ``1 / sqrt(lam + 1)``.  Each term is ``G[0] +
    x @ G[1:]`` (see :attr:`PerturbationScenario._forms`), so `Q` is 5 x 5,
    or 3 x 3 for the PSD family, and each squared norm is exactly the
    quadratic form of ``Re(conj(G) G^T)``, all three from one product on the
    family's stack, which is scaled as one by :func:`matrixcore._pow2_scaled`;
    ``4^e`` does not move the minimizer of `Q`.  `Q` is symmetric up to
    round-off.
    """
    G = matrixcore._pow2_scaled(sc._forms[family])[0]
    weights = np.array([1.0, 1.0, -1.0 / (sc.lam + 1.0)]).reshape(3, 1, 1)
    return sum(weights * (G.conj() @ G.swapaxes(-1, -2)).real)


def _optimal_probe(sc: PerturbationScenario, family: int) -> tuple[complex, complex]:
    """The probe minimizing the radicand of `family` over all ``(s, t)``.

    Every probe gives a valid bound, so the radicand is bounded below and
    its Hessian is positive semidefinite up to round-off.  The step `x`
    from (1, 1) solves ``H x = -g`` in the pseudo-inverse sense: Hessian
    eigenvalues at or below the rank cutoff, round-off negatives included,
    count as zero.  Along flat directions this keeps the probe at (1, 1),
    where the terms are the built matrices themselves, with no round-off
    from the affine steps.  The PSD bound is a function of `s` alone, so
    no search runs over `t`, and the PSD probe has ``t = 1`` exactly.  `Q`
    is scaled by a power of 4, which does not move its minimizer.
    """
    Q = _radicand_form(sc, family)
    H, g = Q[1:, 1:], Q[1:, 0]
    w, vecs = np.linalg.eigh(H)
    kept = matrixcore._above_cutoff(w)
    basis = vecs[:, kept]
    x = np.concatenate((-basis @ ((basis.T @ g) / w[kept]), np.zeros(4 - len(g))))
    return 1 + complex(x[0], x[1]), 1 + complex(x[2], x[3])


def _bound(
    scenario: PerturbationScenario, strategy: SearchStrategy, family: int
) -> PolarPerturbReport:
    """The kept report at (1, 1), or the report at the optimal probe of
    `family` when its bound for `family` is strictly below the one at (1, 1).

    A report evaluates both families, so the search is skipped where a term
    form of either holds a step that overflowed, and a probe whose terms
    overflow, which the norms reject, is not taken.
    """
    report = scenario._report_11
    if strategy is not SearchStrategy.OPTIMAL or not scenario._forms_finite:
        return report
    try:
        searched = _report_at(scenario, *_optimal_probe(scenario, family))
    except DomainError:
        return report
    field = ("subunitary_bound", "psd_bound")[family]
    return searched if getattr(searched, field) < getattr(report, field) else report


def subunitary_bound(
    scenario: PerturbationScenario,
    strategy: SearchStrategy = SearchStrategy.AT_ONE_ONE,
) -> PolarPerturbReport:
    """Bound ``||V - U||_F`` at (1, 1) or at the optimal probe.

    Returns the full report at the chosen probe; every probe yields a
    valid bound, so the optimized result is valid and never worse than
    the bound at (1, 1).
    """
    return _bound(scenario, strategy, 0)


def psd_factor_bound(
    scenario: PerturbationScenario,
    strategy: SearchStrategy = SearchStrategy.AT_ONE_ONE,
) -> PolarPerturbReport:
    """Bound ``|| |B| - |A| ||_F`` at (1, 1) or at the optimal probe."""
    return _bound(scenario, strategy, 1)


def chen_li_sun_bound(D1, D2) -> float:
    """Classical subunitary-factor bound from the perturbers alone.

    ``sqrt((||I - inv(D1)||_F + ||I - inv(D2)||_F)^2
    + (||I - D1||_F + ||I - D2||_F)^2)``; the bound at probe (1, 1) never
    exceeds it.
    """
    D1 = matrixcore.require_square(D1, "D1")
    D2 = matrixcore.require_square(D2, "D2")
    return _chen_li_sun(D1, _checked_inverse(D1, "D1"), D2, _checked_inverse(D2, "D2"))


def _chen_li_sun(D1, d1_inv, D2, d2_inv) -> float:
    """:func:`chen_li_sun_bound` from checked perturbers and their inverses."""
    fro = matrixcore.frobenius_norm
    Im, In = np.eye(len(D1), dtype=D1.dtype), np.eye(len(D2), dtype=D2.dtype)
    inv_part = fro(Im - d1_inv) + fro(In - d2_inv)
    direct_part = fro(Im - D1) + fro(In - D2)
    return _combine((inv_part, direct_part, 0.0))[0]


def hong_meng_zheng_bound(scenario: PerturbationScenario) -> float:
    """Classical PSD-factor bound; the bound at probe (1, 1) never exceeds it.

    With ``rho = ||B||_2 ||I - inv(D2)||_F + ||D1* - inv(D1)||_F ||A||_2``
    the bound is ``sqrt(rho^2 + ||A||_2^2 ||I - D2||_F^2)``.  A Frobenius
    norm here is inf only where the norm of finite entries overflows, so a
    product with a spectral norm of 0 is 0, never ``0 * inf = NaN``.
    """
    sc = scenario
    In = np.eye(sc.A.shape[1], dtype=np.complex128)

    def times(norm2: float, M: np.ndarray) -> float:
        fro = matrixcore.frobenius_norm(M)
        return norm2 * fro if norm2 else 0.0

    rho = times(sc.norm_b, In - sc.d2_inv) + times(sc.norm_a, sc.D1.conj().T - sc.d1_inv)
    direct = times(sc.norm_a, In - sc.D2)
    return _combine((rho, direct, 0.0))[0]
