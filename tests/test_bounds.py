import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from polarbounds import bounds as bounds_mod
from polarbounds import matrixcore
from polarbounds.bounds import (
    BoundKind,
    SymmetricBoundParams,
    WeightedBoundParams,
    midpoint_bounds,
    norm_sum_bound,
    separation_bound,
    spectral_separation,
    symmetric_bounds,
    symmetric_params_from_spectra,
    weighted_bounds,
    weighted_params_from_spectra,
)
from polarbounds.exceptions import DomainError, SpectralOverlapError
from polarbounds.sylvester import solve_structured, structured_problem
from conftest import INTEGER_DTYPES, PROPERTY, complex_gaussian, integer_matrix, random_psd


class TestSpectralSeparation:
    def test_symmetric_pair(self):
        sep = spectral_separation([1.0], [-1.0])
        assert sep == pytest.approx(math.sqrt(2.0))

    def test_single_pair(self):
        sep = spectral_separation([2.0], [1.0])
        assert sep == pytest.approx(1.0 / math.sqrt(5.0))

    def test_reciprocal_spectrum_coincidence(self):
        # For gamma2 = 1/gamma1 both pairs against omega = 1 give the same
        # value (1 + g) / sqrt(1 + g^2); this is the worked-example setup.
        g = (5.0 - math.sqrt(21.0)) / 2.0
        sep = spectral_separation([1.0, 1.0], [-g, -1.0 / g])
        assert sep == pytest.approx(1.1832159566199232, abs=1e-15)

    def test_min_over_all_pairs(self):
        sep = spectral_separation([1.0, 10.0], [2.0, -3.0])
        expected = min(
            abs(w - g) / math.sqrt(w * w + g * g)
            for w in (1.0, 10.0)
            for g in (2.0, -3.0)
        )
        assert sep == pytest.approx(expected)

    @pytest.mark.parametrize(
        "omega, gamma, expected",
        [(1e200, -1e-200, 1.0), (1e-170, -1e-170, math.sqrt(2.0))],
    )
    def test_no_overflow_or_underflow_at_extreme_scales(self, omega, gamma, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_separation([omega], [gamma]) == expected

    def test_overlap_rejected(self):
        with pytest.raises(SpectralOverlapError):
            spectral_separation([1.0, 2.0], [2.0, 5.0])

    def test_common_zero_rejected(self):
        with pytest.raises(SpectralOverlapError):
            spectral_separation([0.0, 1.0], [0.0, -1.0])

    def test_near_overlap_tolerance(self):
        with pytest.raises(SpectralOverlapError):
            spectral_separation([1.0], [1.0 + 1e-14])
        assert spectral_separation([1.0], [1.0 + 1e-9]) > 0.0

    def test_rejects_empty_spectrum(self):
        with pytest.raises(DomainError):
            spectral_separation([], [1.0])


class TestStackedForms:
    """The stacked forms equal the one-pair functions bit for bit."""

    def test_separations_match_rows(self):
        rng = np.random.default_rng(140)
        wa = rng.random((50, 3))
        wb = -rng.random((50, 3))
        wb[7] = wa[7]  # an exact overlap
        values, overlap = bounds_mod._spectral_separations(wa, wb)
        for row in range(50):
            if row == 7:
                assert overlap[row] and np.isnan(values[row])
                with pytest.raises(SpectralOverlapError):
                    spectral_separation(wa[row], wb[row])
            else:
                assert not overlap[row]
                assert values[row] == spectral_separation(wa[row], wb[row])

    def test_separations_reject_unpaired_stacks(self):
        with pytest.raises(DomainError):
            bounds_mod._spectral_separations(np.ones((2, 3)), -np.ones((3, 3)))

    def test_params_match_rows(self):
        rng = np.random.default_rng(141)
        wa = rng.random((50, 3))
        wb = rng.random((50, 2))
        wa[3, 0] = 0.0  # a zero eigenvalue below the rank cutoff
        weighted, symmetric = bounds_mod._stacked_params(wa, wb)
        for row in range(50):
            w = weighted_params_from_spectra(wa[row], wb[row])
            s = symmetric_params_from_spectra(wa[row], wb[row])
            got = tuple(
                float(getattr(weighted, k)[row]) for k in ("lambda1", "lambda2", "a", "b", "c")
            ) + tuple(float(getattr(symmetric, k)[row]) for k in ("lam", "mu"))
            assert got == (w.lambda1, w.lambda2, w.a, w.b, w.c, s.lam, s.mu)

    def test_params_reject_zero_row(self):
        wa = np.ones((3, 2))
        wa[1] = 0.0
        with pytest.raises(DomainError):
            bounds_mod._stacked_params(wa, np.ones((3, 2)))

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_enclosures_match_rows(self, complex_entries):
        rng = np.random.default_rng(142)
        if complex_entries:
            C = complex_gaussian(rng, (30, 3, 3))
            D = complex_gaussian(rng, (30, 3, 3))
        else:
            C = rng.random((30, 3, 3))
            D = rng.random((30, 3, 3))
        D[4] = C[4]  # equal data collapses the gap terms
        sep = rng.random(30) + 0.1
        p, q = bounds_mod._stacked_params(rng.random((30, 3)), rng.random((30, 3)))
        fc, fd = matrixcore._frobenius_norms(C), matrixcore._frobenius_norms(D)
        ub_sep = bounds_mod._separation_uppers(fc, fd, sep)
        diff = matrixcore._frobenius_norms(C - D)
        blend = bounds_mod._blends(C, D, p.a, p.b)
        w_lo, w_up = bounds_mod._enclosures(blend, diff, p.a, p.b, p.c)
        ones = np.ones_like(q.mu)
        total = bounds_mod._blends(C, D, ones, ones)
        s_lo, s_up = bounds_mod._enclosures(total, diff, ones, ones, q.mu)
        for row in range(30):
            c, d = C[row], D[row]
            w = weighted_bounds(
                c, d, WeightedBoundParams(p.lambda1[row], p.lambda2[row], p.a[row],
                                          p.b[row], p.c[row]))
            s = symmetric_bounds(c, d, SymmetricBoundParams(q.lam[row], q.mu[row]))
            assert ub_sep[row] == separation_bound(c, d, sep[row])
            assert (w_lo[row], w_up[row]) == (w.lower, w.upper)
            assert (s_lo[row], s_up[row]) == (s.lower, s.upper)


class TestCrudeBounds:
    def test_separation_bound_identity_case(self):
        assert separation_bound(
            np.eye(2), np.zeros((2, 2)), math.sqrt(2.0)
        ) == pytest.approx(1.0)

    @pytest.mark.parametrize("sep", [0.0, -1.0, math.nan, math.inf])
    def test_separation_bound_rejects_nonpositive(self, sep):
        # An infinite separation would give the false bound 0 < ||X||_F.
        with pytest.raises(DomainError):
            separation_bound(np.eye(2), np.eye(2), sep)

    def test_norm_sum(self):
        C = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert norm_sum_bound(C, np.zeros((2, 2))) == pytest.approx(5.0)
        assert norm_sum_bound(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_no_overflow_at_extreme_scale(self):
        # ||C||_F = ||D||_F = 2e200, so the squares overflow but the bound
        # sqrt(8) * 1e200 does not.
        C = 1e200 * np.ones((2, 2))
        expected = math.sqrt(8.0) * 1e200
        assert norm_sum_bound(C, C) == pytest.approx(expected, rel=1e-15)
        assert separation_bound(C, C, 0.5) == pytest.approx(2.0 * expected, rel=1e-15)


class TestMidpointBounds:
    def test_equal_data_collapses(self):
        rng = np.random.default_rng(401)
        C = complex_gaussian(rng, (3, 3))
        pair = midpoint_bounds(C, C)
        assert pair.kind is BoundKind.MIDPOINT
        assert pair.lower == pytest.approx(pair.upper)
        assert pair.upper == pytest.approx(matrixcore.frobenius_norm(C))

    def test_opposite_data_gives_negative_lower(self):
        C = np.eye(2)
        pair = midpoint_bounds(C, -C)
        assert pair.lower == pytest.approx(-math.sqrt(2.0))
        assert pair.upper == pytest.approx(math.sqrt(2.0))


class TestDataPairValidation:
    """Every scalar enclosure rejects a data pair that could not come from
    one problem, instead of broadcasting or measuring it anyway."""

    FORMS = {
        "separation": lambda C, D: separation_bound(C, D, 0.5),
        "norm_sum": norm_sum_bound,
        "midpoint": midpoint_bounds,
        "weighted": lambda C, D: weighted_bounds(
            C, D, WeightedBoundParams(lambda1=2.0, lambda2=2.0, a=1.5, b=1.5, c=0.5)
        ),
        "symmetric": lambda C, D: symmetric_bounds(
            C, D, SymmetricBoundParams(lam=2.0, mu=0.5)
        ),
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_rejects_mismatched_shapes(self, form):
        # A 1 x 2 D broadcasts against a 2 x 2 C under numpy arithmetic.
        with pytest.raises(DomainError):
            self.FORMS[form](np.eye(2), np.ones((1, 2)))

    @pytest.mark.parametrize("form", ["midpoint", "norm_sum"])
    def test_rejects_nan_data(self, form):
        C = np.eye(2)
        C[0, 1] = np.nan
        with pytest.raises(DomainError):
            self.FORMS[form](C, np.eye(2))


class TestWeightedBounds:
    def test_scalar_coefficients(self):
        p = weighted_params_from_spectra([2.0, 2.0], [3.0, 3.0])
        assert p.lambda1 == pytest.approx(1.5)
        assert p.lambda2 == pytest.approx(2.0 / 3.0)
        assert p.a == pytest.approx(5.0 / 3.0)
        assert p.b == pytest.approx(5.0 / 2.0)
        assert p.c == 0.0

    def test_exact_for_scalar_coefficient_matrices(self):
        # With A = 2 I and B = 3 I the solution is (2 C + 3 D) / 5 and the
        # enclosure collapses onto its norm.
        rng = np.random.default_rng(402)
        C = complex_gaussian(rng, (3, 3))
        D = complex_gaussian(rng, (3, 3))
        sol = solve_structured(
            structured_problem(2.0 * np.eye(3), 3.0 * np.eye(3), C, D)
        )
        x_norm = matrixcore.frobenius_norm(sol.X)
        pair = weighted_bounds(C, D, weighted_params_from_spectra([2.0], [3.0]))
        assert pair.lower == pytest.approx(x_norm, rel=1e-12)
        assert pair.upper == pytest.approx(x_norm, rel=1e-12)

    def test_gap_weight_below_blend_weights(self):
        rng = np.random.default_rng(403)
        for _ in range(50):
            wa = rng.uniform(0.1, 10.0, size=4)
            wb = rng.uniform(0.1, 10.0, size=3)
            p = weighted_params_from_spectra(wa, wb)
            assert p.c < min(p.a, p.b)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DomainError):
            weighted_params_from_spectra([0.0, 0.0], [1.0])


class TestSymmetricBounds:
    def test_identity_coefficients_collapse(self):
        p = symmetric_params_from_spectra([1.0, 1.0], [1.0])
        assert p.lam == 1.0
        assert p.mu == 0.0
        rng = np.random.default_rng(405)
        C = complex_gaussian(rng, (2, 2))
        D = complex_gaussian(rng, (2, 2))
        pair = symmetric_bounds(C, D, p)
        mid = matrixcore.frobenius_norm((C + D) / 2.0)
        assert pair.lower == pytest.approx(mid)
        assert pair.upper == pytest.approx(mid)

    def test_worked_example_parameters(self):
        g = (5.0 - math.sqrt(21.0)) / 2.0
        p = symmetric_params_from_spectra([1.0, 1.0], [g, 1.0 / g])
        assert p.lam == pytest.approx(4.7912878474779195, abs=1e-12)
        assert p.mu == pytest.approx(0.8091067115702212, abs=1e-12)

    def test_weight_strictly_below_one(self):
        rng = np.random.default_rng(406)
        for _ in range(50):
            p = symmetric_params_from_spectra(
                rng.uniform(0.01, 100.0, size=3), rng.uniform(0.01, 100.0, size=3)
            )
            assert p.lam >= 1.0
            assert 0.0 <= p.mu < 1.0


class TestEnclosureProperties:
    @staticmethod
    def _instance(rng, n):
        A = random_psd(rng, n, n) + 0.05 * np.eye(n)
        B = random_psd(rng, n, n) + 0.05 * np.eye(n)
        C = complex_gaussian(rng, (n, n))
        D = complex_gaussian(rng, (n, n))
        return A, B, C, D

    def test_sandwich_on_positive_definite_instances(self):
        rng = np.random.default_rng(407)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            A, B, C, D = self._instance(rng, n)
            x = matrixcore.frobenius_norm(
                solve_structured(structured_problem(A, B, C, D)).X
            )
            slack = 1e-10 * (1.0 + x)
            wa, wb = np.linalg.eigvalsh(A), np.linalg.eigvalsh(B)
            for pair in (
                midpoint_bounds(C, D),
                weighted_bounds(C, D, weighted_params_from_spectra(wa, wb)),
                symmetric_bounds(C, D, symmetric_params_from_spectra(wa, wb)),
            ):
                assert pair.lower - slack <= x <= pair.upper + slack

    def test_upper_bound_orderings(self):
        rng = np.random.default_rng(408)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            A, B, C, D = self._instance(rng, n)
            wa, wb = np.linalg.eigvalsh(A), np.linalg.eigvalsh(B)
            mid = midpoint_bounds(C, D)
            wgt = weighted_bounds(C, D, weighted_params_from_spectra(wa, wb))
            sym = symmetric_bounds(C, D, symmetric_params_from_spectra(wa, wb))
            assert mid.upper <= norm_sum_bound(C, D) + 1e-12
            assert wgt.upper <= mid.upper + 1e-12
            assert sym.upper <= mid.upper + 1e-12

    def test_equal_data_exact_for_all_kinds(self):
        rng = np.random.default_rng(409)
        A, B, C, _ = self._instance(rng, 3)
        wa, wb = np.linalg.eigvalsh(A), np.linalg.eigvalsh(B)
        x = matrixcore.frobenius_norm(C)
        for pair in (
            midpoint_bounds(C, C),
            weighted_bounds(C, C, weighted_params_from_spectra(wa, wb)),
            symmetric_bounds(C, C, symmetric_params_from_spectra(wa, wb)),
        ):
            assert pair.lower == pytest.approx(x, rel=1e-12)
            assert pair.upper == pytest.approx(x, rel=1e-12)


@st.composite
def integer_bound_data(draw):
    """Integer data `C`, `D` and positive integer spectra of `A` and `B`,
    apart from each other so that the separation is defined."""
    dtype = draw(st.sampled_from(INTEGER_DTYPES))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return (
        draw(integer_matrix((m, n), dtype)),
        draw(integer_matrix((m, n), dtype)),
        draw(integer_matrix((m,), dtype, 1, 4)),
        draw(integer_matrix((n,), dtype, 6, 9)),
    )


def five_bounds(C, D, wa, wb):
    return (
        separation_bound(C, D, spectral_separation(wa, wb)),
        norm_sum_bound(C, D),
        midpoint_bounds(C, D),
        weighted_bounds(C, D, weighted_params_from_spectra(wa, wb)),
        symmetric_bounds(C, D, symmetric_params_from_spectra(wa, wb)),
    )


@PROPERTY
@given(integer_bound_data())
def test_integer_data_give_the_float64_bounds(data):
    assert five_bounds(*data) == five_bounds(*(x.astype(np.float64) for x in data))


@st.composite
def separable_spectra(draw):
    """Two spectra at scales from 1e-300 to 1e300 each; with a gap just
    wider than the overlap threshold between one pair, when drawn."""
    entry = st.floats(1.0 / 16.0, 1.0) | st.floats(-1.0, -1.0 / 16.0)
    omega, gamma = (
        draw(st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e300]))
        * draw(hnp.arrays(np.float64, st.integers(1, 4), elements=entry))
        for _ in range(2)
    )
    if draw(st.booleans()):
        scale = max(np.abs(omega).max(), np.abs(gamma).max())
        margin = draw(st.floats(1.01, 4.0)) * bounds_mod._OVERLAP_RTOL * scale
        gamma[0] = omega[0] + draw(st.sampled_from([-1.0, 1.0])) * margin
    return omega, gamma


@PROPERTY
@given(separable_spectra())
def test_computed_separation_is_accepted_by_the_bound(spectra):
    try:
        sep = spectral_separation(*spectra)
    except SpectralOverlapError:
        return
    assert 0.0 < sep <= math.sqrt(2.0) * (1.0 + 4.0 * np.finfo(float).eps)
    separation_bound(np.eye(1), np.zeros((1, 1)), sep)


_QUARTER_MAX = float(np.finfo(np.float64).max) / 4.0
# Signed zeros, subnormals, moderate values and values near DBL_MAX / 4.
_EDGE_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]),
    st.floats(-4.0, 4.0),
    st.floats(0.9 * _QUARTER_MAX, _QUARTER_MAX),
    st.floats(-_QUARTER_MAX, -0.9 * _QUARTER_MAX),
)


@st.composite
def edge_stacks(draw):
    """Stacks of real or complex data `C`, `D` and gap weights `mu`."""
    k, m, n = (draw(st.integers(1, 3)) for _ in range(3))
    complex_entries = draw(st.booleans())
    shape = (k, m, 2 * n) if complex_entries else (k, m, n)
    C, D = (draw(hnp.arrays(np.float64, shape, elements=_EDGE_PARTS)) for _ in range(2))
    if complex_entries:
        C, D = C.view(np.complex128), D.view(np.complex128)
    mu = draw(hnp.arrays(np.float64, k, elements=st.floats(0.0, 1.0, exclude_max=True)))
    return C, D, mu


@PROPERTY
@given(edge_stacks())
def test_unit_weights_give_the_sum_form(data):
    # The symmetric and midpoint enclosures are the kernel at a = b = 1.
    C, D, mu = data
    ones = np.ones_like(mu)
    diff = matrixcore._frobenius_norms(C - D)
    total = matrixcore._frobenius_norms(C + D)
    with np.errstate(over="ignore", invalid="ignore"):
        got = bounds_mod._enclosures(bounds_mod._blends(C, D, ones, ones), diff, ones, ones, mu)
        expected = ((total - mu * diff) / 2.0, (total + mu * diff) / 2.0)
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]


class TestLambdaRule:
    """One rule, ``bounds._lambdas``, gives `lam` to the enclosures and to the
    perturbation bounds."""

    def test_overflowing_reciprocal_gives_the_quotient(self):
        # 1 / 1e-310 overflows; the quotient 1e-10 / 1e-310 does not.
        w = weighted_params_from_spectra([1e-310], [1e-10])
        s = symmetric_params_from_spectra([1e-310], [1e-10])
        assert (repr(w.lambda1), repr(w.lambda2)) == (
            "1.000000000000003e+300", "9.999999999999969e-301"
        )
        assert (s.lam, s.mu) == (w.lambda1, 1.0)

    def test_infinite_lambda_gives_the_midpoint_enclosure(self):
        # (1 / 1e-300) * 1e10 and 1e10 / 1e-300 both overflow.
        rng = np.random.default_rng(410)
        C, D = complex_gaussian(rng, (2, 2)), complex_gaussian(rng, (2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = symmetric_params_from_spectra([1e-300, 1e-300], [1e10, 1.0])
        assert (p.lam, p.mu) == (math.inf, 1.0)
        sym, mid = symmetric_bounds(C, D, p), midpoint_bounds(C, D)
        assert (sym.lower, sym.upper) == (mid.lower, mid.upper)


@PROPERTY
@given(hnp.arrays(np.float64, (4, 3), elements=st.floats(1e-300, 1e300)))
def test_lambdas_keep_the_reciprocal_rounding(extremes):
    # Where every reciprocal is finite each ratio is (1 / min) * max.
    min_a, max_a, min_b, max_b = extremes
    with np.errstate(over="ignore"):
        lambda1, lambda2 = (1.0 / min_a) * max_b, max_a * (1.0 / min_b)
    expected = (lambda1, lambda2, np.maximum(np.maximum(lambda1, lambda2), 1.0))
    got = bounds_mod._lambdas(min_a, max_a, min_b, max_b)
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]


_SCALED_EIGENVALUES = st.lists(
    st.builds(lambda m, e: m * 10.0**e, st.floats(0.1, 10.0), st.integers(-300, 300)),
    min_size=1,
    max_size=5,
)


@PROPERTY
@given(_SCALED_EIGENVALUES, _SCALED_EIGENVALUES)
def test_symmetric_enclosure_is_finite_at_any_scale(wa, wb):
    C, D = np.array([[1.0, -2.0], [0.5, 3.0]]), np.array([[2.0, 1.0], [-1.5, 0.0]])
    with np.errstate(divide="ignore", invalid="ignore"):
        # The weighted coefficients, computed alongside, can leave the double range.
        p = symmetric_params_from_spectra(wa, wb)
    assert 0.0 <= p.mu <= 1.0
    pair = symmetric_bounds(C, D, p)
    assert math.isfinite(pair.lower) and math.isfinite(pair.upper)


_DATA = (np.array([[1.0, -2.0], [0.5, 3.0]]), np.array([[2.0, 1.0], [-1.5, 0.0]]))


class TestWeightedLimits:
    """Where `a` or `b` is infinite the weighted enclosure is its limit, and
    where the blend overflows it is evaluated at scaled coefficients."""

    @pytest.mark.parametrize(
        "wa, wb, limit",
        [([1e-300], [1e10], 1), ([1e300], [1e-300], 0)],
    )
    def test_infinite_coefficient_gives_the_limit(self, wa, wb, limit):
        # b = 1 + 1/lambda2 overflows in the first case, a = 1 + 1/0 in the second.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = weighted_params_from_spectra(wa, wb)
            symmetric_params_from_spectra(wa, wb)
            pair = weighted_bounds(*_DATA, p)
        assert math.isinf(p.b if limit else p.a)
        norm = matrixcore.frobenius_norm(_DATA[limit])
        assert (pair.lower, pair.upper) == (norm, norm)

    def test_overflowing_blend_is_scaled(self):
        # a = 1e308 is finite, but a C overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = weighted_params_from_spectra([1e300], [1e-8])
            pair = weighted_bounds(*_DATA, p)
        assert p.a == 1e308
        norm = matrixcore.frobenius_norm(_DATA[0])
        assert pair.lower == pytest.approx(norm, rel=1e-15)
        assert pair.upper == pytest.approx(norm, rel=1e-15)


@PROPERTY
@given(_SCALED_EIGENVALUES, _SCALED_EIGENVALUES)
def test_weighted_enclosure_is_finite_at_any_scale(wa, wb):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = weighted_bounds(*_DATA, weighted_params_from_spectra(wa, wb))
        symmetric_params_from_spectra(wa, wb)
    assert math.isfinite(pair.lower) and math.isfinite(pair.upper)
    assert pair.lower <= pair.upper


def _axis_separations(w, g):
    """The stacked separations as reductions over axes 1 and 2 of (k, p, q)
    stacks: the reference for the contiguous reductions of the kernel."""
    num = np.abs(w[:, :, None] - g[:, None, :])
    scale = np.maximum(np.abs(w).max(axis=1), np.abs(g).max(axis=1))
    overlap = num.min(axis=(1, 2)) <= bounds_mod._OVERLAP_RTOL * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        values = (num / np.hypot(w[:, :, None], g[:, None, :])).min(axis=(1, 2))
    values[overlap] = np.nan
    return values, overlap


def _axis_params(wa, wb):
    """The stacked parameters with each spectrum's extremes reduced along
    axis 1 of a (k, p) stack: the reference for the kernel's reductions."""

    def extremes(w):
        p = w.shape[1]
        top = np.maximum(w.max(axis=1, keepdims=True), 0.0)
        kept = w > matrixcore.rank_cutoff((p, p), top)
        return np.where(kept, w, np.inf).min(axis=1), w.max(axis=1)

    l1, l2, lam = bounds_mod._lambdas(*extremes(wa), *extremes(wb))
    capped = np.minimum(lam, np.finfo(np.float64).max)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = np.sqrt(np.maximum(0.0, 1.0 - 1.0 / (l1 * l2)))
        a, b = 1.0 + 1.0 / l1, 1.0 + 1.0 / l2
    return (l1, l2, a, b, c, lam, np.sqrt((capped - 1.0) / (capped + 1.0)))


# (k, p) of the stacks: every k and p of {1, 7, 4096} x {1, 3, 600} but the
# two whose (k, p, p) temporaries would not fit in memory.
_STACK_SHAPES = [(1, 1), (1, 3), (1, 600), (7, 1), (7, 3), (7, 600), (4096, 1), (4096, 3)]


@st.composite
def spectra_stacks(draw):
    """Stacks of PSD spectra `wa`, `wb` of shape (k, p) with exact zeros of
    both signs and round-off negatives at the rank cutoff, and the spectra
    `gamma` that `wa` is separated from: ``-wb``, with rows equal to those of
    `wa` (overlapping) in some stacks."""
    k, p = draw(st.sampled_from(_STACK_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wa, wb = 2.0 * rng.random((2, k, p))
    for w in (wa, wb):
        edits = rng.random(w.shape)
        w[edits < 0.1] = 0.0
        w[(0.1 <= edits) & (edits < 0.2)] = -0.0
        # -1, 1 and 2 times the rank cutoff of a row whose largest value is 2.
        cutoff = rng.choice([-1.0, 1.0, 2.0], w.shape) * matrixcore.rank_cutoff((p, p), 2.0)
        at_cutoff = (0.2 <= edits) & (edits < 0.3)
        w[at_cutoff] = cutoff[at_cutoff]
        w[:, rng.integers(p)] = 2.0
        w *= 10.0 ** rng.integers(-3, 4, (k, 1))
    gamma = -wb
    if draw(st.booleans()):
        gamma[: max(1, k // 3)] = wa[: max(1, k // 3)]
    return wa, wb, gamma


@PROPERTY
@given(spectra_stacks())
def test_contiguous_reductions_keep_the_axis_reductions(stacks):
    wa, wb, gamma = stacks
    got = bounds_mod._spectral_separations(wa, gamma)
    expected = _axis_separations(wa, gamma)
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
    weighted, symmetric = bounds_mod._stacked_params(wa, wb)
    got = (*(getattr(weighted, f) for f in ("lambda1", "lambda2", "a", "b", "c")),
           symmetric.lam, symmetric.mu)
    assert [g.tobytes() for g in got] == [e.tobytes() for e in _axis_params(wa, wb)]
