import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from polarbounds import bounds, matrixcore
from polarbounds import perturb as perturb_mod
from polarbounds.exceptions import DomainError, NumericalError
from polarbounds.perturb import (
    SearchStrategy,
    chen_li_sun_bound,
    hong_meng_zheng_bound,
    make_scenario,
    psd_factor_bound,
    psd_terms,
    subunitary_bound,
    subunitary_terms,
)
from conftest import (
    INTEGER_DTYPES,
    PROPERTY,
    complex_gaussian,
    exact_factor_changes,
    integer_matrix,
    rank_r_matrix,
    spectral_norm,
)


def random_scenario(rng, m, n, rank=None, eps=0.1, complex_entries=True):
    if rank is None:
        rank = int(rng.integers(1, min(m, n) + 1))
    A = rank_r_matrix(rng, m, n, rank, complex_entries)
    D1 = np.eye(m) + eps * complex_gaussian(rng, (m, m))
    D2 = np.eye(n) + eps * complex_gaussian(rng, (n, n))
    return make_scenario(A, D1, D2)


class TestMakeScenario:
    def test_identity_perturbers_change_nothing(self):
        rng = np.random.default_rng(501)
        A = complex_gaussian(rng, (3, 3))
        sc = make_scenario(A, np.eye(3), np.eye(3))
        npt.assert_allclose(sc.B, A, atol=1e-15)
        assert sc.lam >= 1.0
        report = subunitary_bound(sc)
        assert report.subunitary_diff < 1e-13
        assert report.subunitary_bound < 1e-12
        report = psd_factor_bound(sc)
        assert report.psd_diff < 1e-13
        assert report.psd_bound < 1e-12

    def test_lam_is_the_enclosures_lambda_of_the_singular_values(self):
        rng = np.random.default_rng(503)
        sc = random_scenario(rng, 3, 4, rank=3)
        sigma_a, sigma_b = matrixcore.svd(sc.A).sigma, matrixcore.svd(sc.B).sigma
        assert sc.lam == bounds.symmetric_params_from_spectra(sigma_a, sigma_b).lam
        # At rank 0 both ratios are 0, so lam is its floor 1.
        assert make_scenario(np.zeros((2, 3)), np.eye(2), np.eye(3)).lam == 1.0

    def test_scalar_perturber_scales_psd_factor(self):
        rng = np.random.default_rng(502)
        A = complex_gaussian(rng, (3, 3))
        sc = make_scenario(A, 2.0 * np.eye(3), np.eye(3))
        npt.assert_allclose(sc.B, 2.0 * A, atol=1e-14)
        npt.assert_allclose(sc.polar_b.U, sc.polar_a.U, atol=1e-12)
        npt.assert_allclose(sc.polar_b.H, 2.0 * sc.polar_a.H, atol=1e-12)
        report = psd_factor_bound(sc)
        assert report.psd_diff == pytest.approx(
            matrixcore.frobenius_norm(A), rel=1e-12
        )

    def test_rank_preserved(self):
        rng = np.random.default_rng(503)
        sc = random_scenario(rng, 5, 4, rank=2)
        assert sc.polar_a.rank == 2
        assert sc.polar_b.rank == 2

    def test_rejects_singular_perturber(self):
        with pytest.raises(DomainError):
            make_scenario(np.eye(2), np.diag([1.0, 0.0]), np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            make_scenario(np.ones((2, 3)), np.eye(2), np.eye(2))

    def test_warns_on_ill_conditioned_perturber(self):
        with pytest.warns(RuntimeWarning):
            make_scenario(np.eye(2), np.diag([1.0, 1e-13]), np.eye(2))


class TestTermFormulas:
    def test_all_terms_vanish_at_identity(self):
        rng = np.random.default_rng(504)
        A = complex_gaussian(rng, (3, 3))
        sc = make_scenario(A, np.eye(3), np.eye(3))
        assert max(subunitary_terms(sc, 1.0, 1.0)) < 1e-13
        assert max(psd_terms(sc, 1.0, 1.0)) < 1e-13

    def test_psd_middle_term_closed_form(self):
        # The middle term is || |A| (s D2 - I) ||_F; with D2 = 2 I and
        # s = 1 that is || |A| ||_F = ||A||_F.
        rng = np.random.default_rng(505)
        A = complex_gaussian(rng, (3, 3))
        sc = make_scenario(A, np.eye(3), 2.0 * np.eye(3))
        terms = psd_terms(sc, 1.0, 0.7)
        assert terms[1] == pytest.approx(matrixcore.frobenius_norm(A), rel=1e-12)

    def test_terms_continuous_in_probe(self):
        rng = np.random.default_rng(506)
        sc = random_scenario(rng, 3, 3)
        base = subunitary_terms(sc, 1.0, 1.0)
        nearby = subunitary_terms(sc, 1.0 + 1e-9, 1.0 - 1e-9j)
        assert max(abs(x - y) for x, y in zip(base, nearby)) < 1e-6


class TestClassicalBounds:
    def test_chen_li_sun_closed_form(self):
        # Scalar perturbers 2 and 1: inverse part 1/2, direct part 1.
        val = chen_li_sun_bound(2.0 * np.eye(1), np.eye(1))
        assert val == pytest.approx(math.sqrt(0.25 + 1.0))

    def test_chen_li_sun_identity_is_zero(self):
        assert chen_li_sun_bound(np.eye(3), np.eye(3)) == 0.0

    def test_hong_meng_zheng_unitary_left_is_zero(self):
        rng = np.random.default_rng(507)
        A = complex_gaussian(rng, (3, 3))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
        sc = make_scenario(A, np.diag(phases), np.eye(3))
        assert hong_meng_zheng_bound(sc) < 1e-13
        # A unitary left perturber leaves |B| = |A|, so the probe bound
        # must vanish along with the classical one.
        assert psd_factor_bound(sc).psd_diff < 1e-12
        assert psd_factor_bound(sc).psd_bound < 1e-12

    def test_hong_meng_zheng_closed_form(self):
        rng = np.random.default_rng(508)
        A = complex_gaussian(rng, (2, 2))
        D2 = np.diag([2.0, 0.5])
        sc = make_scenario(A, np.eye(2), D2)
        norm_a = spectral_norm(A)
        norm_b = spectral_norm(sc.B)
        rho = norm_b * matrixcore.frobenius_norm(np.eye(2) - np.linalg.inv(D2))
        direct = norm_a * matrixcore.frobenius_norm(np.eye(2) - D2)
        assert hong_meng_zheng_bound(sc) == pytest.approx(
            math.sqrt(rho * rho + direct * direct), rel=1e-12
        )


class TestBoundValidity:
    def test_bounds_dominate_actual_differences(self):
        rng = np.random.default_rng(509)
        for _ in range(100):
            m, n = (int(x) for x in rng.integers(2, 6, size=2))
            eps = float(rng.choice([0.001, 0.01, 0.1]))
            sc = random_scenario(rng, m, n, eps=eps)
            sub = subunitary_bound(sc)
            psd = psd_factor_bound(sc)
            slack = 1e-9
            assert sub.subunitary_diff <= sub.subunitary_bound + slack
            assert psd.psd_diff <= psd.psd_bound + slack
            assert sub.subunitary_bound <= chen_li_sun_bound(sc.D1, sc.D2) + slack
            assert psd.psd_bound <= hong_meng_zheng_bound(sc) + slack

    def test_search_never_worse_than_fixed_probe(self):
        rng = np.random.default_rng(510)
        for _ in range(5):
            sc = random_scenario(rng, 3, 3)
            fixed = subunitary_bound(sc, SearchStrategy.AT_ONE_ONE)
            searched = subunitary_bound(sc, SearchStrategy.OPTIMAL)
            assert searched.subunitary_bound <= fixed.subunitary_bound
            assert searched.subunitary_diff == fixed.subunitary_diff
            fixed = psd_factor_bound(sc, SearchStrategy.AT_ONE_ONE)
            searched = psd_factor_bound(sc, SearchStrategy.OPTIMAL)
            assert searched.psd_bound <= fixed.psd_bound

    def test_searched_probe_still_valid(self):
        rng = np.random.default_rng(511)
        for _ in range(5):
            sc = random_scenario(rng, 3, 2)
            searched = subunitary_bound(sc, SearchStrategy.OPTIMAL)
            assert searched.subunitary_diff <= searched.subunitary_bound + 1e-9

    def test_report_records_probe(self):
        rng = np.random.default_rng(512)
        sc = random_scenario(rng, 2, 2)
        report = subunitary_bound(sc)
        assert report.s == 1 + 0j and report.t == 1 + 0j
        assert isinstance(report.subunitary_clamped, bool)
        assert isinstance(report.psd_clamped, bool)


EPS = np.finfo(np.float64).eps


def _perturbers(rng, eps, m, n):
    """Real ``D1 = I + eps E1`` (m x m) and ``D2 = I + eps E2`` (n x n)."""
    return tuple(np.eye(k) + eps * rng.standard_normal((k, k)) for k in (m, n))


def _near_overflow_case(seed):
    """`A`, `D1` and `D2` of a real scenario with `A` scaled toward 1e308:
    m and n from 1-4, rank from 1-min(m, n), perturbers ``I + 0.001 E``."""
    rng = np.random.default_rng([2016, seed])
    m, n = (int(k) for k in rng.integers(1, 5, 2))
    rank = int(rng.integers(1, min(m, n) + 1))
    A = 1e308 * (rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)) / (m * n))
    return A, *_perturbers(rng, 0.001, m, n)


class TestExtremeScales:
    """Scaling `A` by `c` scales the PSD factor, its change and its bounds by
    `c` and leaves the subunitary ones as they are.  At these `c` the squared
    terms would underflow or overflow unscaled; every bound and every probe
    quadratic squares its terms after an exact power-of-two scaling, at any
    `c`, so none of them does."""

    A = np.array([[1.0, 0.5], [0.0, 2.0]])
    D1 = np.array([[1.01, 0.02], [-0.01, 0.99]])
    D2 = np.array([[0.98, 0.01], [0.03, 1.02]])
    # The repr of the subunitary and the PSD bound at (1, 1), of both at the
    # optimal probe, and of hong_meng_zheng_bound, for c A.
    GOLDEN = {
        1e-310: ("0.06253531611464161", "1.0806036217167e-311", "0.051606758673567225",
                 "1.076426849251e-311", "1.791261651727e-311"),
        1e-170: ("0.06253531611464079", "1.0806036217169622e-171", "0.05160675867352768",
                 "1.0764268492512026e-171", "1.791261651726744e-171"),
        1e160: ("0.06253531611464078", "1.0806036217169624e+159", "0.051606758673527806",
                "1.076426849251203e+159", "1.791261651726744e+159"),
        1e307: ("0.06253531611464079", "1.0806036217169632e+306", "0.05160675867352768",
                "1.076426849251204e+306", "1.791261651726744e+306"),
    }

    def reports(self, c):
        sc = make_scenario(c * self.A, self.D1, self.D2)
        return sc, {
            strategy: (subunitary_bound(sc, strategy), psd_factor_bound(sc, strategy))
            for strategy in (SearchStrategy.AT_ONE_ONE, SearchStrategy.OPTIMAL)
        }

    @pytest.mark.parametrize("c", [1e-170, 1e-160, 1e160])
    def test_bounds_scale_with_a(self, c):
        sc1, base = self.reports(1.0)
        sc, scaled = self.reports(c)
        assert hong_meng_zheng_bound(sc) == pytest.approx(
            c * hong_meng_zheng_bound(sc1), rel=4 * EPS, abs=0.0
        )
        # The optimal probe moves with the round-off of the SVD of c A, so
        # its bound spreads wider; c = 0.7 or 1e-100 spread as far.
        for strategy, rel in ((SearchStrategy.AT_ONE_ONE, 4 * EPS),
                              (SearchStrategy.OPTIMAL, 32 * EPS)):
            (sub, psd), (sub1, psd1) = scaled[strategy], base[strategy]
            assert sub.subunitary_bound == pytest.approx(
                sub1.subunitary_bound, rel=rel, abs=0.0
            )
            assert psd.psd_bound == pytest.approx(c * psd1.psd_bound, rel=rel, abs=0.0)

    @pytest.mark.parametrize("c", sorted(GOLDEN))
    def test_golden_reports(self, c):
        sc, reports = self.reports(c)
        got = [
            repr(bound)
            for sub, psd in reports.values()
            for bound in (sub.subunitary_bound, psd.psd_bound)
        ]
        assert (*got, repr(hong_meng_zheng_bound(sc))) == self.GOLDEN[c]

    # A, D1, D2 and the repr of the subunitary and the PSD bound, at (1, 1)
    # and at the optimal probe.
    OVERFLOWING_STEPS = [
        (1e308 * np.eye(2), np.eye(2), np.eye(2), ("0.0", "0.0")),
        (8e307 * A, D1, D2, ("0.06253531611464079", "8.644828973735705e+306")),
    ]
    OVERFLOWING_SEARCH = [
        (8e307 * A, *_perturbers(np.random.default_rng(5), 0.01, 2, 2),
         ("0.025215391246025683", "3.976245731748357e+306")),
        (*_near_overflow_case(72), ("0.0037268025654362495", "8.707094175757564e+304")),
    ]

    @pytest.mark.parametrize("A, D1, D2, golden", OVERFLOWING_STEPS, ids=["1e308-I", "8e307-A"])
    def test_overflowing_steps_leave_the_bounds_at_one_one(self, A, D1, D2, golden):
        # 2 sigma_max(A) overflows, so the PSD term steps hold infinities and
        # NaN; at (1, 1) the terms are the built matrices, which are finite.
        sc = make_scenario(A, D1, D2)
        with np.errstate(over="ignore", invalid="ignore"):
            got = (subunitary_bound(sc).subunitary_bound, psd_factor_bound(sc).psd_bound)
        assert tuple(map(repr, got)) == golden

    @pytest.mark.parametrize(
        "A, D1, D2, golden", OVERFLOWING_SEARCH, ids=["8e307-A", "near-overflow-seed-72"]
    )
    def test_optimal_search_that_overflows_keeps_one_one(self, A, D1, D2, golden):
        # In the first case the PSD term steps overflow, and a report at any
        # probe but (1, 1) evaluates them; in the second the steps are finite,
        # but the PSD terms overflow at the subunitary probe, about (7.44, 7.45).
        sc = make_scenario(A, D1, D2)
        with np.errstate(over="ignore", invalid="ignore"):
            at11 = (subunitary_bound(sc).subunitary_bound, psd_factor_bound(sc).psd_bound)
            got = (
                subunitary_bound(sc, SearchStrategy.OPTIMAL).subunitary_bound,
                psd_factor_bound(sc, SearchStrategy.OPTIMAL).psd_bound,
            )
        assert tuple(map(repr, got)) == golden
        assert got[0] <= at11[0] and got[1] <= at11[1]

    def test_psd_goldens_dominate_the_exact_change(self):
        # Each pinned PSD bound lies at or above || |B| - |A| ||_F of the
        # exact B = D1* A D2, from 50-digit SVDs.
        pytest.importorskip("mpmath")
        cases = [(c * self.A, self.D1, self.D2, self.GOLDEN[c][1:4:2]) for c in self.GOLDEN]
        for A, D1, D2, golden in self.OVERFLOWING_STEPS + self.OVERFLOWING_SEARCH:
            cases.append((A, D1, D2, golden[1:]))
        for A, D1, D2, goldens in cases:
            change = exact_factor_changes(A, D1, D2)[1]
            for golden in goldens:
                assert change <= float(golden), golden

    def test_searched_psd_bound_that_ties_the_change_dominates_it(self):
        # The input of perturb scenario 395 of tools/bitcheck.py: rank-1
        # complex A scaled to 8e307, and D2 to 1e-150.  The search moves s
        # to about 0, where the PSD bound is || |A| ||_F to the last digit,
        # and so is the computed change.  The exact change lies below it.
        pytest.importorskip("mpmath")
        rng = np.random.default_rng((2718, 395))

        def gaussian(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        m, n = (int(k) for k in rng.integers(1, 5, size=2))
        rank = int(rng.integers(0, min(m, n) + 1))
        A = gaussian((m, rank)) @ gaussian((rank, n))
        A = A / np.abs(A).max() * 8e307
        D1, D2 = np.eye(m) + 0.5 * gaussian((m, m)), 1e-150 * (np.eye(n) + 0.5 * gaussian((n, n)))
        with np.errstate(over="ignore", invalid="ignore"):
            report = psd_factor_bound(make_scenario(A, D1, D2), SearchStrategy.OPTIMAL)
        assert abs(report.s) < 1e-15 and report.psd_bound == report.psd_diff
        assert exact_factor_changes(A, D1, D2)[1] <= report.psd_bound

    def test_perturbers_near_overflow_report_both_families(self):
        # A scaled to 8e307 and perturbers I + 0.5 E.  Built with the t-parts,
        # the PSD terms at (1, 1) overflowed, and every report raised.
        A = 4e307 * self.A
        sc = make_scenario(A, *_perturbers(np.random.default_rng(235), 0.5, 2, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            at11, opt = (
                (subunitary_bound(sc, strategy), psd_factor_bound(sc, strategy))
                for strategy in (SearchStrategy.AT_ONE_ONE, SearchStrategy.OPTIMAL)
            )
        for sub, psd in (at11, opt):
            assert math.isfinite(sub.subunitary_bound) and math.isfinite(psd.psd_bound)
            assert sub.subunitary_diff <= sub.subunitary_bound
            assert psd.psd_diff <= psd.psd_bound
        # The term forms are finite, so both searches run and improve.
        assert opt[0].subunitary_bound < at11[0].subunitary_bound
        assert opt[1].psd_bound < at11[1].psd_bound

    def test_subnormal_a_keeps_lam_finite(self):
        # At c = 1e-310 the smallest singular value is subnormal, and its
        # reciprocal overflows.
        sc1, base = self.reports(1e-300)
        sc, scaled = self.reports(1e-310)
        assert math.isfinite(sc.lam)
        assert sc.lam == pytest.approx(sc1.lam, rel=1e-9)
        at11, at11_base = scaled[SearchStrategy.AT_ONE_ONE], base[SearchStrategy.AT_ONE_ONE]
        assert at11[1].psd_bound / 1e-310 == pytest.approx(
            at11_base[1].psd_bound / 1e-300, rel=1e-9
        )

    @pytest.mark.parametrize("c", [1e-170, 1e-160, 1e160])
    def test_bounds_stay_valid(self, c):
        _, reports = self.reports(c)
        at11 = reports[SearchStrategy.AT_ONE_ONE]
        opt = reports[SearchStrategy.OPTIMAL]
        for report in (*at11, *opt):
            assert report.subunitary_diff <= report.subunitary_bound
            assert report.psd_diff <= report.psd_bound
        assert opt[0].subunitary_bound <= at11[0].subunitary_bound
        assert opt[1].psd_bound <= at11[1].psd_bound

    @pytest.mark.parametrize("c", [1e-160, 1e160])
    def test_chen_li_sun_at_extreme_perturbers(self, c):
        # ||I - D1||_F and ||I - inv(D1)||_F are sqrt(2) |1 - c| and
        # sqrt(2) |1 - 1/c|, one of them about sqrt(2) max(c, 1/c).
        bound = chen_li_sun_bound(c * np.eye(2), np.eye(2))
        assert bound == pytest.approx(math.sqrt(2.0) * max(c, 1.0 / c), rel=4 * EPS)

    @pytest.mark.parametrize(
        "terms",
        [(1.0, 1.0, math.inf), (math.inf, 1.0, math.inf), (math.inf,) * 3],
        ids=["t3", "t1-t3", "all"],
    )
    def test_infinite_correction_term_is_never_clamped(self, terms):
        bound, clamped = perturb_mod._combine(terms)
        assert math.isnan(bound) and not clamped

    def test_infinite_leading_term_gives_infinite_bound(self):
        assert perturb_mod._combine((math.inf, 1.0, 1.0)) == (math.inf, False)

    def test_bound_beyond_the_largest_double_is_inf(self):
        # rho is about 1.72e308 and the direct term 7.2e307: both finite,
        # their hypotenuse is not.
        sc = make_scenario(8e307 * np.array([[1.0, 0.5]]), [[1.0]], np.diag([0.2, 1.0]))
        assert math.isfinite(sc.lam)
        assert hong_meng_zheng_bound(sc) == math.inf
        assert perturb_mod._combine((1.5e308, 1.5e308, 1.0)) == (math.inf, False)

    def test_zero_a_gives_zero_classical_psd_bound_where_a_norm_overflows(self):
        # ||D1* - inv(D1)||_F is about 2.8e308, but ||A||_2 = 0 multiplies
        # it; the product was 0 * inf = NaN.
        D1 = 8e307 * (np.eye(4) + 0.5 * np.ones((4, 4)))
        sc = make_scenario(np.zeros((4, 3)), D1, np.eye(3))
        assert matrixcore.frobenius_norm(D1.conj().T - sc.d1_inv) == math.inf
        assert repr(hong_meng_zheng_bound(sc)) == "0.0"

    @pytest.mark.parametrize(
        "A, D1, name",
        [
            (1.5e308 * np.array([[1.0, 1.0]]), [[1.0]], "A"),
            (8e307 * np.array([[1.0, 0.5, 0.5]]), [[2.0]], "B"),
        ],
        ids=["A", "B"],
    )
    def test_singular_value_beyond_the_largest_double_raises(self, A, D1, name):
        # The entries are finite, sigma_max is not.  LAPACK returns inf or
        # NaN for it, which made lam NaN or inf and the bounds meaningless.
        with pytest.raises(NumericalError, match=f"singular value of {name}"):
            make_scenario(A, D1, np.eye(A.shape[1]))

    def test_overflowing_product_is_named(self):
        # D1* A D2 overflows entrywise, so B is rejected before its SVD.
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DomainError, match=r"B = D1\* A D2 contains non-finite entries"
        ):
            make_scenario(1e308 * np.eye(2), 4.0 * np.eye(2), np.eye(2))

    def test_product_that_underflows_to_zero_raises(self):
        # B = D1* A D2 rounds to 0, so its polar factor would be 0 and the
        # subunitary change would read sqrt(rank A) under a tiny bound.
        with pytest.raises(NumericalError, match="rank 0, but A has rank 2"):
            make_scenario(1e-300 * np.eye(2), 1e-300 * np.eye(2), np.eye(2))

    @pytest.mark.parametrize(
        "D",
        [
            1e308 * np.array([[1.0, 1.0], [1.0, -1.0]]),
            1.7e308 * np.array([[1.0, 0.5], [0.5, -1.0]]),
        ],
        ids=["cond-1", "sigma-overflows"],
    )
    def test_perturber_near_the_largest_double_is_inverted(self, D):
        # Both are well conditioned.  Inverted unscaled, the first got
        # [[1e-308, 0], [0, -0]], so D @ inv(D) lost its second column, and
        # the second raised as singular, because its singular values overflow.
        inverse = perturb_mod._checked_inverse(D, "D1")
        npt.assert_allclose(D @ inverse, np.eye(2), rtol=0.0, atol=1e-15)
        for D1, D2 in ((D, np.eye(2)), (np.eye(2), D)):
            sc = make_scenario(1e-10 * np.eye(2), D1, D2)
            npt.assert_array_equal(sc.d1_inv if D1 is D else sc.d2_inv, inverse)


def test_bounds_dominate_the_exact_factor_changes_next_to_the_rank_cutoff():
    """With ``sigma_r`` at 2 times the rank cutoff the double SVDs err by
    about ``eps ||A||``, the size of ``sigma_r`` itself, so the computed
    factor changes can exceed the bounds.  The bounds at (1, 1) still
    dominate the changes of the polar factors from 50-digit SVDs of `A` and
    of the exact ``B = D1* A D2``."""
    pytest.importorskip("mpmath")
    cutoff = matrixcore.rank_cutoff((3, 3), 1.0)
    for seed in range(20):
        rng = np.random.default_rng((12345, seed))
        P, Q = (np.linalg.qr(complex_gaussian(rng, (3, 3)))[0] for _ in range(2))
        A = (P * [1.0, 0.7, 2 * cutoff]) @ Q.conj().T
        D1, D2 = (np.eye(3) + 0.01 * complex_gaussian(rng, (3, 3)) for _ in range(2))
        report = subunitary_bound(make_scenario(A, D1, D2))
        changes = [float(change) for change in exact_factor_changes(A, D1, D2)]
        assert changes[0] <= report.subunitary_bound, seed
        assert changes[1] <= report.psd_bound, seed


def family_matrices(family):
    """The three term matrices of `family` from the one build of all six."""
    return lambda sc, s, t: perturb_mod._term_matrices(sc, s, t)[3 * family : 3 * family + 3]


# (terms, term matrices, bound, report field) for each of the two bounds.
BOUND_KINDS = {
    "subunitary": (subunitary_terms, family_matrices(0), subunitary_bound, "subunitary_bound"),
    "psd": (psd_terms, family_matrices(1), psd_factor_bound, "psd_bound"),
}


def bound_at(terms, sc, s, t):
    t1, t2, t3 = terms(sc, s, t)
    return math.sqrt(max(t1 * t1 + t2 * t2 - t3 * t3, 0.0))


@pytest.mark.parametrize("kind", sorted(BOUND_KINDS))
class TestOptimalProbe:
    def scenarios(self):
        rng = np.random.default_rng(513)
        return [
            random_scenario(rng, 3, 3),
            random_scenario(rng, 4, 2, rank=1, eps=0.01),
            # Real, rectangular and rank-deficient A.
            random_scenario(rng, 5, 3, rank=2, complex_entries=False),
        ]

    def test_quadratic_form_matches_terms(self, kind):
        terms, _, _, _ = BOUND_KINDS[kind]
        rng = np.random.default_rng(514)
        for sc in self.scenarios():
            family = ("subunitary", "psd").index(kind)
            # Q comes divided by 4^e, e the exponent of the largest part.
            parts = (G.view(np.float64) for G in sc._forms[family])
            e = math.frexp(max(np.abs(G).max() for G in parts))[1]
            Q = 4.0**e * perturb_mod._radicand_form(sc, family)
            for x in 2.0 * rng.standard_normal((20, 4)):
                # x is the step from the probe (1, 1); the PSD Q, 3 x 3,
                # takes its s part alone.
                t1, t2, t3 = terms(sc, 1 + complex(x[0], x[1]), 1 + complex(x[2], x[3]))
                v = np.concatenate(([1.0], x))[: len(Q)]
                direct = t1 * t1 + t2 * t2 - t3 * t3
                scale = t1 * t1 + t2 * t2 + t3 * t3
                assert abs(v @ Q @ v - direct) <= 1e-12 * scale

    def test_not_above_old_probe_grid(self, kind):
        terms, _, bound, field = BOUND_KINDS[kind]
        reals = np.linspace(0.0, 2.0, 5)
        imags = np.linspace(-1.0, 1.0, 5)
        grid = [complex(re, im) for re in reals for im in imags]
        for sc in self.scenarios():
            best = getattr(bound(sc, SearchStrategy.OPTIMAL), field)
            lowest = min(bound_at(terms, sc, s, t) for s in grid for t in grid)
            assert best <= lowest * (1.0 + 1e-12)

    def test_local_moves_do_not_improve(self, kind):
        terms, _, bound, field = BOUND_KINDS[kind]
        rng = np.random.default_rng(515)
        for sc in self.scenarios():
            report = bound(sc, SearchStrategy.OPTIMAL)
            best = getattr(report, field)
            assert best == bound_at(terms, sc, report.s, report.t)
            for step in 1e-3 * rng.standard_normal((20, 4)):
                s = report.s + complex(step[0], step[1])
                t = report.t + complex(step[2], step[3])
                assert best <= bound_at(terms, sc, s, t) * (1.0 + 1e-12)

    def test_identity_perturbers_give_zero(self, kind):
        _, _, bound, field = BOUND_KINDS[kind]
        rng = np.random.default_rng(516)
        sc = make_scenario(complex_gaussian(rng, (3, 2)), np.eye(3), np.eye(2))
        assert getattr(bound(sc, SearchStrategy.OPTIMAL), field) == 0.0


def direct_terms(matrices, sc, s, t):
    """Norms of one scalar build of the term matrices, `t3` scaled."""
    t1, t2, t3 = matrices(sc, complex(s), complex(t))
    fro = matrixcore.frobenius_norm
    return fro(t1), fro(t2), fro(t3) / math.sqrt(sc.lam + 1.0)


@pytest.mark.parametrize("kind", sorted(BOUND_KINDS))
class TestAffineTermKernel:
    def scenarios(self):
        rng = np.random.default_rng(518)
        return [
            random_scenario(rng, 3, 3),
            random_scenario(rng, 2, 6, rank=1, eps=0.001),
            random_scenario(rng, 5, 3, rank=2, complex_entries=False),
        ]

    def test_terms_at_one_one_are_the_direct_build(self, kind):
        terms, matrices, _, _ = BOUND_KINDS[kind]
        for sc in self.scenarios():
            assert terms(sc, 1, 1) == direct_terms(matrices, sc, 1, 1)

    def test_terms_match_direct_build_away_from_one_one(self, kind):
        terms, matrices, _, _ = BOUND_KINDS[kind]
        rng = np.random.default_rng(519)
        for sc in self.scenarios():
            for x in rng.uniform(-2.0, 2.0, (20, 4)):
                s, t = 1 + complex(x[0], x[1]), 1 + complex(x[2], x[3])
                expected = direct_terms(matrices, sc, s, t)
                got = terms(sc, s, t)
                scale = sum(expected)
                for a, b in zip(got, expected):
                    assert abs(a - b) <= 1e-12 * scale


def test_each_family_built_once_per_scenario(monkeypatch):
    # Both families' terms are evaluated once at (1, 1) and once at each
    # family's optimal probe: 6 evaluations for the four bound calls.
    calls = {}
    for name in ("_term_matrices", "_terms"):
        def counted(*args, _name=name, _build=getattr(perturb_mod, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _build(*args)
        monkeypatch.setattr(perturb_mod, name, counted)
    sc = random_scenario(np.random.default_rng(520), 4, 3)
    for strategy in (SearchStrategy.AT_ONE_ONE, SearchStrategy.OPTIMAL):
        subunitary_bound(sc, strategy)
        psd_factor_bound(sc, strategy)
    assert calls == {"_term_matrices": 1, "_terms": 6}


def reference_subunitary_matrices(sc, s, t):
    """The subunitary term matrices as built before the shared build."""
    U, V = sc.polar_a.U, sc.polar_b.U
    corange_a, range_b = U.conj().T @ U, V @ V.conj().T
    Im, In = (np.eye(k, dtype=np.complex128) for k in sc.A.shape)
    D1a, D2a = sc.D1.conj().T, sc.D2.conj().T
    t1 = V @ (In - t * sc.d2_inv) + range_b @ (np.conj(s) * sc.d1_inv - Im) @ U
    t2 = U.conj().T @ (np.conj(t) * sc.D1 - Im) + corange_a @ (In - s * sc.D2) @ V.conj().T
    t3 = (
        V @ (np.conj(s) * D2a - t * sc.d2_inv) @ corange_a
        + range_b @ (np.conj(s) * sc.d1_inv - t * D1a) @ U
    )
    return t1, t2, t3


def reference_psd_matrices(sc, s, t):
    """The PSD term matrices as built before the shared build, with the
    `t`-parts that cancel in exact arithmetic."""
    U, V = sc.polar_a.U, sc.polar_b.U
    corange_a, corange_b = U.conj().T @ U, V.conj().T @ V
    In = np.eye(sc.A.shape[1], dtype=np.complex128)
    D1a, D2a = sc.D1.conj().T, sc.D2.conj().T
    abs_a, abs_b = sc.polar_a.H, sc.polar_b.H
    left_mix = V.conj().T @ (t * D1a - np.conj(s) * sc.d1_inv) @ sc.A
    t1 = abs_b @ (In - t * sc.d2_inv) + left_mix
    t2 = abs_a @ (s * sc.D2 - In)
    t3 = (
        abs_b @ (In - t * sc.d2_inv) @ corange_a
        + left_mix
        - corange_b @ (np.conj(s) * D2a - In) @ abs_a
    )
    return t1, t2, t3


def psd_part_scale(sc, s, t):
    """A bound on the Frobenius norms of the parts of each reference PSD
    term, `t`-parts included: the sum of the products of their factors'
    norms.  Rounding moves a term by a few eps of it."""
    norm = np.linalg.norm
    abs_a, abs_b = norm(sc.polar_a.H), norm(sc.polar_b.H)
    return (1.0 + np.abs(s) + np.abs(t)) * (
        abs_b * (1.0 + norm(sc.d2_inv))
        + norm(sc.A) * (norm(sc.D1) + norm(sc.d1_inv))
        + abs_a * (1.0 + norm(sc.D2))
    )


def test_shared_build_matches_the_two_family_builds():
    # Sizes 1-6, real and complex A of every rank, A scaled from 1e-300 to
    # 8e307, and perturbers I + eps E from eps = 1e-3 to 0.5.  The
    # subunitary terms are byte-equal to their reference.  The PSD terms
    # leave out the t-parts, which cancel in exact arithmetic, so at any t
    # they match theirs to a few eps of the norms of the reference's parts,
    # wherever those are finite.
    scales = (1.0, 1e-300, 1e-150, 1e150, 1e300, 4e307, 8e307)
    probes = [
        (perturb_mod._PROBE_S, perturb_mod._PROBE_T),
        (1.0, 1.0),
        (0.3 - 2j, 1.5 + 0.25j),
        (0.3 - 2j, -700.0 + 800.0j),
        (1.0, 1e3),
    ]
    checked = psd_checked = 0
    for seed in range(120):
        rng = np.random.default_rng((521, seed))
        m, n = (int(k) for k in rng.integers(1, 7, size=2))
        rank = seed % (min(m, n) + 1)
        A = rank_r_matrix(rng, m, n, rank, complex_entries=bool(seed % 2))
        if A.any():
            A = A / np.abs(A).max() * scales[seed % len(scales)]
        eps = (1e-3, 1e-2, 0.1, 0.5)[seed // 2 % 4]
        D1 = np.eye(m) + eps * complex_gaussian(rng, (m, m))
        D2 = np.eye(n) + eps * complex_gaussian(rng, (n, n))
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                sc = make_scenario(A, D1, D2)
            except (DomainError, NumericalError):  # B = D1* A D2 or a singular value overflows
                continue
            checked += 1
            for s, t in probes:
                got = perturb_mod._term_matrices(sc, s, t)
                for g, w in zip(got[:3], reference_subunitary_matrices(sc, s, t), strict=True):
                    assert g.dtype == w.dtype and g.shape == w.shape, seed
                    assert g.tobytes() == w.tobytes(), seed
                scale = psd_part_scale(sc, s, t)
                want = reference_psd_matrices(sc, s, t)
                if not (np.isfinite(scale).all() and all(np.isfinite(w).all() for w in want)):
                    continue
                psd_checked += 1
                for g, w in zip(got[3:], want, strict=True):
                    assert g.dtype == w.dtype and g.shape == w.shape, seed
                    gap = np.linalg.norm(g - w, axis=(-2, -1)).reshape(np.shape(scale))
                    assert (gap <= 4 * EPS * scale).all(), seed
    assert checked >= 100
    assert psd_checked >= 300


def test_psd_probe_keeps_t_at_one():
    # The PSD terms are built without t, so their forms and radicand take
    # the s steps alone, the optimal probe leaves t at exactly 1, and the
    # terms at any probe ignore t to the last bit.
    rng = np.random.default_rng(517)
    for m, n in [(3, 3), (6, 2), (2, 5)]:
        sc = random_scenario(rng, m, n)
        assert [len(G) for G in sc._forms[1]] == [3, 3, 3]
        assert perturb_mod._radicand_form(sc, 1).shape == (3, 3)
        assert perturb_mod._optimal_probe(sc, 1)[1] == 1
        report = psd_factor_bound(sc, SearchStrategy.OPTIMAL)
        assert report.t == 1
        for s in (report.s, 0.4 - 1.5j):
            terms = [perturb_mod._terms(sc, 1, s, t) for t in (1.0, -30.0 + 7.5j)]
            assert np.array(terms[0]).tobytes() == np.array(terms[1]).tobytes()


def test_grid_search_name_is_optimal_alias():
    assert SearchStrategy.GRID_THEN_LOCAL_SEARCH is SearchStrategy.OPTIMAL


@st.composite
def integer_scenario_data(draw):
    """Integer `A` of any rank and diagonally dominant integer perturbers."""
    dtype = draw(st.sampled_from(INTEGER_DTYPES))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    A = draw(integer_matrix((m, n), dtype))
    D1 = draw(integer_matrix((m, m), dtype, -2, 2)) + 20 * np.eye(m, dtype=dtype)
    D2 = draw(integer_matrix((n, n), dtype, -2, 2)) + 20 * np.eye(n, dtype=dtype)
    return A, D1, D2


@PROPERTY
@given(integer_scenario_data())
def test_integer_data_give_the_float64_results(data):
    as_int = make_scenario(*data)
    as_float = make_scenario(*(M.astype(np.float64) for M in data))
    npt.assert_array_equal(as_int.B, as_float.B)
    for strategy in (SearchStrategy.AT_ONE_ONE, SearchStrategy.OPTIMAL):
        assert subunitary_bound(as_int, strategy) == subunitary_bound(as_float, strategy)
        assert psd_factor_bound(as_int, strategy) == psd_factor_bound(as_float, strategy)


def term_values(low, high):
    """Strategy for 0 and for doubles whose `frexp` exponent lies in [low, high]."""
    mantissas = st.floats(0.5, 1.0, exclude_max=True)
    return st.just(0.0) | st.builds(math.ldexp, mantissas, st.integers(low, high))


@PROPERTY
@given(st.tuples(*[term_values(-200, 200)] * 3), st.data())
def test_combine_is_the_plain_formula_and_commutes_with_powers_of_two(terms, data):
    t1, t2, t3 = terms
    radicand = t1 * t1 + t2 * t2 - t3 * t3
    plain = (0.0, True) if radicand < 0.0 else (math.sqrt(radicand), False)
    assert perturb_mod._combine(terms) == plain
    # Any shift that keeps every nonzero term a normal double.
    exponents = [math.frexp(t)[1] for t in terms if t] or [0]
    k = data.draw(st.integers(-1021 - min(exponents), 1024 - max(exponents)))
    shifted = tuple(math.ldexp(t, k) for t in terms)
    bound, clamped = plain
    assert perturb_mod._combine(shifted) == (math.ldexp(bound, k), clamped)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5), st.booleans())
def test_optimal_probe_ignores_a_power_of_two_on_the_forms(seed, m, n, complex_entries):
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, m, n, eps=0.1, complex_entries=complex_entries)
    for family in (0, 1):
        probe = perturb_mod._optimal_probe(sc, family)
        for k in (-400, -150, 150, 400):
            scaled = dataclasses.replace(sc)
            vars(scaled)["_forms"] = tuple(
                tuple(np.ldexp(G.view(np.float64), k).view(np.complex128) for G in rows)
                for rows in sc._forms
            )
            assert perturb_mod._optimal_probe(scaled, family) == probe
