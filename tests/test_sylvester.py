import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from polarbounds import matrixcore
from polarbounds.exceptions import (
    DomainError,
    HypothesisError,
    InconsistentSystemError,
    NumericalError,
    SpectralOverlapError,
)
from polarbounds.sylvester import (
    SylvesterSolution,
    solve_general_hermitian,
    solve_structured,
    splitting_identity_residual,
    structured_problem,
)
from conftest import (
    complex_gaussian,
    kronecker_solve,
    random_psd,
    structured_instance,
)


class TestStructuredProblem:
    def test_flags_on_positive_definite(self):
        rng = np.random.default_rng(301)
        A = random_psd(rng, 3, 3)
        B = random_psd(rng, 2, 2)
        C = complex_gaussian(rng, (3, 2))
        D = complex_gaussian(rng, (3, 2))
        p = structured_problem(A, B, C, D)
        assert p.c_left_conforming and p.c_right_conforming
        assert p.d_left_conforming and p.d_right_conforming

    def test_flags_detect_nonconforming_data(self):
        A = np.diag([1.0, 0.0])
        B = np.eye(2)
        C = np.array([[0.0, 0.0], [1.0, 0.0]])
        p = structured_problem(A, B, C, np.zeros((2, 2)))
        assert not p.c_left_conforming
        assert p.c_right_conforming and p.d_left_conforming and p.d_right_conforming

    def test_rejects_non_hermitian_coefficient(self):
        with pytest.raises(DomainError):
            structured_problem(
                np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2),
                np.zeros((2, 2)), np.zeros((2, 2)),
            )

    def test_rejects_indefinite_coefficient(self):
        with pytest.raises(DomainError):
            structured_problem(
                np.diag([1.0, -1.0]), np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            structured_problem(np.eye(2), np.eye(2), np.zeros((3, 2)), np.zeros((2, 2)))

    def test_eigendata_reconstructs_coefficients(self):
        rng = np.random.default_rng(302)
        A = random_psd(rng, 4, 2)
        p = structured_problem(A, np.eye(3), np.zeros((4, 3)), np.zeros((4, 3)))
        rebuilt = (p.eigenvectors_a * p.eigenvalues_a) @ p.eigenvectors_a.conj().T
        npt.assert_allclose(rebuilt, p.A, atol=1e-12)

    def test_keeps_the_factored_hermitian_part(self):
        rng = np.random.default_rng(303)
        A = random_psd(rng, 3, 3)
        A[2, 0] += 1e-12
        p = structured_problem(A, np.eye(2), np.zeros((3, 2)), np.zeros((3, 2)))
        npt.assert_array_equal(p.A, matrixcore.require_hermitian(A))
        npt.assert_array_equal(p.A, p.A.conj().T)

    def test_validates_each_argument_once(self, monkeypatch):
        calls = []
        orig = matrixcore.as_matrix
        monkeypatch.setattr(
            matrixcore, "as_matrix", lambda M, name: calls.append(name) or orig(M, name)
        )
        structured_problem(np.eye(3), np.eye(2), np.ones((3, 2)), np.ones((3, 2)))
        assert sorted(calls) == ["A", "B", "C", "D"]

    def test_coefficient_entries_near_the_largest_double(self):
        # A + A* overflows here, though A and every eigenvalue are finite.
        A, eye = np.diag([1e308, 5e307]), np.eye(2)
        p = structured_problem(A, eye, eye, eye)
        npt.assert_array_equal(p.A, A)
        npt.assert_array_equal(solve_structured(p).X, eye)

    def test_overflowing_eigenvalue_raises(self):
        eye = np.eye(2)
        with pytest.raises(NumericalError, match="overflow"):
            structured_problem(np.full((2, 2), 1e308), eye, eye, eye)


class TestSolveStructured:
    def test_identity_coefficients_average(self):
        rng = np.random.default_rng(303)
        C = complex_gaussian(rng, (3, 3))
        D = complex_gaussian(rng, (3, 3))
        sol = solve_structured(structured_problem(np.eye(3), np.eye(3), C, D))
        npt.assert_allclose(sol.X, (C + D) / 2.0, atol=1e-13)
        assert sol.range_conforming

    def test_equal_data_is_fixed_point(self):
        rng = np.random.default_rng(304)
        A = random_psd(rng, 3, 3)
        B = random_psd(rng, 3, 3)
        C = complex_gaussian(rng, (3, 3))
        sol = solve_structured(structured_problem(A, B, C, C))
        npt.assert_allclose(sol.X, C, atol=1e-11)

    def test_closed_form_left_identity(self):
        # With A = I the equation is X (I + B) = C + D B.
        rng = np.random.default_rng(305)
        B = random_psd(rng, 2, 2) + np.eye(2)
        C = complex_gaussian(rng, (2, 2))
        D = complex_gaussian(rng, (2, 2))
        sol = solve_structured(structured_problem(np.eye(2), B, C, D))
        expected = (C + D @ B) @ np.linalg.inv(np.eye(2) + B)
        npt.assert_allclose(sol.X, expected, atol=1e-12)

    def test_kronecker_oracle_positive_definite(self):
        rng = np.random.default_rng(306)
        for _ in range(20):
            m, n = rng.integers(2, 6, size=2)
            A = random_psd(rng, m, m) + 0.1 * np.eye(m)
            B = random_psd(rng, n, n) + 0.1 * np.eye(n)
            C = complex_gaussian(rng, (m, n))
            D = complex_gaussian(rng, (m, n))
            sol = solve_structured(structured_problem(A, B, C, D))
            expected = kronecker_solve(A, B, A @ C + D @ B)
            npt.assert_allclose(sol.X, expected, atol=1e-9 * (1 + np.linalg.norm(expected)))

    def test_singular_conforming_instances(self):
        rng = np.random.default_rng(307)
        for _ in range(20):
            p = structured_problem(*structured_instance(rng, 4, 3, rank_a=2, rank_b=2))
            sol = solve_structured(p)
            assert sol.residual < 1e-10
            assert sol.range_conforming

    def test_requires_compatibility_flags(self):
        A = np.diag([1.0, 0.0])
        C = np.array([[0.0, 0.0], [1.0, 0.0]])
        p = structured_problem(A, np.eye(2), C, np.zeros((2, 2)))
        with pytest.raises(HypothesisError):
            solve_structured(p)

    def test_inconsistent_system_detected(self):
        # Data riding on a zero eigenvalue of B cannot be matched by any
        # range-conforming X, so the residual check must fire.
        A = np.diag([1.0, 0.0])
        B = np.diag([1.0, 0.0])
        C = np.array([[0.0, 1.0], [0.0, 0.0]])
        p = structured_problem(A, B, C, np.zeros((2, 2)))
        assert p.c_left_conforming and p.d_right_conforming
        with pytest.raises(InconsistentSystemError):
            solve_structured(p)

    def test_nan_residual_rejected(self):
        # A C overflows, so X and the residual are NaN; NaN must fail the
        # residual gate rather than slip through a `residual > tol` test.
        p = structured_problem(
            1e200 * np.eye(2), np.eye(2), 1e160 * np.ones((2, 2)), np.zeros((2, 2))
        )
        with np.errstate(all="ignore"), pytest.raises(InconsistentSystemError):
            solve_structured(p)


class TestSolveGeneralHermitian:
    def test_scalar(self):
        X = solve_general_hermitian([[2.0]], [[-1.0]], [[3.0]])
        npt.assert_allclose(X, [[1.0]], atol=1e-14)

    def test_kronecker_oracle(self):
        rng = np.random.default_rng(308)
        for _ in range(15):
            k, l = rng.integers(2, 6, size=2)
            Omega = random_psd(rng, k, k) + 2.0 * np.eye(k)
            Gamma = -random_psd(rng, l, l) - 2.0 * np.eye(l)
            S = complex_gaussian(rng, (k, l))
            X = solve_general_hermitian(Omega, Gamma, S)
            expected = kronecker_solve(Omega, -Gamma, S)
            npt.assert_allclose(X, expected, atol=1e-10 * (1 + np.linalg.norm(expected)))

    def test_residual_is_small(self):
        rng = np.random.default_rng(309)
        Omega = np.diag([3.0, 5.0])
        Gamma = np.diag([-1.0, 1.0])
        S = complex_gaussian(rng, (2, 2))
        X = solve_general_hermitian(Omega, Gamma, S)
        assert matrixcore.frobenius_norm(Omega @ X - X @ Gamma - S) < 1e-12

    def test_nan_residual_rejected(self):
        # S / (omega - gamma) overflows, so the residual is NaN.
        w = np.diag([1e-300, 2e-300])
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            solve_general_hermitian(w, -w, 1e300 * np.ones((2, 2)))

    @pytest.mark.parametrize("overflowing", ["Omega", "Gamma"])
    def test_overflowing_eigenvalue_raises(self, overflowing):
        # Both matrices are finite and Hermitian; the first has an eigenvalue
        # near 2e308.
        big, one = [[1.7e308, 1e308], [1e308, -1.7e308]], [[1.0]]
        Omega, Gamma = (big, one) if overflowing == "Omega" else (one, big)
        S = np.ones((len(Omega), len(Gamma)))
        with pytest.raises(NumericalError, match=f"eigenvalue of {overflowing} overflows"):
            solve_general_hermitian(Omega, Gamma, S)

    def test_eigensolver_failure_raises(self, monkeypatch):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        with pytest.raises(NumericalError, match="failed to converge"):
            solve_general_hermitian([[2.0]], [[-1.0]], [[3.0]])

    def test_overlapping_spectra_rejected(self):
        with pytest.raises(SpectralOverlapError):
            solve_general_hermitian(np.diag([1.0, 2.0]), np.diag([2.0, 5.0]), np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            solve_general_hermitian(
                np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), np.eye(2)
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            solve_general_hermitian(np.eye(2), np.eye(3), np.eye(2))


class TestSplittingIdentity:
    def test_identity_coefficients(self):
        # With A = B = I all four terms equal ||D - C||^2 / 4.
        rng = np.random.default_rng(310)
        C = complex_gaussian(rng, (3, 3))
        D = complex_gaussian(rng, (3, 3))
        p = structured_problem(np.eye(3), np.eye(3), C, D)
        assert splitting_identity_residual(p, solve_structured(p)) < 1e-14

    def test_random_conforming_instances(self):
        rng = np.random.default_rng(311)
        for _ in range(50):
            m, n = rng.integers(2, 6, size=2)
            p = structured_problem(*structured_instance(rng, int(m), int(n)))
            sol = solve_structured(p)
            assert splitting_identity_residual(p, sol) < 1e-9

    def test_requires_all_flags(self):
        # A consistent solve forces all four flags, so the guard is only
        # reachable with a solution produced elsewhere.
        A = np.diag([1.0, 0.0])
        B = np.eye(2)
        D = np.array([[0.0, 0.0], [1.0, 0.0]])  # rows leave range(A)
        p = structured_problem(A, B, np.zeros((2, 2)), D)
        assert not p.d_left_conforming
        dummy = SylvesterSolution(
            X=np.zeros((2, 2)), residual=0.0, range_conforming=True
        )
        with pytest.raises(HypothesisError):
            splitting_identity_residual(p, dummy)

    def test_requires_conforming_solution(self):
        p = structured_problem(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        good = solve_structured(p)
        tampered = SylvesterSolution(
            X=good.X, residual=good.residual, range_conforming=False
        )
        with pytest.raises(HypothesisError):
            splitting_identity_residual(p, tampered)


# Derandomized and bounded, so the suite draws the same examples every run.
_PROPERTY = settings(max_examples=100, derandomize=True, database=None, deadline=None)

_EPS = float(np.finfo(np.float64).eps)
_CASES = ("rank_deficient", "below_cutoff", "above_cutoff", "full_rank", "zero")


@st.composite
def psd_coefficient(draw, complex_entries, cases=_CASES):
    """Hermitian PSD matrix at a scale between 1e-150 and 1e150, and an
    orthonormal basis of its eigenvectors with eigenvalues of order one
    times the scale.

    `below_cutoff` and `above_cutoff` place one eigenvalue at half or twice
    the rank cutoff ``n * eps * ||M||_2``; `zero` is the zero matrix.
    """
    case = draw(st.sampled_from(cases))
    n = draw(st.integers(2 if case.endswith("cutoff") else 1, 4))
    scale = 10.0 ** draw(st.integers(-150, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = complex_gaussian(rng, (n, n)) if complex_entries else rng.standard_normal((n, n))
    U = np.linalg.qr(G)[0]
    w = rng.uniform(1.0, 10.0, n)
    clear = np.ones(n, dtype=bool)
    if case == "zero":
        clear[:] = False
    elif case == "rank_deficient":
        clear[: rng.integers(1, n + 1)] = False
    elif case != "full_rank":
        clear[0] = False
    w[~clear] = 0.0
    if case.endswith("cutoff"):
        w[0] = (0.5 if case == "below_cutoff" else 2.0) * n * _EPS * w.max()
    M = (U * (scale * w)) @ U.conj().T
    return (M + M.conj().T) / 2, U[:, clear]


@st.composite
def conforming_data(draw, cases=_CASES, leaks=False):
    """Coefficients `A`, `B` and data `C`, `D` on the eigenvectors of the
    order-one eigenvalues of both, plus, with `leaks`, a component off
    them of relative size log-uniform between 1e-14 and 1e-6, around the
    1e-10 tolerance of the range flags."""
    complex_entries = draw(st.booleans())
    A, Ua = draw(psd_coefficient(complex_entries, cases))
    B, Ub = draw(psd_coefficient(complex_entries, cases))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = A.shape[0], B.shape[0]

    def gaussian():
        return complex_gaussian(rng, (m, n)) if complex_entries else rng.standard_normal((m, n))

    def datum():
        M = Ua @ (Ua.conj().T @ gaussian() @ Ub) @ Ub.conj().T
        if leaks and draw(st.booleans()):
            M = M + 10.0 ** rng.uniform(-14.0, -6.0) * gaussian()
        return M

    return A, B, datum(), datum()


def _reference_flag(w, Q, M, side):
    """``||P M - M||_F <= 1e-10 (1 + ||M||_F)`` with the explicit range
    projector `P`, and whether the residual is within 1e-3 relative of
    that threshold."""
    n = w.size
    cols = Q[:, w > matrixcore.rank_cutoff((n, n), max(float(w[-1]), 0.0))]
    P = cols @ cols.conj().T
    resid = matrixcore.frobenius_norm(P @ M - M if side == "left" else M @ P - M)
    threshold = 1e-10 * (1.0 + matrixcore.frobenius_norm(M))
    return resid <= threshold, abs(resid - threshold) <= 1e-3 * threshold


class TestSpectralKernelProperties:
    @_PROPERTY
    @given(conforming_data(leaks=True))
    def test_flags_match_projector_reference(self, data):
        p = structured_problem(*data)
        wa, Qa = p.eigenvalues_a, p.eigenvectors_a
        wb, Qb = p.eigenvalues_b, p.eigenvectors_b
        for flag, (w, Q, M, side) in (
            (p.c_left_conforming, (wa, Qa, p.C, "left")),
            (p.c_right_conforming, (wb, Qb, p.C, "right")),
            (p.d_left_conforming, (wa, Qa, p.D, "left")),
            (p.d_right_conforming, (wb, Qb, p.D, "right")),
        ):
            expected, borderline = _reference_flag(w, Q, M, side)
            assume(not borderline)
            assert flag == expected

    @_PROPERTY
    @given(conforming_data())
    def test_solution_is_range_conforming(self, data):
        sol = solve_structured(structured_problem(*data))
        assert sol.residual <= 1e-8
        assert sol.range_conforming

    @_PROPERTY
    @given(conforming_data(cases=("full_rank",)))
    def test_solvers_agree_with_kronecker_oracle(self, data):
        A, B, C, D = data
        S = A @ C + D @ B
        expected = kronecker_solve(A, B, S)
        atol = 1e-9 * (1.0 + np.linalg.norm(expected))
        X = solve_structured(structured_problem(A, B, C, D)).X
        npt.assert_allclose(X, expected, atol=atol)
        npt.assert_allclose(solve_general_hermitian(A, -B, S), expected, atol=atol)

    @_PROPERTY
    @given(conforming_data(cases=("full_rank",)))
    def test_solvers_agree_with_bartels_stewart(self, data):
        # scipy's Schur-based solver shares no code with the spectral kernel.
        # The eigenvalues of A and B lie in [1, 10] times one scale each, so
        # the operator X -> A X + X B has condition number at most 10, and
        # both backward-stable solutions agree to a few hundred eps of
        # ||X||_F; 1e-10 relative leaves room for that at n <= 4.
        A, B, C, D = data
        S = A @ C + D @ B
        expected = scipy.linalg.solve_sylvester(A, B, S)
        atol = 1e-10 * np.linalg.norm(expected)
        X = solve_structured(structured_problem(A, B, C, D)).X
        npt.assert_allclose(X, expected, rtol=0, atol=atol)
        npt.assert_allclose(solve_general_hermitian(A, -B, S), expected, rtol=0, atol=atol)
