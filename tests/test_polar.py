import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from polarbounds import matrixcore, sylvester
from polarbounds.exceptions import DomainError, NumericalError
from polarbounds.polar import PolarFactors, generalized_polar, verify_polar
from conftest import (
    INTEGER_DTYPES,
    PROPERTY,
    complex_gaussian,
    gram_root,
    integer_matrix,
    rank_r_matrix,
    structured_instance,
)


class TestKnownFactorizations:
    def test_identity(self):
        f = generalized_polar(np.eye(3))
        npt.assert_allclose(f.U, np.eye(3), atol=1e-14)
        npt.assert_allclose(f.H, np.eye(3), atol=1e-14)
        assert f.rank == 3

    def test_nilpotent_jordan_block(self):
        A = np.array([[0.0, 2.0], [0.0, 0.0]])
        f = generalized_polar(A)
        npt.assert_allclose(f.U, [[0.0, 1.0], [0.0, 0.0]], atol=1e-14)
        npt.assert_allclose(f.H, np.diag([0.0, 2.0]), atol=1e-14)
        assert f.rank == 1

    def test_negative_scalar(self):
        f = generalized_polar(np.array([[-3.0]]))
        npt.assert_allclose(f.U, [[-1.0]], atol=1e-15)
        npt.assert_allclose(f.H, [[3.0]], atol=1e-15)

    def test_unitary_input(self):
        theta = 0.7
        A = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        f = generalized_polar(A)
        npt.assert_allclose(f.U, A, atol=1e-14)
        npt.assert_allclose(f.H, np.eye(2), atol=1e-14)

    def test_rectangular_tall(self):
        A = np.array([[2.0], [0.0], [0.0]])
        f = generalized_polar(A)
        assert f.U.shape == (3, 1)
        assert f.H.shape == (1, 1)
        npt.assert_allclose(f.U, [[1.0], [0.0], [0.0]], atol=1e-14)
        npt.assert_allclose(f.H, [[2.0]], atol=1e-14)

    def test_entries_near_the_largest_double(self):
        # H + H* overflows here, though A and both factors are finite.
        A = np.diag([1e308, 5e307])
        f = generalized_polar(A)
        npt.assert_array_equal(f.H, A)
        assert verify_polar(A, f).max_residual < 1e-12

    def test_zero_matrix(self):
        f = generalized_polar(np.zeros((2, 3)))
        assert f.rank == 0
        assert matrixcore.frobenius_norm(f.U) == 0.0
        assert matrixcore.frobenius_norm(f.H) == 0.0


class TestFactorProperties:
    def test_residuals_random(self):
        rng = np.random.default_rng(201)
        for _ in range(30):
            m, n = rng.integers(1, 7, size=2)
            r = int(rng.integers(0, min(m, n) + 1))
            M = rank_r_matrix(rng, m, n, r, complex_entries=bool(rng.integers(2)))
            f = generalized_polar(M)
            assert f.rank == r
            res = verify_polar(M, f)
            assert res.max_residual < 1e-12

    def test_hermitian_factor_matches_gram_root(self):
        rng = np.random.default_rng(202)
        M = complex_gaussian(rng, (4, 4))
        f = generalized_polar(M)
        npt.assert_allclose(f.H, gram_root(M), atol=1e-11)

    def test_adjoint_factor_relation(self):
        # |M*| = U |M| U* with the partial isometry of M.
        rng = np.random.default_rng(203)
        for _ in range(10):
            m, n = rng.integers(1, 6, size=2)
            r = int(rng.integers(1, min(m, n) + 1))
            M = rank_r_matrix(rng, m, n, r)
            f = generalized_polar(M)
            g = generalized_polar(M.conj().T)
            npt.assert_allclose(
                g.H,
                f.U @ f.H @ f.U.conj().T,
                atol=1e-11 * (1 + matrixcore.frobenius_norm(M)),
            )

    def test_uniqueness_repeated_singular_values(self):
        # A repeated singular value leaves the SVD free to rotate inside the
        # block, but U and H are determined by the matrix alone.
        rng = np.random.default_rng(204)
        Q1 = np.linalg.qr(complex_gaussian(rng, (4, 4)))[0]
        Q2 = np.linalg.qr(complex_gaussian(rng, (4, 4)))[0]
        M = Q1 @ np.diag([3.0, 2.0, 2.0, 0.0]) @ Q2.conj().T
        f = generalized_polar(M)
        P = matrixcore.pinv(f.H)
        npt.assert_allclose(f.U, M @ P, atol=1e-11)
        npt.assert_allclose(f.H, gram_root(M), atol=1e-11)

    def test_rank_cutoff_ties_factors_together(self):
        # Singular values below the cutoff vanish from both factors, so U
        # and H keep identical ranges even for nearly singular input.
        M = np.diag([1.0, 1e-20])
        f = generalized_polar(M)
        assert f.rank == 1
        npt.assert_allclose(f.U, np.diag([1.0, 0.0]), atol=1e-15)
        npt.assert_allclose(f.H, np.diag([1.0, 0.0]), atol=1e-15)


def test_overflowing_singular_value_raises():
    # The entries are finite, sigma_max = 1.5e308 sqrt(2) is not; the
    # factors came back as U = 0, H = 0 and rank 0, with a NaN residual.
    A = 1.5e308 * np.array([[1.0, 1.0]])
    with pytest.raises(NumericalError, match="singular value of A overflows"):
        generalized_polar(A)
    with pytest.raises(NumericalError, match="singular value of matrix overflows"):
        verify_polar(A, PolarFactors(np.zeros((1, 2)), np.zeros((2, 2)), 0))


class TestVerifyPolar:
    def test_rejects_mismatched_factors(self):
        f = generalized_polar(np.eye(2))
        with pytest.raises(DomainError):
            verify_polar(np.eye(3), f)

    def test_reports_bad_factors(self):
        A = np.array([[0.0, 2.0], [0.0, 0.0]])
        good = generalized_polar(A)
        bad = type(good)(U=np.eye(2), H=good.H, rank=good.rank)
        res = verify_polar(A, bad)
        assert res.max_residual > 1e-2

    def test_residual_fields_nonnegative(self):
        rng = np.random.default_rng(205)
        f_res = verify_polar(
            complex_gaussian(rng, (3, 3)), generalized_polar(complex_gaussian(rng, (3, 3)))
        )
        for value in (
            f_res.factorization,
            f_res.partial_isometry,
            f_res.right_projector,
            f_res.left_projector,
            f_res.hermitian,
        ):
            assert value >= 0.0


def _count_factorizations(monkeypatch, names=("svd", "eigh")) -> dict[str, int]:
    """Count the calls of the named ``np.linalg`` functions from now on."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _hand_built(f: PolarFactors) -> PolarFactors:
    """The same factors without the kept SVD, so verify_polar takes its own."""
    return PolarFactors(f.U, f.H, f.rank)


def _acceptance_7_matrices():
    """Every shape up to 6 x 6 at every rank, real and complex, as in
    acceptance 7."""
    rng = np.random.default_rng(207)
    for m in range(1, 7):
        for n in range(1, 7):
            for r in range(min(m, n) + 1):
                for complex_entries in (False, True):
                    yield rank_r_matrix(rng, m, n, r, complex_entries=complex_entries)


def _near_cutoff_matrices():
    """Matrices of full rank `r` but for their smallest singular value, set
    at 0.5 and 2 times the rank cutoff, with the rank `svd` should give:
    ``r - 1`` and ``r``."""
    rng = np.random.default_rng(209)

    def unitary(k, complex_entries):
        G = rank_r_matrix(rng, k, k, k, complex_entries)
        return np.linalg.qr(G)[0]

    for m, n in [(3, 3), (4, 2), (2, 5), (5, 3), (6, 6)]:
        r = min(m, n)
        for complex_entries in (False, True):
            for factor, rank_lost in ((0.5, 1), (2.0, 0)):
                sigma = np.linspace(1.0, 0.5, r)
                sigma[-1] = factor * matrixcore.rank_cutoff((m, n), 1.0)
                S = np.zeros((m, n))
                S[:r, :r] = np.diag(sigma)
                P, Q = unitary(m, complex_entries), unitary(n, complex_entries)
                yield P @ S @ Q.conj().T, r - rank_lost


class TestVerifyReusesTheSvd:
    def test_one_svd_to_factor_and_verify(self, monkeypatch):
        M = complex_gaussian(np.random.default_rng(206), (5, 3))
        calls = _count_factorizations(monkeypatch)
        verify_polar(M, generalized_polar(M))
        assert calls == {"svd": 1, "eigh": 0}

    def test_structured_chain_factors_three_times(self, monkeypatch):
        # Two eigendecompositions of the coefficients, one SVD of X.
        data = structured_instance(np.random.default_rng(208), 5, 4)
        calls = _count_factorizations(monkeypatch)
        X = sylvester.solve_structured(sylvester.structured_problem(*data)).X
        assert verify_polar(X, generalized_polar(X)).max_residual < 1e-12
        assert calls == {"svd": 1, "eigh": 2}

    @pytest.mark.parametrize("change", ["in place", "negative zero", "complex copy"])
    def test_a_changed_matrix_gets_a_fresh_svd(self, monkeypatch, change):
        M = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.0]])
        f = generalized_polar(M)
        if change == "in place":
            M[0, 0] = -3.0
        elif change == "negative zero":
            M[0, 2] = -0.0
        else:
            M = M.astype(np.complex128)
        calls = _count_factorizations(monkeypatch)
        got = verify_polar(M, f)
        assert calls["svd"] == 1
        assert got == verify_polar(M, _hand_built(f))
        if change == "in place":
            assert got.factorization > 0.1
        else:
            assert got.max_residual < 1e-12

    def test_the_same_bytes_in_another_shape_get_a_fresh_svd(self):
        # [[3, 0], [1, 0]] and [[3 + 0j], [1 + 0j]] share their bytes; the
        # factors of the second carry the SVD kept for the first.
        M = np.array([[3.0, 0.0], [1.0, 0.0]])
        Mc = M.view(np.complex128)
        fc = generalized_polar(Mc)
        moved = dataclasses.replace(generalized_polar(M), U=fc.U, H=fc.H, rank=fc.rank)
        assert verify_polar(Mc, moved) == verify_polar(Mc, _hand_built(fc))

    def test_kept_svd_gives_the_residuals_of_a_fresh_one(self):
        for M in _acceptance_7_matrices():
            f = generalized_polar(M)
            assert f._svd is not None
            assert verify_polar(M, f) == verify_polar(M, _hand_built(f))
        # Residuals reach 5e-2 here, where the rank decision is close.
        for M, rank in _near_cutoff_matrices():
            f = generalized_polar(M)
            assert f.rank == rank
            assert verify_polar(M, f) == verify_polar(M, _hand_built(f))

    def test_replaced_factor_is_still_reported(self):
        A = np.array([[0.0, 2.0], [0.0, 0.0]])
        good = generalized_polar(A)
        bad = dataclasses.replace(good, U=np.eye(2))
        assert bad._svd is good._svd
        res = verify_polar(A, bad)
        assert res.max_residual > 1e-2
        assert res == verify_polar(A, _hand_built(bad))


@st.composite
def integer_matrices(draw):
    dtype = draw(st.sampled_from(INTEGER_DTYPES))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    return draw(integer_matrix(shape, dtype))


@PROPERTY
@given(integer_matrices())
def test_integer_input_gives_the_float64_factors(M):
    as_int = generalized_polar(M)
    as_float = generalized_polar(M.astype(np.float64))
    npt.assert_array_equal(as_int.U, as_float.U)
    npt.assert_array_equal(as_int.H, as_float.H)
    assert as_int.rank == as_float.rank
