import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from polarbounds import matrixcore
from polarbounds.exceptions import DomainError
from polarbounds.polar import generalized_polar, verify_polar
from conftest import INTEGER_DTYPES, PROPERTY, complex_gaussian, integer_matrix, rank_r_matrix


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
        root = matrixcore.psd_sqrt(M.conj().T @ M)
        npt.assert_allclose(f.H, root, atol=1e-11)

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
        npt.assert_allclose(f.H, matrixcore.psd_sqrt(M.conj().T @ M), atol=1e-11)

    def test_rank_cutoff_ties_factors_together(self):
        # Singular values below the cutoff vanish from both factors, so U
        # and H keep identical ranges even for nearly singular input.
        M = np.diag([1.0, 1e-20])
        f = generalized_polar(M)
        assert f.rank == 1
        npt.assert_allclose(f.U, np.diag([1.0, 0.0]), atol=1e-15)
        npt.assert_allclose(f.H, np.diag([1.0, 0.0]), atol=1e-15)

    def test_explicit_tolerance(self):
        M = np.diag([1.0, 1e-3])
        assert generalized_polar(M).rank == 2
        assert generalized_polar(M, tol=1e-2).rank == 1

    def test_nan_tolerance_rejected(self):
        with pytest.raises(DomainError):
            generalized_polar(np.diag([1.0, 1e-3]), tol=math.nan)


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
