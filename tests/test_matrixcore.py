import math

import numpy as np
import numpy.testing as npt
import pytest

from polarbounds import matrixcore
from polarbounds.exceptions import DomainError, MatrixFormatError
from conftest import complex_gaussian, rank_r_matrix


class TestFrobeniusNorm:
    def test_identity(self):
        assert matrixcore.frobenius_norm(np.eye(2)) == pytest.approx(math.sqrt(2.0))

    def test_three_four_five(self):
        assert matrixcore.frobenius_norm([[3.0, 4.0], [0.0, 0.0]]) == 5.0

    def test_complex_entry(self):
        assert matrixcore.frobenius_norm([[1.0 + 1.0j]]) == pytest.approx(math.sqrt(2.0))

    def test_zero(self):
        assert matrixcore.frobenius_norm(np.zeros((3, 2))) == 0.0

    def test_trace_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            m, n = rng.integers(1, 7, size=2)
            M = complex_gaussian(rng, (m, n))
            expected = math.sqrt(np.trace(M.conj().T @ M).real)
            assert matrixcore.frobenius_norm(M) == pytest.approx(expected, rel=1e-13)

    def test_matches_reference_norm(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            M = rng.standard_normal((5, 3))
            assert matrixcore.frobenius_norm(M) == pytest.approx(
                np.linalg.norm(M), rel=1e-13
            )

    def test_noncontiguous_input(self):
        M = np.arange(24, dtype=float).reshape(4, 6)
        assert matrixcore.frobenius_norm(M[:, ::2]) == pytest.approx(
            np.linalg.norm(M[:, ::2]), rel=1e-13
        )

    def test_rejects_vector(self):
        with pytest.raises(DomainError):
            matrixcore.frobenius_norm(np.ones(3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "dtype", [None, np.float64, np.complex128], ids=["list", "float64", "complex128"]
    )
    def test_rejects_non_finite_on_conversion(self, dtype, bad):
        M = [[1.0, bad]]
        if dtype is not None:
            M = np.array(M, dtype=dtype)
        with pytest.raises(DomainError):
            matrixcore.frobenius_norm(M)


class TestFrobeniusNorms:
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_equals_single_norm_bitwise(self, complex_entries):
        rng = np.random.default_rng(103)
        M = rng.standard_normal((40, 3, 3))
        if complex_entries:
            M = complex_gaussian(rng, (40, 3, 3))
        norms = matrixcore._frobenius_norms(M[:, :, ::-1])
        assert norms.shape == (40,)
        for row, value in enumerate(norms):
            assert value == matrixcore.frobenius_norm(M[row, :, ::-1])

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(DomainError):
            matrixcore._frobenius_norms(np.eye(3))


class TestSpectralNorm:
    def test_diagonal(self):
        assert matrixcore.spectral_norm(np.diag([3.0, 2.0])) == pytest.approx(3.0)

    def test_known_eigenvalues(self):
        B = np.array([[1.0, math.sqrt(3.0)], [math.sqrt(3.0), 4.0]])
        assert matrixcore.spectral_norm(B) == pytest.approx((5.0 + math.sqrt(21.0)) / 2.0)

    def test_gram_oracle(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            M = complex_gaussian(rng, (4, 3))
            expected = math.sqrt(
                np.linalg.eigvalsh(M.conj().T @ M)[-1]
            )
            assert matrixcore.spectral_norm(M) == pytest.approx(expected, rel=1e-12)

    def test_bounded_by_frobenius(self):
        rng = np.random.default_rng(104)
        M = rng.standard_normal((5, 5))
        assert matrixcore.spectral_norm(M) <= matrixcore.frobenius_norm(M) + 1e-12


class TestSvd:
    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(105)
        for _ in range(10):
            m, n = rng.integers(1, 7, size=2)
            M = complex_gaussian(rng, (m, n))
            f = matrixcore.svd(M)
            Sigma = np.zeros((m, n))
            Sigma[: len(f.sigma), : len(f.sigma)][
                np.diag_indices(len(f.sigma))
            ] = f.sigma
            scale = 1.0 + matrixcore.frobenius_norm(M)
            assert (
                matrixcore.frobenius_norm(f.P @ Sigma @ f.Q.conj().T - M) / scale < 1e-12
            )
            npt.assert_allclose(f.P.conj().T @ f.P, np.eye(m), atol=1e-12)
            npt.assert_allclose(f.Q.conj().T @ f.Q, np.eye(n), atol=1e-12)

    def test_rank_detection(self):
        rng = np.random.default_rng(106)
        for m, n, r in [(4, 4, 2), (5, 3, 0), (3, 5, 3), (6, 2, 1)]:
            M = rank_r_matrix(rng, m, n, r)
            assert matrixcore.svd(M).rank == r

    def test_explicit_tolerance(self):
        M = np.diag([1.0, 1e-3])
        assert matrixcore.svd(M).rank == 2
        assert matrixcore.svd(M, tol=1e-2).rank == 1

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_negative_tolerance_rejected(self, tol):
        with pytest.raises(DomainError):
            matrixcore.svd(np.eye(2), tol=tol)

    def test_infinite_tolerance_gives_rank_zero(self):
        assert matrixcore.svd(np.diag([1.0, 1e-3]), tol=math.inf).rank == 0

    def test_sigma_nonincreasing(self):
        rng = np.random.default_rng(107)
        f = matrixcore.svd(complex_gaussian(rng, (5, 4)))
        assert np.all(np.diff(f.sigma) <= 0)


class TestPinv:
    @staticmethod
    def penrose_residuals(M, P):
        fro = matrixcore.frobenius_norm
        return (
            fro(M @ P @ M - M) / (1.0 + fro(M)),
            fro(P @ M @ P - P) / (1.0 + fro(P)),
            fro((M @ P).conj().T - M @ P) / (1.0 + fro(M @ P)),
            fro((P @ M).conj().T - P @ M) / (1.0 + fro(P @ M)),
        )

    def test_penrose_conditions(self):
        rng = np.random.default_rng(108)
        for _ in range(25):
            m, n = rng.integers(1, 7, size=2)
            r = int(rng.integers(0, min(m, n) + 1))
            M = rank_r_matrix(rng, m, n, r)
            P = matrixcore.pinv(M)
            assert max(self.penrose_residuals(M, P)) < 1e-11

    def test_zero_matrix(self):
        P = matrixcore.pinv(np.zeros((2, 3)))
        assert P.shape == (3, 2)
        assert matrixcore.frobenius_norm(P) == 0.0

    def test_invertible_agrees_with_inverse(self):
        rng = np.random.default_rng(109)
        M = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        npt.assert_allclose(matrixcore.pinv(M), np.linalg.inv(M), atol=1e-10)

    def test_tiny_singular_value_dropped(self):
        M = np.diag([1.0, 1e-20])
        npt.assert_allclose(matrixcore.pinv(M), np.diag([1.0, 0.0]), atol=1e-15)


class TestPsdSqrt:
    def test_known_eigenvalues(self):
        H = np.array([[2.0, 1.0], [1.0, 2.0]])
        w, Q = np.linalg.eigh(H)
        expected = (Q * np.sqrt(w)) @ Q.conj().T
        npt.assert_allclose(matrixcore.psd_sqrt(H), expected, atol=1e-12)

    def test_squares_back(self):
        rng = np.random.default_rng(110)
        for rank in (4, 2):
            G = complex_gaussian(rng, (rank, 4))
            H = G.conj().T @ G
            R = matrixcore.psd_sqrt(H)
            npt.assert_allclose(R @ R, H, atol=1e-12 * (1 + np.linalg.norm(H)))
            npt.assert_allclose(R, R.conj().T, atol=1e-13)

    def test_projector_is_own_sqrt(self):
        v = np.array([[1.0], [1.0]]) / math.sqrt(2.0)
        P = v @ v.T
        npt.assert_allclose(matrixcore.psd_sqrt(P), P, atol=1e-12)

    def test_clamps_round_off_negatives(self):
        w = np.array([1.0, -1e-14])
        Q = np.linalg.qr(np.random.default_rng(111).standard_normal((2, 2)))[0]
        H = (Q * w) @ Q.T
        R = matrixcore.psd_sqrt((H + H.T) / 2)
        assert np.linalg.eigvalsh(R)[0] >= 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            matrixcore.psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            matrixcore.psd_sqrt(np.diag([1.0, -1.0]))


class TestRangeProjector:
    def test_column_of_ones(self):
        npt.assert_allclose(
            matrixcore.range_projector(np.array([[1.0], [1.0]])),
            np.full((2, 2), 0.5),
            atol=1e-14,
        )

    def test_hermitian_idempotent(self):
        rng = np.random.default_rng(112)
        for _ in range(10):
            m, n = rng.integers(1, 6, size=2)
            r = int(rng.integers(0, min(m, n) + 1))
            M = rank_r_matrix(rng, m, n, r)
            P = matrixcore.range_projector(M)
            npt.assert_allclose(P, P.conj().T, atol=1e-11)
            npt.assert_allclose(P @ P, P, atol=1e-11)
            assert np.trace(P).real == pytest.approx(r, abs=1e-9)


class TestMatrixTextFormat:
    def test_round_trip_real(self, tmp_path):
        rng = np.random.default_rng(113)
        M = rng.standard_normal((3, 4))
        path = tmp_path / "m.txt"
        matrixcore.write_matrix(M, path)
        back = matrixcore.read_matrix(path)
        assert back.dtype == np.complex128
        assert np.array_equal(back.real, M)
        assert np.all(back.imag == 0.0)

    def test_round_trip_complex_exact(self, tmp_path):
        rng = np.random.default_rng(114)
        M = complex_gaussian(rng, (4, 2))
        M[0, 0] = 1.0 / 3.0 + (1e-300) * 1j
        path = tmp_path / "m.txt"
        matrixcore.write_matrix(M, path)
        assert np.array_equal(matrixcore.read_matrix(path), M)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.txt"
        matrixcore.write_matrix(np.eye(2), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 2"
        assert lines[1].split() == ["1.0", "0.0", "0.0", "0.0"]

    @pytest.mark.parametrize(
        "content",
        [
            "",
            "2\n1 0\n",
            "x 2\n",
            "0 2\n",
            "2 2\n1 0 0 0\n",
            "2 1\n1 0\n2 0\n3 0\n",
            "1 1\n1 0 extra stuff\n",
            "1 1\nnot 0\n",
            "1 1\nnan 0\n",
            "1 1\ninf 0\n",
        ],
    )
    def test_malformed_rejected(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(MatrixFormatError):
            matrixcore.read_matrix(path)
