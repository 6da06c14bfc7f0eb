import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as hnp

from polarbounds import matrixcore
from polarbounds.exceptions import DomainError, MatrixFormatError, NumericalError
from conftest import PROPERTY, complex_gaussian, rank_r_matrix, random_psd


def _blas_norms(rows):
    """One BLAS ``nrm2`` call per row of a 2-D float64 or complex128 array."""
    blas = matrixcore._blas()
    nrm2 = blas.dznrm2 if np.iscomplexobj(rows) else blas.dnrm2
    return np.array([nrm2(row) for row in rows])


def _extreme_parts(rng, rows, parts):
    """`rows` x `parts` doubles at per-entry scales from 1e-320 to 1e308,
    with rows of +0, of -0, holding a NaN, holding an inf, and of parts
    whose squares sum beyond the largest double."""
    out = rng.uniform(-1.0, 1.0, (rows, parts)) * 10.0 ** rng.uniform(-320, 308, (rows, parts))
    out[::7] = 0.0
    out[1::7] = -0.0
    out[2::7, rng.integers(parts)] = np.nan
    out[3::7, rng.integers(parts)] = -np.inf
    out[4::7] = np.copysign(1.5e308, out[4::7])
    return out


def _tie_parts(rng, rows, parts):
    """`rows` x `parts` doubles whose norms the order of the sum decides.

    Each row holds 1, 2^-26 and a few multiples of 2^-33, permuted, signed
    and scaled by a power of two, so every square is exact in 80 bits and
    each addition to the unit square rounds, often a tie, near the sum
    ``(1 + 2^-53)^2`` whose square root lies midway between two doubles.
    Another lane order or grouping of the x87 rule changes dozens of the
    norms at most row lengths.
    """
    out = rng.integers(1, 4, (rows, parts)) * 2.0**-33
    out *= rng.random((rows, parts)) < 6 / parts
    out[:, 0] = 1.0
    out[:, 1:2] = 2.0**-26
    out = rng.permuted(out, axis=1) * rng.choice([-1.0, 1.0], (rows, parts))
    return out * 2.0 ** rng.integers(-900, 900, (rows, 1))


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

    @pytest.mark.skipif(not matrixcore._X87_LONG_DOUBLE, reason="long double is not x87")
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_model_matches_blas_bitwise(self, complex_entries):
        # Every row length the model takes, at every scale, in both dtypes.
        rng = np.random.default_rng(109)
        step = 2 if complex_entries else 1
        for parts in range(step, matrixcore._MODEL_MAX_PARTS + 1, step):
            rows = np.concatenate((_extreme_parts(rng, 700, parts), _tie_parts(rng, 700, parts)))
            if complex_entries:
                rows = rows.view(np.complex128)
            expected = _blas_norms(rows).tobytes()
            model = matrixcore._x87_norms(rows.view(np.float64), complex_entries)
            assert model.tobytes() == expected
            assert matrixcore._frobenius_norms(rows[:, None, :]).tobytes() == expected

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_blas_above_the_model_limit(self, complex_entries, monkeypatch):
        def unused(parts, pairs):
            raise AssertionError("the model ran above its limit")

        monkeypatch.setattr(matrixcore, "_x87_norms", unused)
        rng = np.random.default_rng(113)
        rows = _extreme_parts(rng, 700, matrixcore._MODEL_MAX_PARTS + (2 if complex_entries else 1))
        if complex_entries:
            rows = rows.view(np.complex128)
        norms = matrixcore._frobenius_norms(rows[:, None, :])
        assert norms.tobytes() == _blas_norms(rows).tobytes()


class TestLazyBlas:
    def test_monte_carlo_never_imports_scipy_linalg(self):
        # A fresh interpreter: this one imported scipy.linalg long ago.
        root = str(pathlib.Path(matrixcore.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
        script = (
            "import sys\n"
            "import polarbounds as pb\n"
            "for dist in pb.SampleDistribution:\n"
            "    pb.run_montecarlo(pb.ExperimentConfig(trials=64, size=3, dist=dist))\n"
            "print('scipy.linalg' in sys.modules)\n"
            "pb.frobenius_norm([[3.0, 4.0]])\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]


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

    def test_sigma_nonincreasing(self):
        rng = np.random.default_rng(107)
        f = matrixcore.svd(complex_gaussian(rng, (5, 4)))
        assert np.all(np.diff(f.sigma) <= 0)

    @pytest.mark.parametrize(
        "M", [1.5e308 * np.array([[1.0, 1.0]]), 1.3e308 * np.array([[1.0, 1j], [1j, 1.0]])]
    )
    def test_singular_value_beyond_the_largest_double_raises(self, M):
        # Every entry is finite and sigma_max is not; LAPACK returns it as
        # inf or NaN, which zeroed the polar factors and the rank.
        with pytest.raises(NumericalError, match="singular value of matrix overflows"):
            matrixcore.svd(M)
        with pytest.raises(NumericalError, match="singular value of M0 overflows"):
            matrixcore.svd(M, "M0")

    def test_name_is_passed_to_the_validation(self):
        with pytest.raises(DomainError, match="M0 contains non-finite entries"):
            matrixcore.svd(np.array([[np.inf]]), "M0")


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

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_zero_result_takes_shape_and_dtype_of_input(self, dtype):
        P = matrixcore.pinv(np.zeros((2, 3), dtype=dtype))
        assert P.shape == (3, 2) and P.dtype == dtype

    def test_validates_its_argument_once(self, monkeypatch):
        calls = []
        orig = matrixcore.as_matrix
        monkeypatch.setattr(
            matrixcore, "as_matrix", lambda M, *a: calls.append(1) or orig(M, *a)
        )
        matrixcore.pinv(np.eye(3))
        assert len(calls) == 1


# Entries whose sums overflow, whose halves round, or whose sign is a zero's.
_EXTREMES = [
    sign * x for sign in (1.0, -1.0) for x in (1.7976931348623157e308, 1e308, 5e-324, 0.0)
]


@st.composite
def hermitian_matrices(draw, perturbed):
    """Exactly Hermitian matrices with any finite entries, -0.0, subnormals
    and values near the largest double included.  With `perturbed`, some
    entries off the diagonal move by up to 1e-12 of the largest entry:
    inside the 1e-10 Hermitian tolerance, but no longer exact, and with
    signs that can differ from their mirrored entries."""
    n = draw(st.integers(1, 4))
    complex_entries = draw(st.booleans())
    elements = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EXTREMES)
    floats = hnp.arrays(np.float64, (n, n), elements=elements)
    U = draw(floats) + 1j * draw(floats) if complex_entries else draw(floats)
    M = U.copy()
    below = np.tril_indices(n, -1)
    M[below] = U.T[below].conj()
    M[np.diag_indices(n)] = U.diagonal().real
    if perturbed:
        shift = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
        shift[draw(hnp.arrays(bool, (n, n)))] = 0.0
        np.fill_diagonal(shift, 0.0)
        largest = max(np.abs(M.real).max(), np.abs(M.imag).max())
        with np.errstate(over="ignore"):
            M = M + shift * (1e-12 * largest)
        assume(np.isfinite(M).all())
    return M


def _parts(M):
    return (M.real, M.imag) if np.iscomplexobj(M) else (M,)


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


class TestHermitianPart:
    """`require_hermitian` returns ``(M + M*) / 2`` with each real and
    imaginary part rounded once, finite even where that sum overflows."""

    @PROPERTY
    @given(hermitian_matrices(perturbed=True))
    def test_is_exactly_hermitian_mean(self, M):
        H = matrixcore.require_hermitian(M)
        assert np.isfinite(H).all()
        assert np.array_equal(H, H.conj().T)
        # Per part, since numpy's complex division by 2 does not keep the
        # sign of a zero part; the parts of a real matrix are the matrix.
        for h, m, mh in zip(_parts(H), _parts(M), _parts(M.conj().T)):
            with np.errstate(over="ignore"):
                mean = (m + mh) / 2
            finite = np.isfinite(mean)
            assert np.array_equal(_bits(h)[finite], _bits(mean)[finite])

    @PROPERTY
    @given(hermitian_matrices(perturbed=False))
    def test_exactly_hermitian_input_unchanged(self, M):
        H = matrixcore.require_hermitian(M)
        for h, m in zip(_parts(H), _parts(M)):
            assert np.array_equal(_bits(h), _bits(m))

    @pytest.mark.parametrize(
        "M",
        [
            np.array([[1e308, 5e-324], [5e-324, -0.0]]),
            np.array([[5e307, 1e308 + 5e-324j], [1e308 - 5e-324j, -0.0]]),
        ],
        ids=["real", "complex"],
    )
    def test_extreme_entries_unchanged(self, M):
        H = matrixcore.require_hermitian(M)
        for h, m in zip(_parts(H), _parts(M)):
            assert np.array_equal(_bits(h), _bits(m))

    def test_halves_of_an_overflowing_sum(self):
        a, b = 1e308, 1e308 * (1 + 2.0**-40)
        H = matrixcore.require_hermitian(np.array([[0.0, a], [b, 0.0]]))
        assert H[0, 1] == H[1, 0] == a / 2 + b / 2


class TestPsdEigh:
    def test_returns_the_factored_hermitian_part(self):
        rng = np.random.default_rng(110)
        M = random_psd(rng, 4, 3)
        M[1, 0] += 1e-13
        H, w, Q = matrixcore.psd_eigh(M)
        npt.assert_array_equal(H, matrixcore.require_hermitian(M))
        npt.assert_allclose((Q * w) @ Q.conj().T, H, atol=1e-12)
        assert np.all(np.diff(w) >= 0)

    def test_overflowing_eigenvalue_raises(self):
        # eigh gives the eigenvalues [0, inf] of this finite matrix.
        with pytest.raises(NumericalError, match="overflow"):
            matrixcore.psd_eigh(np.full((2, 2), 1e308))

    def test_nan_eigenvalue_raises(self, monkeypatch):
        monkeypatch.setattr(
            np.linalg, "eigh", lambda H: (np.array([np.nan, 1.0]), np.eye(2))
        )
        with pytest.raises(NumericalError):
            matrixcore.psd_eigh(np.eye(2))


# Malformed matrix files and the message each must raise, after the path.
_MALFORMED = [
    ("", "empty matrix file"),
    ("\n  \n", "empty matrix file"),
    ("2\n1 0\n", "header must be 'rows cols', got '2'"),
    ("x 2\n", "non-integer header 'x 2'"),
    ("0 2\n", "dimensions must be positive, got 0 x 2"),
    ("2 2\n1 0 0 0\n", "expected 2 data rows, found 1"),
    ("2 1\n1 0\n2 0\n3 0\n", "expected 2 data rows, found 3"),
    ("1 1\n1 0 extra stuff\n", "row 1 has 4 values, expected 2"),
    ("2 1\n1 0\n1 0 0\n", "row 2 has 3 values, expected 2"),
    ("1 1\nnot 0\n", "row 1 has a non-numeric value"),
    ("2 1\n1 0\n1 0x10\n", "row 2 has a non-numeric value"),
    ("2 1\n1 0\n\n1 1,5\n", "row 2 has a non-numeric value"),
    ("1 1\nnan 0\n", "row 1 has a non-finite value"),
    ("1 1\ninf 0\n", "row 1 has a non-finite value"),
    ("2 1\n1 0\n0 -inf\n", "row 2 has a non-finite value"),
    ("2 1\n1 0\n1e400 0\n", "row 2 has a non-finite value"),
    # The first faulty row decides, whatever its fault.
    ("3 1\n1 0\ninf 0\nx 0\n", "row 2 has a non-finite value"),
    ("3 1\n1 0\n0 nan\n1 0 0\n", "row 2 has a non-finite value"),
    ("3 1\n1 0\nx 0\ninf 0\n", "row 2 has a non-numeric value"),
    ("3 1\n1 0 0\n1 x\ninf 0\n", "row 1 has 3 values, expected 2"),
]


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

    # Each case keeps its file content as its id.
    @pytest.mark.parametrize("content, message", _MALFORMED, ids=[c for c, _ in _MALFORMED])
    def test_malformed_rejected(self, tmp_path, content, message):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(MatrixFormatError) as exc:
            matrixcore.read_matrix(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_edge_inputs_accepted(self, tmp_path):
        # Values are read as Python's float() reads them: underscores
        # between digits, a signed zero, the smallest subnormal and the
        # largest double; blank lines and tabs separate nothing.
        path = tmp_path / "m.txt"
        path.write_text(
            "\n2\t2\n\n1_0 -0.0\t5e-324 0\n"
            "  \n-1.7976931348623157e308\t1.7976931348623157e308  -0 2.5\n\n"
        )
        M = matrixcore.read_matrix(path)
        assert M.dtype == np.complex128 and M.shape == (2, 2)
        want = np.array(
            [[10.0, -0.0, 5e-324, 0.0],
             [-1.7976931348623157e308, 1.7976931348623157e308, -0.0, 2.5]]
        )
        assert M.view(np.float64).tobytes() == want.tobytes()

    def test_write_edge_values(self, tmp_path):
        path = tmp_path / "m.txt"
        M = np.array([[-0.0, 5e-324 - 1e308j], [1.7976931348623157e308j, 1 / 3]])
        matrixcore.write_matrix(M, path)
        assert path.read_text() == (
            "2 2\n"
            "-0.0 0.0 5e-324 -1e+308\n"
            "0.0 1.7976931348623157e+308 0.3333333333333333 0.0\n"
        )
        back = matrixcore.read_matrix(path)
        assert back.tobytes() == M.astype(np.complex128).tobytes()

    @pytest.mark.parametrize(
        "M, text",
        [
            (np.array([[1, -2], [3, 4]]), "2 2\n1.0 0.0 -2.0 0.0\n3.0 0.0 4.0 0.0\n"),
            ([[0.1, -0.0]], "1 2\n0.1 0.0 -0.0 0.0\n"),
            (np.array([[1e-310 + 2j]], dtype=np.complex64), "1 1\n0.0 2.0\n"),
            # Non-contiguous input, real and complex.
            (np.array([[1.0, 2.0], [3.0, 4.0]]).T, "2 2\n1.0 0.0 3.0 0.0\n2.0 0.0 4.0 0.0\n"),
            (np.array([[1j, 2.0], [3.0, -4j]]).T[:, ::-1],
             "2 2\n3.0 0.0 0.0 1.0\n-0.0 -4.0 2.0 0.0\n"),  # -4j is -0.0 - 4.0j
        ],
    )
    def test_write_layout(self, tmp_path, M, text):
        path = tmp_path / "m.txt"
        matrixcore.write_matrix(M, path)
        assert path.read_text() == text
