"""The fixed numerical tolerances, each tested on both sides of its threshold
at every entry point that shares it, and a census of the public signatures
so that a new tolerance parameter shows up in review."""

import dataclasses
import inspect

import numpy as np
import numpy.testing as npt
import pytest

import polarbounds
from polarbounds import bounds, matrixcore, sylvester
from polarbounds.exceptions import (
    DomainError,
    InconsistentSystemError,
    NumericalError,
    SpectralOverlapError,
)

# Each entry point that runs the Hermitian PSD check (relative tolerance
# 1e-10), called with the matrix under test as its coefficient(s).
PSD_ENTRY_POINTS = {
    "psd_eigh": lambda M: matrixcore.psd_eigh(M),
    "psd_sqrt": lambda M: matrixcore.psd_sqrt(M),
    "structured_problem": lambda M: sylvester.structured_problem(
        M, M, np.eye(2), np.eye(2)
    ),
}


def _asymmetric(delta):
    # ||M - M*||_F / ||M||_F equals delta up to a relative O(delta^2).
    return np.array([[1.0, delta], [0.0, 1.0]])


class TestHermitianTolerance:
    @pytest.mark.parametrize("entry", sorted(PSD_ENTRY_POINTS))
    def test_accepts_asymmetry_below_threshold(self, entry):
        PSD_ENTRY_POINTS[entry](_asymmetric(0.5e-10))

    @pytest.mark.parametrize("entry", sorted(PSD_ENTRY_POINTS))
    def test_rejects_asymmetry_above_threshold(self, entry):
        with pytest.raises(DomainError):
            PSD_ENTRY_POINTS[entry](_asymmetric(2e-10))

    def test_general_hermitian_solver_shares_threshold(self):
        S = np.ones((2, 1))
        sylvester.solve_general_hermitian(_asymmetric(0.5e-10), [[-1.0]], S)
        with pytest.raises(DomainError):
            sylvester.solve_general_hermitian(_asymmetric(2e-10), [[-1.0]], S)


class TestPsdTolerance:
    @pytest.mark.parametrize("entry", sorted(PSD_ENTRY_POINTS))
    def test_accepts_negative_eigenvalue_below_threshold(self, entry):
        PSD_ENTRY_POINTS[entry](np.diag([1.0, -0.5e-10]))

    @pytest.mark.parametrize("entry", sorted(PSD_ENTRY_POINTS))
    def test_rejects_negative_eigenvalue_above_threshold(self, entry):
        with pytest.raises(DomainError):
            PSD_ENTRY_POINTS[entry](np.diag([1.0, -2e-10]))


class TestOverlapTolerance:
    """Spectra overlap when their smallest gap is at most 1e-12 times their
    largest magnitude; with ``S = omega - gamma`` the solution is exactly 1."""

    def test_gap_below_threshold_overlaps(self):
        omega, gamma = 1.0, 1.0 + 0.5e-12
        with pytest.raises(SpectralOverlapError):
            bounds.spectral_separation([omega], [gamma])
        with pytest.raises(SpectralOverlapError):
            sylvester.solve_general_hermitian([[omega]], [[gamma]], [[omega - gamma]])

    def test_gap_above_threshold_separates(self):
        omega, gamma = 1.0, 1.0 + 2e-12
        assert bounds.spectral_separation([omega], [gamma]) > 0.0
        X = sylvester.solve_general_hermitian([[omega]], [[gamma]], [[omega - gamma]])
        npt.assert_array_equal(X, [[1.0]])


def _fix_residual(monkeypatch, value):
    """Make the spectral kernel report `value` as its scaled residual."""
    solve = sylvester._spectral_solve

    def fixed(*args, **kwargs):
        return solve(*args, **kwargs)[0], value

    monkeypatch.setattr(sylvester, "_spectral_solve", fixed)


class TestResidualTolerance:
    """Both solvers accept a scaled residual up to 1e-8."""

    def test_structured_solver(self, monkeypatch):
        problem = sylvester.structured_problem(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        _fix_residual(monkeypatch, 0.5e-8)
        assert sylvester.solve_structured(problem).residual == 0.5e-8
        _fix_residual(monkeypatch, 2e-8)
        with pytest.raises(InconsistentSystemError):
            sylvester.solve_structured(problem)

    def test_general_hermitian_solver(self, monkeypatch):
        args = (np.eye(2), -np.eye(2), np.ones((2, 2)))
        _fix_residual(monkeypatch, 0.5e-8)
        npt.assert_allclose(sylvester.solve_general_hermitian(*args), 0.5)
        _fix_residual(monkeypatch, 2e-8)
        with pytest.raises(NumericalError):
            sylvester.solve_general_hermitian(*args)


class TestSignatureCensus:
    # The caller-set rank tolerance; every other tolerance is a fixed
    # module constant.
    RANK_TOLERANCE_FAMILY = {
        "svd", "pinv", "range_projector", "generalized_polar", "verify_polar",
    }

    @staticmethod
    def _parameters():
        for name in polarbounds.__all__:
            obj = getattr(polarbounds, name)
            if not callable(obj):
                continue
            try:
                signature = inspect.signature(obj)
            except (TypeError, ValueError):
                continue
            yield name, set(signature.parameters)

    def test_no_relative_tolerance_parameters(self):
        offenders = [
            name for name, params in self._parameters() if params & {"rtol", "overlap_rtol"}
        ]
        assert offenders == []

    def test_tol_only_on_rank_tolerance_family(self):
        with_tol = {name for name, params in self._parameters() if "tol" in params}
        assert with_tol == self.RANK_TOLERANCE_FAMILY

    def test_perturbation_scenario_fields(self):
        names = [f.name for f in dataclasses.fields(polarbounds.PerturbationScenario)]
        assert names == [
            "A", "D1", "D2", "B", "polar_a", "polar_b",
            "lam", "norm_a", "norm_b", "d1_inv", "d2_inv",
        ]
