"""The fixed numerical tolerances, each tested on both sides of its threshold
at every entry point that shares it, and a census of the public names and
signatures so that a new export or tolerance parameter shows up in review."""

import collections
import dataclasses
import inspect
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import polarbounds
from polarbounds import (
    bounds,
    exceptions,
    experiments,
    matrixcore,
    perturb,
    polar,
    sylvester,
)
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


class TestHermitianCheckAtOverflow:
    """The Hermitian check runs on a power-of-two scaled copy of its argument,
    so it holds where ``||M||_F`` or ``||M - M*||_F`` overflows a double."""

    @pytest.mark.parametrize("delta, accepted", [(0.5e-10, True), (2e-10, False)])
    def test_threshold_where_the_norm_overflows(self, delta, accepted):
        # ||M||_F = sqrt(3) * 1.5e308 overflows; the relative skew is
        # delta * sqrt(2 / 3).
        M = 1.5e308 * np.eye(3)
        M[0, 1] = 1.5e308 * delta
        if accepted:
            matrixcore.require_hermitian(M, "A")
        else:
            with pytest.raises(DomainError, match="A is not Hermitian"):
                matrixcore.require_hermitian(M, "A")

    @pytest.mark.parametrize(
        "M",
        [[[1.5e308, 1e308], [0.0, 1.5e308]], [[0.0, 1e308], [-1e308, 0.0]]],
        ids=["norm-overflows", "skew-overflows"],
    )
    def test_rejects_named_argument_without_warning(self, M):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="A is not Hermitian"):
                matrixcore.require_hermitian(np.array(M), "A")


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


_EPS = np.finfo(np.float64).eps


def _with_small_singular_value(shape, factor):
    """Diagonal matrix of `shape` with singular values 1 and `factor` times
    the rank cutoff, which is ``max(m, n) * eps`` at ``sigma_max = 1``; the
    SVD of a diagonal matrix is exact, so the small value reaches the cutoff
    test unrounded."""
    M = np.zeros(shape)
    M[0, 0] = 1.0
    M[1, 1] = factor * max(shape) * _EPS
    return M


class TestRankCutoff:
    """A singular value or PSD eigenvalue counts as zero at or below
    ``max(m, n) * eps * sigma_max``."""

    SHAPES = [(2, 2), (3, 2), (2, 4)]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_value_below_threshold_is_dropped(self, shape):
        M = _with_small_singular_value(shape, 0.5)
        assert matrixcore.svd(M).rank == 1
        assert polar.generalized_polar(M).rank == 1
        assert matrixcore.pinv(M)[1, 1] == 0.0

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_value_above_threshold_is_kept(self, shape):
        M = _with_small_singular_value(shape, 2.0)
        assert matrixcore.svd(M).rank == 2
        assert polar.generalized_polar(M).rank == 2
        assert matrixcore.pinv(M)[1, 1] == 1.0 / M[1, 1]

    @pytest.mark.parametrize("which", ["D1", "D2"])
    def test_perturber_below_threshold_is_rejected(self, which):
        perturbers = {"D1": np.eye(2), "D2": np.eye(2)}
        perturbers[which] = _with_small_singular_value((2, 2), 0.5)
        with pytest.raises(DomainError, match=f"{which} is singular"):
            perturb.make_scenario(np.eye(2), **perturbers)

    @pytest.mark.parametrize("which", ["D1", "D2"])
    def test_perturber_above_threshold_is_accepted_with_warning(self, which):
        perturbers = {"D1": np.eye(2), "D2": np.eye(2)}
        perturbers[which] = _with_small_singular_value((2, 2), 2.0)
        with pytest.warns(RuntimeWarning, match=f"{which} has condition number"):
            perturb.make_scenario(np.eye(2), **perturbers)

    @pytest.mark.parametrize("factor", [0.5, 2.0], ids=["below", "above"])
    def test_psd_eigenvalue_in_range_flags(self, factor):
        # The eigenvalues of a diagonal matrix are exact; the cutoff of
        # diag(1, small) is 2 eps.
        A = np.diag([1.0, factor * 2 * _EPS])
        C = np.diag([0.0, 1.0])
        problem = sylvester.structured_problem(A, np.eye(2), C, np.zeros((2, 2)))
        assert problem.c_left_conforming is (factor > 1.0)

    @pytest.mark.parametrize("factor", [0.5, 2.0], ids=["below", "above"])
    def test_psd_eigenvalue_in_bound_params(self, factor):
        small = factor * 2 * _EPS
        params = bounds.weighted_params_from_spectra([1.0, small], [1.0, 1.0])
        assert params.lambda1 == (1.0 / small if factor > 1.0 else 1.0)


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


MODULES = [polarbounds, bounds, exceptions, experiments, matrixcore, perturb, polar, sylvester]


class TestSignatureCensus:
    @staticmethod
    def _parameters():
        for module in MODULES:
            for name in module.__all__:
                obj = getattr(module, name)
                if not callable(obj):
                    continue
                try:
                    signature = inspect.signature(obj)
                except (TypeError, ValueError):
                    continue
                yield f"{module.__name__}.{name}", set(signature.parameters)

    def test_no_relative_tolerance_parameters(self):
        # Every tolerance is a fixed module constant, the rank cutoff included.
        offenders = [
            name
            for name, params in self._parameters()
            if params & {"rtol", "overlap_rtol", "tol"}
        ]
        assert offenders == []

    @pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
    def test_every_exported_name_resolves(self, module):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []

    def test_public_names(self):
        assert sorted(polarbounds.__all__) == [
            "BoundKind", "BoundPair", "ComparisonTest", "DEFAULT_SEED", "DomainError",
            "ExampleReport", "ExperimentConfig", "HypothesisError",
            "InconsistentSystemError", "MatrixFormatError", "NumericalError",
            "PerturbationScenario", "PolarFactors", "PolarPerturbReport",
            "PolarResiduals", "SampleDistribution", "SearchStrategy",
            "SpectralOverlapError", "StructuredProblem", "SvdFactors", "SweepRow",
            "SylvesterSolution", "SymmetricBoundParams", "TrialTally",
            "WeightedBoundParams", "__version__", "chen_li_sun_bound",
            "frobenius_norm", "generalized_polar", "hong_meng_zheng_bound",
            "make_scenario", "midpoint_bounds", "norm_sum_bound", "pinv",
            "psd_eigh", "psd_factor_bound", "psd_terms", "read_matrix", "run_example",
            "run_montecarlo", "run_perturb_sweep", "separation_bound",
            "solve_general_hermitian", "solve_structured", "spectral_separation",
            "splitting_identity_residual", "structured_problem", "subunitary_bound",
            "subunitary_terms", "svd", "symmetric_bounds",
            "symmetric_params_from_spectra", "verify_polar", "weighted_bounds",
            "weighted_params_from_spectra", "write_matrix",
        ]

    def test_star_imports_cannot_shadow(self):
        # The package star-imports each module and exports their __all__.
        assert len(polarbounds.__all__) == len(set(polarbounds.__all__))
        names = collections.Counter(
            name for m in MODULES if m is not polarbounds for name in m.__all__
        )
        assert [name for name, count in names.items() if count > 1] == []

    def test_experiment_config_fields(self):
        names = [f.name for f in dataclasses.fields(polarbounds.ExperimentConfig)]
        assert names == ["test", "trials", "seed", "size", "dist"]

    def test_experiments_take_no_path(self):
        # The drivers return values; only the CLI writes files.
        offenders = [
            (name, param)
            for name, params in self._parameters()
            if name.startswith("polarbounds.experiments.")
            for param in params
            if any(word in param for word in ("path", "file", "out"))
        ]
        assert offenders == []

    def test_perturbation_scenario_fields(self):
        names = [f.name for f in dataclasses.fields(polarbounds.PerturbationScenario)]
        assert names == [
            "A", "D1", "D2", "B", "polar_a", "polar_b",
            "lam", "norm_a", "norm_b", "d1_inv", "d2_inv",
        ]
