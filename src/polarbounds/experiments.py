"""Reproducible experiment drivers: worked example, Monte Carlo, sweep.

Every random quantity derives from counter-based substreams of a single
seed, ``SeedSequence((seed, trial_index))``, so results are identical
across runs and chunk sizes.

The Monte Carlo driver evaluates one chunk of ``_CHUNK`` trials at a time
as a batch: each trial still draws from its own substream, then one
stacked ``eigvalsh``, vectorised separations and bound parameters, and one
BLAS ``nrm2`` call per matrix give every trial the same floating-point
values as evaluating it alone.  Chunks run one after another: on 3 x 3
trials most of the time is substream set-up, which holds the GIL, so a
thread pool gave no speed-up.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import astuple, dataclass
from enum import Enum

import numpy as np

from . import bounds, matrixcore, perturb, sylvester
from .exceptions import DomainError, NumericalError

__all__ = [
    "DEFAULT_SEED",
    "ComparisonTest",
    "SampleDistribution",
    "ExperimentConfig",
    "TrialTally",
    "ExampleReport",
    "SweepRow",
    "run_example",
    "run_montecarlo",
    "run_perturb_sweep",
]

DEFAULT_SEED = 20250814

_MAX_REDRAWS = 100
_CHUNK = 4096

_TALLY_HEADER = ["test_id", "trials", "seed", "alpha", "beta", "gamma", "redraws"]
# Published CSV names of the `SweepRow` fields, in order; each side has readers.
_SWEEP_HEADER = [
    "size",
    "rank",
    "epsilon",
    "trial",
    "actual_U",
    "actual_H",
    "phi_bound_11",
    "gamma_bound_11",
    "phi_bound_opt",
    "gamma_bound_opt",
    "cls_bound",
    "hmz_bound",
]


class ComparisonTest(Enum):
    """How the data matrices `C` and `D` relate in a Monte Carlo trial."""

    INDEPENDENT = "i"
    ZERO_D = "ii"
    ZERO_C = "iii"
    OPPOSITE = "iv"
    EQUAL = "v"


class SampleDistribution(Enum):
    UNIFORM_REAL = "uniform-real"
    COMPLEX_GAUSSIAN = "complex-gaussian"


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one Monte Carlo comparison run."""

    test: ComparisonTest = ComparisonTest.INDEPENDENT
    trials: int = 100_000
    seed: int = DEFAULT_SEED
    size: int = 3
    dist: SampleDistribution = SampleDistribution.UNIFORM_REAL
    out_path: str | None = None


@dataclass(frozen=True)
class TrialTally:
    """Counts of bound comparisons over all trials; ties count as wins.

    `alpha` counts trials with weighted upper <= separation upper,
    `beta` weighted upper <= symmetric upper, and `gamma` symmetric
    upper <= separation upper.  `redraws` counts trials redrawn because
    the spectral separation was undefined.
    """

    test: ComparisonTest
    trials: int
    seed: int
    alpha: int
    beta: int
    gamma: int
    redraws: int


@dataclass(frozen=True)
class ExampleReport:
    """All quantities of the built-in 2 x 2 worked comparison."""

    x_norm: float
    separation: float
    lam: float
    mu: float
    upper_separation: float
    upper_norm_sum: float
    upper_midpoint: float
    upper_weighted: float
    upper_symmetric: float

    @property
    def uppers(self) -> tuple[float, float, float, float, float]:
        return (
            self.upper_separation,
            self.upper_norm_sum,
            self.upper_midpoint,
            self.upper_weighted,
            self.upper_symmetric,
        )

    @property
    def relative_errors(self) -> tuple[float, float, float, float, float]:
        """Overestimation ``(upper - ||X||_F) / ||X||_F`` of each bound."""
        return tuple((u - self.x_norm) / self.x_norm for u in self.uppers)


@dataclass(frozen=True)
class SweepRow:
    """One perturbation sweep record; its fields are the CSV columns, in order."""

    size: int
    rank: int
    epsilon: float
    trial: int
    actual_u: float
    actual_h: float
    subunitary_at_identity: float
    psd_at_identity: float
    subunitary_optimized: float
    psd_optimized: float
    chen_li_sun: float
    hong_meng_zheng: float


def _symmetric_blend(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta) / 4.0
    return np.array([[c, s], [s, c]])


def run_example() -> ExampleReport:
    """Solve the built-in 2 x 2 instance and evaluate every enclosure.

    The instance has identity `A`, a fixed positive definite `B`, and two
    nearby symmetric data matrices, so the solution has a closed form and
    all five upper bounds are directly comparable.
    """
    A = np.eye(2)
    B = np.array([[1.0, math.sqrt(3.0)], [math.sqrt(3.0), 4.0]])
    C = _symmetric_blend(5.0 * math.pi / 32.0)
    D = _symmetric_blend(math.pi / 6.0)
    problem = sylvester.structured_problem(A, B, C, D)
    solution = sylvester.solve_structured(problem)
    x_norm = matrixcore.frobenius_norm(solution.X)
    wa, wb = problem.eigenvalues_a, problem.eigenvalues_b
    sep = bounds.spectral_separation(wa, -wb)
    weighted = bounds.weighted_params_from_spectra(wa, wb)
    symmetric = bounds.symmetric_params_from_spectra(wa, wb)
    return ExampleReport(
        x_norm=x_norm,
        separation=sep.value,
        lam=symmetric.lam,
        mu=symmetric.mu,
        upper_separation=bounds.separation_bound(C, D, sep),
        upper_norm_sum=bounds.norm_sum_bound(C, D),
        upper_midpoint=bounds.midpoint_bounds(C, D).upper,
        upper_weighted=bounds.weighted_bounds(C, D, weighted).upper,
        upper_symmetric=bounds.symmetric_bounds(C, D, symmetric).upper,
    )


def _raw_shape(test: ComparisonTest, n: int, dist: SampleDistribution) -> tuple:
    """Shape of one trial's draws: A1, B1, then C and/or D, each n x n;
    complex Gaussian entries take a real and an imaginary part."""
    count = 4 if test is ComparisonTest.INDEPENDENT else 3
    if dist is SampleDistribution.UNIFORM_REAL:
        return (count, n, n)
    return (count, 2, n, n)


def _fill(rng: np.random.Generator, out: np.ndarray, dist: SampleDistribution) -> None:
    # One generator call fills the matrices in order, exactly as one call
    # per matrix (and per real and imaginary part) would.
    if dist is SampleDistribution.UNIFORM_REAL:
        rng.random(out=out)
    else:
        rng.standard_normal(out=out)


def _split(raw: np.ndarray, test: ComparisonTest, dist: SampleDistribution):
    """Stacks `A1`, `B1`, `C` and `D` from the draws of each trial, stacked
    along the first axis of `raw`; the coefficients are ``A1* A1`` and
    ``B1* B1``."""
    if dist is SampleDistribution.UNIFORM_REAL:
        X = raw
    else:
        # (re + 1j im) / sqrt(2) per matrix; IEEE addition commutes exactly.
        X = 1j * raw[:, :, 1]
        X += raw[:, :, 0]
        X /= math.sqrt(2.0)
    A1, B1, third = X[:, 0], X[:, 1], X[:, 2]
    if test is ComparisonTest.INDEPENDENT:
        C, D = third, X[:, 3]
    elif test is ComparisonTest.ZERO_D:
        C, D = third, np.zeros_like(third)
    elif test is ComparisonTest.ZERO_C:
        C, D = np.zeros_like(third), third
    elif test is ComparisonTest.OPPOSITE:
        C, D = third, -third
    else:
        C, D = third, third
    return A1, B1, C, D


def _gram(M: np.ndarray) -> np.ndarray:
    return M.conj().mT @ M


def _attempt(
    seed: int, indices: np.ndarray, attempt: int, test: ComparisonTest, n: int,
    dist: SampleDistribution,
):
    """Draw the given trials from the substreams of one attempt.

    Returns the spectra of `A` and `B`, `C`, `D`, the separation of the
    spectra of `A` and `-B`, and whether those spectra overlap.
    """
    raw = np.empty((indices.size,) + _raw_shape(test, n, dist))
    for row, index in enumerate(indices.tolist()):
        key = (seed, index) if attempt == 0 else (seed, index, attempt)
        _fill(np.random.default_rng(np.random.SeedSequence(key)), raw[row], dist)
    A1, B1, C, D = _split(raw, test, dist)
    wa = np.linalg.eigvalsh(_gram(A1))
    wb = np.linalg.eigvalsh(_gram(B1))
    sep, overlap = bounds._spectral_separations(wa, -wb)
    return wa, wb, C, D, sep, overlap


def _tally_range(
    seed: int, start: int, stop: int, test: ComparisonTest, n: int, dist: SampleDistribution
) -> tuple[int, int, int, int]:
    """Tally trials ``start .. stop - 1`` as one batch.

    A trial whose spectra overlap is redrawn from the substream
    ``(seed, index, attempt)``, up to ``_MAX_REDRAWS`` attempts in all.
    """
    indices = np.arange(start, stop)
    data = _attempt(seed, indices, 0, test, n, dist)
    redraws = 0
    for attempt in range(1, _MAX_REDRAWS):
        rows = np.flatnonzero(data[-1])
        if rows.size == 0:
            break
        redraws += rows.size
        for whole, part in zip(data, _attempt(seed, indices[rows], attempt, test, n, dist)):
            whole[rows] = part
    wa, wb, C, D, sep, overlap = data
    if overlap.any():
        raise NumericalError(
            f"trial {indices[overlap][0]} could not draw coefficients with "
            f"separated spectra after {_MAX_REDRAWS} attempts"
        )
    params = bounds._stacked_params(wa, wb)
    ub_separation = bounds._separation_uppers(C, D, sep)
    _, ub_weighted = bounds._weighted_enclosures(C, D, params.a, params.b, params.c)
    _, ub_symmetric = bounds._symmetric_enclosures(C, D, params.mu)
    return (
        int(np.count_nonzero(ub_weighted <= ub_separation)),
        int(np.count_nonzero(ub_weighted <= ub_symmetric)),
        int(np.count_nonzero(ub_symmetric <= ub_separation)),
        redraws,
    )


def _integer(value, name: str, least: int) -> int:
    """`value` as an integer of at least `least`; a non-integral value
    (in the sense of `operator.index`) or a smaller one raises `DomainError`."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or index < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return index


def run_montecarlo(config: ExperimentConfig) -> TrialTally:
    """Tally the three bound comparisons over independent seeded trials.

    Trials are independent substreams of the seed, so the tally does not
    depend on chunking.  Writes a one-row CSV when `config.out_path` is set.
    """
    trials = _integer(config.trials, "trials", 1)
    size = _integer(config.size, "size", 1)
    seed = _integer(config.seed, "seed", 0)
    # The kernel branches on identity, so a bare value would pick a wrong branch.
    if not isinstance(config.test, ComparisonTest):
        raise DomainError(f"test must be a ComparisonTest, got {config.test!r}")
    if not isinstance(config.dist, SampleDistribution):
        raise DomainError(f"dist must be a SampleDistribution, got {config.dist!r}")
    parts = [
        _tally_range(
            seed, start, min(start + _CHUNK, trials), config.test, size, config.dist
        )
        for start in range(0, trials, _CHUNK)
    ]
    alpha = sum(p[0] for p in parts)
    beta = sum(p[1] for p in parts)
    gamma = sum(p[2] for p in parts)
    redraws = sum(p[3] for p in parts)
    tally = TrialTally(
        test=config.test,
        trials=trials,
        seed=seed,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        redraws=redraws,
    )
    if config.out_path is not None:
        row = (tally.test.value, tally.trials, tally.seed, tally.alpha, tally.beta,
               tally.gamma, tally.redraws)
        _write_csv(config.out_path, _TALLY_HEADER, [row])
    return tally


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _sweep_trial(seed: int, si: int, size: int, ei: int, epsilon: float, trial: int) -> SweepRow:
    rng = np.random.default_rng(np.random.SeedSequence((seed, si, ei, trial)))
    rank = int(rng.integers(1, size + 1))
    A = _complex_gaussian(rng, (size, rank)) @ _complex_gaussian(rng, (rank, size))
    D1 = np.eye(size) + epsilon * _complex_gaussian(rng, (size, size))
    D2 = np.eye(size) + epsilon * _complex_gaussian(rng, (size, size))
    scenario = perturb.make_scenario(A, D1, D2)
    at_identity = scenario._report_11
    optimal_sub = perturb.subunitary_bound(scenario, perturb.SearchStrategy.OPTIMAL)
    optimal_psd = perturb.psd_factor_bound(scenario, perturb.SearchStrategy.OPTIMAL)
    row = SweepRow(
        size=size,
        rank=rank,
        epsilon=epsilon,
        trial=trial,
        actual_u=at_identity.subunitary_diff,
        actual_h=at_identity.psd_diff,
        subunitary_at_identity=at_identity.subunitary_bound,
        psd_at_identity=at_identity.psd_bound,
        subunitary_optimized=optimal_sub.subunitary_bound,
        psd_optimized=optimal_psd.psd_bound,
        chen_li_sun=perturb._chen_li_sun(
            scenario.D1, scenario.d1_inv, scenario.D2, scenario.d2_inv
        ),
        hong_meng_zheng=perturb.hong_meng_zheng_bound(scenario),
    )
    _check_sweep_row(row)
    return row


def _check_sweep_row(row: SweepRow) -> None:
    """Row-wise validity: actual changes below bounds, optimized bounds
    below the bounds at (1, 1), and (1, 1) below the classical bounds."""
    checks = [
        ("actual_U <= phi_bound_11", row.actual_u, row.subunitary_at_identity),
        ("actual_H <= gamma_bound_11", row.actual_h, row.psd_at_identity),
        ("phi_bound_opt <= phi_bound_11", row.subunitary_optimized, row.subunitary_at_identity),
        ("gamma_bound_opt <= gamma_bound_11", row.psd_optimized, row.psd_at_identity),
        ("phi_bound_11 <= cls_bound", row.subunitary_at_identity, row.chen_li_sun),
        ("gamma_bound_11 <= hmz_bound", row.psd_at_identity, row.hong_meng_zheng),
    ]
    for label, left, right in checks:
        if left > right + 1e-9 * (1.0 + abs(right)):
            raise NumericalError(
                f"sweep row size={row.size} rank={row.rank} "
                f"epsilon={row.epsilon} trial={row.trial} violates {label}: "
                f"{left!r} > {right!r}"
            )


def run_perturb_sweep(
    sizes,
    epsilons,
    trials: int,
    seed: int = DEFAULT_SEED,
    out_path: str | None = None,
) -> list[SweepRow]:
    """Sweep random perturbation scenarios and record bounds per row.

    For each size, epsilon, and trial index, draws a complex matrix of
    random rank and perturbers ``I + epsilon E`` with Gaussian `E`, then
    evaluates both factor bounds at (1, 1) and at the optimal probe
    next to the two classical bounds.  Every row is checked for the
    validity orderings before it is recorded.
    """
    sizes = [_integer(n, "sizes", 1) for n in sizes]
    epsilons = [float(e) for e in epsilons]
    if not sizes:
        raise DomainError("sizes must not be empty")
    if not epsilons or not all(math.isfinite(e) and e >= 0 for e in epsilons):
        raise DomainError(f"epsilons must be finite and nonnegative, got {epsilons}")
    trials = _integer(trials, "trials", 1)
    seed = _integer(seed, "seed", 0)
    rows = [
        _sweep_trial(seed, si, size, ei, epsilon, trial)
        for si, size in enumerate(sizes)
        for ei, epsilon in enumerate(epsilons)
        for trial in range(trials)
    ]
    if out_path is not None:
        _write_csv(out_path, _SWEEP_HEADER, map(astuple, rows))
    return rows
