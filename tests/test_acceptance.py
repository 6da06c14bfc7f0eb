"""Acceptance gate: one test per shipped guarantee.

Each test evaluates its whole criterion, prints a single
``acceptance <n> <name>: PASS|FAIL`` line (visible with ``pytest -s``),
and then asserts.  Tolerances are part of the guarantees and are stated
inline; loosening one here weakens the contract.
"""

import math
import time

import numpy as np
import pytest

from polarbounds import matrixcore
from polarbounds.bounds import (
    midpoint_bounds,
    norm_sum_bound,
    separation_bound,
    spectral_separation,
    symmetric_bounds,
    symmetric_params_from_spectra,
    weighted_bounds,
    weighted_params_from_spectra,
)
from polarbounds.exceptions import SpectralOverlapError
from polarbounds.experiments import (
    ComparisonTest,
    DEFAULT_SEED,
    ExperimentConfig,
    run_example,
    run_montecarlo,
)
from polarbounds.perturb import (
    SearchStrategy,
    chen_li_sun_bound,
    hong_meng_zheng_bound,
    make_scenario,
    psd_factor_bound,
    subunitary_bound,
)
from polarbounds.polar import generalized_polar, verify_polar
from polarbounds.sylvester import (
    solve_general_hermitian,
    solve_structured,
    splitting_identity_residual,
    structured_problem,
)
from conftest import (
    complex_gaussian,
    kronecker_solve,
    random_psd,
    rank_r_matrix,
    structured_instance,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {number} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def structured_suite():
    """1000 random structured instances, sizes 2-6, Gram coefficients of
    random rank including deficient, C and D projected onto both ranges."""
    rng = np.random.default_rng(DEFAULT_SEED)
    suite = []
    for _ in range(1000):
        m, n = (int(x) for x in rng.integers(2, 7, size=2))
        problem = structured_problem(*structured_instance(rng, m, n))
        suite.append((problem, solve_structured(problem)))
    return suite


def test_acceptance_1_worked_example_table():
    start = time.perf_counter()
    rep = run_example()
    elapsed = time.perf_counter() - start
    printed_values = {
        "x_norm": (rep.x_norm, 1.2496),
        "separation": (rep.separation, 1.1832),
        "lam": (rep.lam, 4.7913),
        "mu": (rep.mu, 0.8091),
        "upper_separation": (rep.upper_separation, 1.4915),
        "upper_norm_sum": (rep.upper_norm_sum, 1.7648),
        "upper_midpoint": (rep.upper_midpoint, 1.2602),
        "upper_weighted": (rep.upper_weighted, 1.2578),
        "upper_symmetric": (rep.upper_symmetric, 1.2578),
    }
    bad = [
        f"{key}={got!r} want {want}"
        for key, (got, want) in printed_values.items()
        if abs(got - want) > 5e-5
    ]
    printed_errors = (19.36, 41.23, 0.85, 0.66, 0.66)
    for got, want in zip(rep.relative_errors, printed_errors):
        if abs(100.0 * got - want) > 0.02:
            bad.append(f"relative error {100.0 * got:.4f}% want {want}%")
    if elapsed >= 1.0:
        bad.append(f"runtime {elapsed:.2f}s")
    report(1, "worked-example-table", not bad, "; ".join(bad) or f"{elapsed * 1e3:.0f}ms")


def test_acceptance_2_montecarlo_bands():
    checks = {
        ComparisonTest.INDEPENDENT: (
            lambda a, b, g: a >= 0.999 and b >= 0.9999 and g >= 0.999
        ),
        ComparisonTest.ZERO_D: (
            lambda a, b, g: 0.37 <= a <= 0.43 and b >= 0.997 and g <= 0.001
        ),
        ComparisonTest.ZERO_C: (
            lambda a, b, g: 0.37 <= a <= 0.43 and b >= 0.997 and g <= 0.001
        ),
        ComparisonTest.OPPOSITE: (
            lambda a, b, g: a >= 0.9999 and b >= 0.99 and g >= 0.9999
        ),
        ComparisonTest.EQUAL: (
            lambda a, b, g: a >= 0.9999 and 0.72 <= b <= 0.78 and g >= 0.9999
        ),
    }
    start = time.perf_counter()
    details = []
    ok = True
    for test, in_band in checks.items():
        tally = run_montecarlo(ExperimentConfig(test=test, trials=100_000))
        a, b, g = (x / tally.trials for x in (tally.alpha, tally.beta, tally.gamma))
        if not in_band(a, b, g):
            ok = False
        details.append(f"{test.value} {a:.5f}/{b:.5f}/{g:.5f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        ok = False
    details.append(f"{elapsed:.1f}s")
    report(2, "montecarlo-bands", ok, ", ".join(details))


def test_acceptance_3_splitting_identity(structured_suite):
    worst = max(
        splitting_identity_residual(problem, solution)
        for problem, solution in structured_suite
    )
    report(3, "splitting-identity", worst <= 1e-9, f"worst residual {worst:.3e}")


def test_acceptance_4_sandwich(structured_suite):
    violations = 0
    separation_checked = 0
    for problem, solution in structured_suite:
        x = matrixcore.frobenius_norm(solution.X)
        slack = 1e-10 * (1.0 + x)
        C, D = problem.C, problem.D
        wa, wb = problem.eigenvalues_a, problem.eigenvalues_b
        pairs = (
            midpoint_bounds(C, D),
            weighted_bounds(C, D, weighted_params_from_spectra(wa, wb)),
            symmetric_bounds(C, D, symmetric_params_from_spectra(wa, wb)),
        )
        if any(not (p.lower - slack <= x <= p.upper + slack) for p in pairs):
            violations += 1
        if x > norm_sum_bound(C, D) + slack:
            violations += 1
        try:
            sep = spectral_separation(wa, -wb)
        except SpectralOverlapError:
            continue  # both coefficients singular; the bound is undefined
        separation_checked += 1
        if x > separation_bound(C, D, sep) + slack:
            violations += 1
    report(
        4,
        "sandwich-enclosures",
        violations == 0,
        f"{violations} violations, separation defined on {separation_checked}/1000",
    )


def test_acceptance_5_upper_bound_orderings():
    rng = np.random.default_rng(DEFAULT_SEED + 5)
    violations = 0
    for _ in range(1000):
        m, n = (int(x) for x in rng.integers(2, 7, size=2))
        wa = np.linalg.eigvalsh(random_psd(rng, m, int(rng.integers(1, m + 1))))
        wb = np.linalg.eigvalsh(random_psd(rng, n, int(rng.integers(1, n + 1))))
        C = complex_gaussian(rng, (m, n))
        D = complex_gaussian(rng, (m, n))
        params = weighted_params_from_spectra(wa, wb)
        mid = midpoint_bounds(C, D)
        wgt = weighted_bounds(C, D, params)
        sym = symmetric_bounds(C, D, symmetric_params_from_spectra(wa, wb))
        good = (
            mid.upper <= norm_sum_bound(C, D) + 1e-12
            and wgt.upper <= mid.upper + 1e-12
            and sym.upper <= mid.upper + 1e-12
            and params.c < min(params.a, params.b) + 1e-12
        )
        violations += not good
    report(5, "upper-bound-orderings", violations == 0, f"{violations} violations")


def test_acceptance_6_perturbation_validity():
    rng = np.random.default_rng(DEFAULT_SEED + 6)
    epsilons = (0.001, 0.01, 0.1)
    violations = 0
    start = time.perf_counter()
    for index in range(1000):
        m, n = (int(x) for x in rng.integers(2, 7, size=2))
        r = int(rng.integers(1, min(m, n) + 1))
        eps = epsilons[index % len(epsilons)]
        A = rank_r_matrix(rng, m, n, r)
        D1 = np.eye(m) + eps * complex_gaussian(rng, (m, m))
        D2 = np.eye(n) + eps * complex_gaussian(rng, (n, n))
        scenario = make_scenario(A, D1, D2)
        sub11 = subunitary_bound(scenario)
        psd11 = psd_factor_bound(scenario)
        sub_opt = subunitary_bound(scenario, SearchStrategy.OPTIMAL)
        psd_opt = psd_factor_bound(scenario, SearchStrategy.OPTIMAL)
        good = (
            sub11.subunitary_diff <= sub11.subunitary_bound + 1e-9
            and sub11.subunitary_bound <= chen_li_sun_bound(D1, D2) + 1e-9
            and psd11.psd_diff <= psd11.psd_bound + 1e-9
            and psd11.psd_bound <= hong_meng_zheng_bound(scenario) + 1e-9
            and sub_opt.subunitary_bound <= sub11.subunitary_bound
            and psd_opt.psd_bound <= psd11.psd_bound
        )
        violations += not good
    elapsed = time.perf_counter() - start
    report(
        6,
        "perturbation-validity",
        violations == 0,
        f"{violations} violations, {elapsed:.1f}s",
    )


def test_acceptance_7_polar_pinv_invariants():
    combos = [
        (m, n, r)
        for m in range(1, 7)
        for n in range(1, 7)
        for r in range(0, min(m, n) + 1)
    ]
    rng = np.random.default_rng(DEFAULT_SEED + 7)
    worst = 0.0
    for index in range(1000):
        m, n, r = combos[index % len(combos)]
        M = rank_r_matrix(rng, m, n, r, complex_entries=bool(index % 2))
        P = matrixcore.pinv(M)
        fro = matrixcore.frobenius_norm
        penrose = (
            fro(M @ P @ M - M) / (1.0 + fro(M)),
            fro(P @ M @ P - P) / (1.0 + fro(P)),
            fro((M @ P).conj().T - M @ P) / (1.0 + fro(M @ P)),
            fro((P @ M).conj().T - P @ M) / (1.0 + fro(P @ M)),
        )
        factors = generalized_polar(M)
        adjoint = generalized_polar(M.conj().T)
        adjoint_residual = fro(
            adjoint.H - factors.U @ factors.H @ factors.U.conj().T
        ) / (1.0 + fro(M))
        worst = max(
            worst,
            max(penrose),
            verify_polar(M, factors).max_residual,
            adjoint_residual,
        )
    report(7, "polar-pinv-invariants", worst <= 1e-10, f"worst residual {worst:.3e}")


def test_acceptance_8_solver_cross_check():
    rng = np.random.default_rng(DEFAULT_SEED + 8)
    worst = 0.0
    for _ in range(200):
        m, n = (int(x) for x in rng.integers(2, 7, size=2))
        A = random_psd(rng, m, m) + 0.1 * np.eye(m)
        B = random_psd(rng, n, n) + 0.1 * np.eye(n)
        C = complex_gaussian(rng, (m, n))
        D = complex_gaussian(rng, (m, n))
        S = A @ C + D @ B
        X = solve_structured(structured_problem(A, B, C, D)).X
        scale = 1.0 + matrixcore.frobenius_norm(X)
        for other in (kronecker_solve(A, B, S), solve_general_hermitian(A, -B, S)):
            worst = max(worst, matrixcore.frobenius_norm(X - other) / scale)
    report(8, "solver-cross-check", worst <= 1e-9, f"worst relative gap {worst:.3e}")
