"""The four benchmark workloads.

Each workload builds its inputs from a seed, runs one op at a time
through the public API of ``polarbounds``, checks every op's output, and
turns a trace summary into its per-layer metrics.  Every check is written
``not (value <= limit)`` so that a NaN fails.

Importing this module needs ``polarbounds`` importable; ``run.py`` puts
the checkout's ``src`` directory on the path first.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import tempfile

import numpy as np

from polarbounds import bounds, cli, experiments, matrixcore, perturb, polar, sylvester
from polarbounds.exceptions import SpectralOverlapError
from polarbounds.experiments import ComparisonTest, ExperimentConfig, SampleDistribution
from polarbounds.perturb import SearchStrategy
from tracer import NullRecorder

NULL_RECORDER = NullRecorder()

# numpy.linalg entry points that factor a matrix; the traced run counts them.
FACTORIZATIONS = ("svd", "eigh", "eigvalsh", "eig", "eigvals", "inv", "pinv", "qr",
                  "cholesky", "solve", "lstsq")
LINALG_NAMES = tuple(f"numpy.linalg.{f}" for f in FACTORIZATIONS)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _psd_with_range(rng: np.random.Generator, n: int, rank: int):
    """Hermitian PSD matrix of the given rank and the projector onto its range."""
    G = _complex_gaussian(rng, (rank, n))
    H = G.conj().T @ G
    Q, _ = np.linalg.qr(G.conj().T)
    return (H + H.conj().T) / 2, Q @ Q.conj().T


def structured_inputs(rng: np.random.Generator, n: int):
    """Rank-deficient PSD `A`, `B` (rank 3n/4) with `C`, `D` projected onto
    both ranges, so all four compatibility conditions hold."""
    rank = max(1, (3 * n) // 4)
    A, Pa = _psd_with_range(rng, n, rank)
    B, Pb = _psd_with_range(rng, n, rank)
    C = Pa @ _complex_gaussian(rng, (n, n)) @ Pb
    D = Pa @ _complex_gaussian(rng, (n, n)) @ Pb
    return A, B, C, D


def _failures(checks) -> list[str]:
    """Labels of the `(label, value, limit)` checks with not (value <= limit)."""
    return [f"{label}: {value!r} > {limit!r}" for label, value, limit in checks
            if not (value <= limit)]


def _per(total: float, n: int) -> float:
    """`total` per unit, or 0 when the traced ops had no such unit."""
    return total / n if n else 0.0


class Workload:
    """Inputs for one seed plus the op, its check and its layer metrics."""

    name = ""
    # Ops in one traced pass; the same ops every run, so counts repeat.
    trace_ops = 1

    def warm_up(self) -> None:
        """Run what the first timed op would otherwise pay for."""

    def op(self, i: int, rec):
        raise NotImplementedError

    def check(self, i: int, result) -> list[str]:
        raise NotImplementedError

    def units(self, i: int) -> int:
        """Units of `ops_per_s` in op `i`."""
        return 1

    def report(self, results: list) -> dict[str, tuple[float, str]]:
        """Workload-specific report metrics over the first traced ops."""
        return {}

    def layer_metrics(self, s, results: list) -> dict[str, float]:
        raise NotImplementedError

    def provenance(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class MonteCarlo(Workload):
    """`run_montecarlo` on 3x3 uniform-real tests i-v: Python overhead in
    `experiments` and `bounds`, with the library's 2-worker pool running."""

    name = "montecarlo"
    trace_ops = 5
    LAYER = {
        "experiments.self_us_per_trial": "us",
        "experiments.eigvalsh_us_per_trial": "us",
        "bounds.spectral_separation_us_per_trial": "us",
        "bounds.separation_bound_us_per_trial": "us",
        "bounds.weighted_us_per_trial": "us",
        "bounds.symmetric_us_per_trial": "us",
        "matrixcore.frobenius_norm_calls_per_trial": "count",
        "experiments.redraw_ratio": "ratio",
        "experiments.workers": "count",
    }

    def __init__(self, seed: int, smoke: bool = False):
        # Two full chunks of the library's 4096-trial split, so both pool
        # workers run as they do in a 10^5-trial run.
        self.trials = 24 if smoke else 8192
        rng = _rng(seed, 1)
        self.configs = [
            ExperimentConfig(
                test=test,
                trials=self.trials,
                seed=int(rng.integers(2**31)),
                size=3,
                dist=SampleDistribution.UNIFORM_REAL,
            )
            for test in ComparisonTest
        ]
        self.tallies: dict[int, experiments.TrialTally] = {}

    def warm_up(self) -> None:
        for cfg in self.configs:
            experiments.run_montecarlo(
                ExperimentConfig(test=cfg.test, trials=8, seed=cfg.seed)
            )

    def op(self, i: int, rec):
        return experiments.run_montecarlo(self.configs[i % len(self.configs)])

    def check(self, i: int, result) -> list[str]:
        k = i % len(self.configs)
        cfg = self.configs[k]
        counts = (result.alpha, result.beta, result.gamma)
        bad = [] if all(0 <= c <= cfg.trials for c in counts) and result.redraws >= 0 else [
            f"counts {counts} redraws {result.redraws} out of range"]
        if (result.trials, result.seed, result.test) != (cfg.trials, cfg.seed, cfg.test):
            bad.append(f"tally is for {result.test} {result.trials} {result.seed}")
        first = self.tallies.setdefault(k, result)
        if result != first:
            bad.append(f"test {cfg.test.value}: tally {result} differs from {first}")
        return bad

    def units(self, i: int) -> int:
        return self.configs[i % len(self.configs)].trials

    def layer_metrics(self, s, results: list) -> dict[str, float]:
        trials = sum(r.trials for r in results)
        us = 1e6
        return {
            "experiments.self_us_per_trial": _per(
                s.self_s_by_layer().get("experiments", 0.0) * us, trials),
            "experiments.eigvalsh_us_per_trial": _per(
                s.total_s("numpy.linalg.eigvalsh") * us, trials),
            "bounds.spectral_separation_us_per_trial": _per(
                s.total_s("bounds.spectral_separation") * us, trials),
            "bounds.separation_bound_us_per_trial": _per(
                s.total_s("bounds.separation_bound") * us, trials),
            "bounds.weighted_us_per_trial": _per(
                s.total_s("bounds.weighted_params_from_spectra", "bounds.weighted_bounds") * us,
                trials),
            "bounds.symmetric_us_per_trial": _per(
                s.total_s("bounds.symmetric_params_from_spectra", "bounds.symmetric_bounds") * us,
                trials),
            "matrixcore.frobenius_norm_calls_per_trial": _per(
                s.count("matrixcore.frobenius_norm"), trials),
            "experiments.redraw_ratio": _per(sum(r.redraws for r in results), trials),
            "experiments.workers": float(s.threads_below("experiments.run_montecarlo")),
        }

    def provenance(self) -> dict:
        return {"trials_per_call": self.trials, "size": 3, "dist": "uniform-real",
                "library_seeds": {c.test.value: c.seed for c in self.configs}}


def reference_tally(cfg: ExperimentConfig) -> tuple[int, int, int, int]:
    """A plain loop over the documented per-trial substreams.

    Trial ``k`` draws from ``SeedSequence((seed, k))``, attempt ``j > 0``
    from ``SeedSequence((seed, k, j))``; the draw order and the bound
    calls follow the published comparison.  Only uniform-real draws.
    """
    n = cfg.size
    alpha = beta = gamma = redraws = 0
    for index in range(cfg.trials):
        for attempt in range(100):
            key = (cfg.seed, index) if attempt == 0 else (cfg.seed, index, attempt)
            rng = np.random.default_rng(np.random.SeedSequence(key))
            A1 = rng.random((n, n))
            B1 = rng.random((n, n))
            third = rng.random((n, n))
            if cfg.test is ComparisonTest.INDEPENDENT:
                C, D = third, rng.random((n, n))
            elif cfg.test is ComparisonTest.ZERO_D:
                C, D = third, np.zeros_like(third)
            elif cfg.test is ComparisonTest.ZERO_C:
                C, D = np.zeros_like(third), third
            elif cfg.test is ComparisonTest.OPPOSITE:
                C, D = third, -third
            else:
                C, D = third, third
            A = A1.T @ A1
            B = B1.T @ B1
            wa = np.linalg.eigvalsh(A)
            wb = np.linalg.eigvalsh(B)
            try:
                sep = bounds.spectral_separation(wa, -wb)
            except SpectralOverlapError:
                continue
            ub_sep = bounds.separation_bound(C, D, sep)
            ub_w = bounds.weighted_bounds(C, D, bounds.weighted_params_from_spectra(wa, wb)).upper
            ub_s = bounds.symmetric_bounds(C, D, bounds.symmetric_params_from_spectra(wa, wb)).upper
            alpha += ub_w <= ub_sep
            beta += ub_w <= ub_s
            gamma += ub_s <= ub_sep
            redraws += attempt
            break
        else:
            raise RuntimeError(f"trial {index} found no separated spectra")
    return alpha, beta, gamma, redraws


class Perturb(Workload):
    """Acceptance-6-style scenarios with both probe searches: time goes to
    term evaluation in `perturb`, never to `sylvester` or `bounds`."""

    name = "perturb"
    trace_ops = 30
    EPSILONS = (1e-3, 1e-2, 1e-1)
    LAYER = {
        "perturb.make_scenario_ms": "ms",
        "perturb.bound_11_ms": "ms",
        "perturb.search_ms": "ms",
        "perturb.classical_ms": "ms",
        "perturb.term_evals_per_search": "count",
        "perturb.term_eval_us": "us",
        "perturb.search_improved_ratio": "ratio",
        "perturb.probe_opt_ratio": "ratio",
        "matrixcore.factorizations_per_scenario": "count",
    }

    def __init__(self, seed: int, smoke: bool = False):
        rng = _rng(seed, 2)
        # Every (m, n, eps) once, in a seeded order: the seed changes the
        # entries, ranks and order but not the mix of sizes, which sets
        # the cost of a run.
        shapes = [(m, n, eps) for m in range(2, 7) for n in range(2, 7) for eps in self.EPSILONS]
        order = rng.permutation(len(shapes))[: 6 if smoke else len(shapes)]
        self.inputs = []
        for m, n, eps in (shapes[k] for k in order):
            r = int(rng.integers(1, min(m, n) + 1))
            A = _complex_gaussian(rng, (m, r)) @ _complex_gaussian(rng, (r, n))
            D1 = np.eye(m) + eps * _complex_gaussian(rng, (m, m))
            D2 = np.eye(n) + eps * _complex_gaussian(rng, (n, n))
            self.inputs.append((A, D1, D2))
        if smoke:
            self.trace_ops = 3

    def warm_up(self) -> None:
        self.op(0, NULL_RECORDER)

    def op(self, i: int, rec):
        A, D1, D2 = self.inputs[i % len(self.inputs)]
        scenario = perturb.make_scenario(A, D1, D2)
        with rec.phase("bench.bound_11"):
            sub11 = perturb.subunitary_bound(scenario)
            psd11 = perturb.psd_factor_bound(scenario)
        with rec.phase("bench.search"):
            sub_opt = perturb.subunitary_bound(scenario, SearchStrategy.GRID_THEN_LOCAL_SEARCH)
            psd_opt = perturb.psd_factor_bound(scenario, SearchStrategy.GRID_THEN_LOCAL_SEARCH)
        with rec.phase("bench.classical"):
            cls = perturb.chen_li_sun_bound(D1, D2)
            hmz = perturb.hong_meng_zheng_bound(scenario)
        return sub11, psd11, sub_opt, psd_opt, cls, hmz

    def check(self, i: int, result) -> list[str]:
        sub11, psd11, sub_opt, psd_opt, cls, hmz = result
        slack = 1e-9
        return _failures([
            ("actual_U <= phi_11", sub11.subunitary_diff, sub11.subunitary_bound + slack),
            ("phi_11 <= chen_li_sun", sub11.subunitary_bound, cls + slack),
            ("actual_H <= gamma_11", psd11.psd_diff, psd11.psd_bound + slack),
            ("gamma_11 <= hong_meng_zheng", psd11.psd_bound, hmz + slack),
            ("phi_opt <= phi_11", sub_opt.subunitary_bound, sub11.subunitary_bound + slack),
            ("gamma_opt <= gamma_11", psd_opt.psd_bound, psd11.psd_bound + slack),
        ])

    @staticmethod
    def _ratios(results: list) -> list[tuple[float, float]]:
        pairs = []
        for sub11, psd11, sub_opt, psd_opt, _, _ in results:
            pairs.append((sub_opt.subunitary_bound, sub11.subunitary_bound))
            pairs.append((psd_opt.psd_bound, psd11.psd_bound))
        return pairs

    def _probe_opt_ratio(self, results: list) -> float:
        logs = [math.log(opt / at11) for opt, at11 in self._ratios(results) if at11 > 0 and opt > 0]
        return math.exp(sum(logs) / len(logs)) if logs else 0.0

    def report(self, results: list) -> dict[str, tuple[float, str]]:
        return {"probe_opt_ratio": (self._probe_opt_ratio(results), "ratio")}

    def layer_metrics(self, s, results: list) -> dict[str, float]:
        n = len(results)
        searches = 2 * n
        terms = ("perturb.subunitary_terms", "perturb.psd_terms")
        pairs = self._ratios(results)
        return {
            "perturb.make_scenario_ms": _per(s.total_s("perturb.make_scenario") * 1e3, n),
            "perturb.bound_11_ms": _per(s.total_s("bench.bound_11") * 1e3, n),
            "perturb.search_ms": _per(s.total_s("bench.search") * 1e3, n),
            "perturb.classical_ms": _per(s.total_s("bench.classical") * 1e3, n),
            "perturb.term_evals_per_search": _per(s.count_under("bench.search", *terms), searches),
            "perturb.term_eval_us": _per(s.total_s(*terms) * 1e6, s.count(*terms)),
            "perturb.search_improved_ratio": _per(sum(opt < at11 for opt, at11 in pairs), len(pairs)),
            "perturb.probe_opt_ratio": self._probe_opt_ratio(results),
            "matrixcore.factorizations_per_scenario": _per(s.count(*LINALG_NAMES), n),
        }

    def provenance(self) -> dict:
        return {"scenarios": len(self.inputs), "m_n_range": [2, 6], "epsilons": list(self.EPSILONS)}


class Dense(Workload):
    """One n = 600 structured problem from `structured_problem` to
    `verify_polar`: bound by BLAS and LAPACK, working set above L2."""

    name = "dense"
    trace_ops = 2
    LAYER = {
        "sylvester.structured_problem_ms": "ms",
        "sylvester.solve_structured_ms": "ms",
        "sylvester.splitting_identity_ms": "ms",
        "bounds.enclosures_ms": "ms",
        "polar.generalized_polar_ms": "ms",
        "polar.verify_polar_ms": "ms",
        "matrixcore.factorizations_per_problem": "count",
        "matrixcore.frobenius_norm_calls_per_problem": "count",
    }

    def __init__(self, seed: int, smoke: bool = False):
        self.n = 12 if smoke else 600
        rng = _rng(seed, 3)
        self.problems = [structured_inputs(rng, self.n) for _ in range(2)]
        self._warm = structured_inputs(rng, 16)

    def warm_up(self) -> None:
        self._run(self._warm, NULL_RECORDER)

    def op(self, i: int, rec):
        return self._run(self.problems[i % len(self.problems)], rec)

    @staticmethod
    def _run(data, rec):
        A, B, C, D = data
        problem = sylvester.structured_problem(A, B, C, D)
        solution = sylvester.solve_structured(problem)
        splitting = sylvester.splitting_identity_residual(problem, solution)
        with rec.phase("bench.enclosures"):
            x_norm = matrixcore.frobenius_norm(solution.X)
            wa, wb = problem.eigenvalues_a, problem.eigenvalues_b
            try:
                separation = bounds.separation_bound(C, D, bounds.spectral_separation(wa, -wb))
            except SpectralOverlapError:
                separation = None  # both coefficients singular; the bound is undefined
            enclosures = (
                bounds.midpoint_bounds(C, D),
                bounds.weighted_bounds(C, D, bounds.weighted_params_from_spectra(wa, wb)),
                bounds.symmetric_bounds(C, D, bounds.symmetric_params_from_spectra(wa, wb)),
            )
            norm_sum = bounds.norm_sum_bound(C, D)
        factors = polar.generalized_polar(solution.X)
        residuals = polar.verify_polar(solution.X, factors)
        return solution, splitting, x_norm, separation, enclosures, norm_sum, residuals

    def check(self, i: int, result) -> list[str]:
        solution, splitting, x, separation, enclosures, norm_sum, residuals = result
        slack = 1e-10 * (1.0 + x)
        checks = [
            ("solve residual", solution.residual, 1e-8),
            ("splitting residual", splitting, 1e-9),
            ("verify_polar", residuals.max_residual, 1e-10),
            ("||X||_F <= norm-sum", x, norm_sum + slack),
        ]
        if separation is not None:
            checks.append(("||X||_F <= separation", x, separation + slack))
        for pair in enclosures:
            checks.append((f"{pair.kind.value} lower <= ||X||_F", pair.lower, x + slack))
            checks.append((f"||X||_F <= {pair.kind.value} upper", x, pair.upper + slack))
        return _failures(checks)

    def layer_metrics(self, s, results: list) -> dict[str, float]:
        n = len(results)
        ms = 1e3
        return {
            "sylvester.structured_problem_ms": _per(s.total_s("sylvester.structured_problem") * ms, n),
            "sylvester.solve_structured_ms": _per(s.total_s("sylvester.solve_structured") * ms, n),
            "sylvester.splitting_identity_ms": _per(
                s.total_s("sylvester.splitting_identity_residual") * ms, n),
            "bounds.enclosures_ms": _per(s.total_s("bench.enclosures") * ms, n),
            "polar.generalized_polar_ms": _per(s.total_s("polar.generalized_polar") * ms, n),
            "polar.verify_polar_ms": _per(s.total_s("polar.verify_polar") * ms, n),
            "matrixcore.factorizations_per_problem": _per(s.count(*LINALG_NAMES), n),
            "matrixcore.frobenius_norm_calls_per_problem": _per(
                s.count("matrixcore.frobenius_norm"), n),
        }

    def provenance(self) -> dict:
        matrix_bytes = 16 * self.n * self.n
        return {"n": self.n, "rank": max(1, (3 * self.n) // 4), "problems": len(self.problems),
                "complex_matrix_bytes": matrix_bytes,
                # A, B, C, D, both eigenvector bases and X.
                "working_set_bytes": 7 * matrix_bytes}


class CliSolve(Workload):
    """`cli solve` on n = 100 matrix files: text parsing, printing and the
    repeated `eigh` of the bound parameters, at a size where overhead matters."""

    name = "cli_solve"
    trace_ops = 40
    LAYER = {
        "matrixcore.read_matrix_ms": "ms",
        "sylvester.solve_ms": "ms",
        "bounds.params_ms": "ms",
        "cli.self_ms": "ms",
        "matrixcore.psd_eigh_calls_per_solve": "count",
    }
    NORM_PREFIX = "||X||_F = "

    def __init__(self, seed: int, smoke: bool = False, workdir: str = "."):
        self.n = 6 if smoke else 100
        if smoke:
            self.trace_ops = 3
        rng = _rng(seed, 4)
        os.makedirs(workdir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli_solve-", dir=workdir)
        self.argvs, self.expected = [], []
        for k in range(4):
            data = structured_inputs(rng, self.n)
            paths = []
            for name, M in zip("ABCD", data):
                path = os.path.join(self.dir, f"{k}_{name}.txt")
                matrixcore.write_matrix(M, path)
                paths.append(path)
            self.argvs.append(["solve", *paths])
            problem = sylvester.structured_problem(*data)
            x = matrixcore.frobenius_norm(sylvester.solve_structured(problem).X)
            self.expected.append(f"{x:.10g}")

    def warm_up(self) -> None:
        self.op(0, NULL_RECORDER)

    def op(self, i: int, rec):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argvs[i % len(self.argvs)])
        return code, out.getvalue()

    def check(self, i: int, result) -> list[str]:
        code, text = result
        bad = [] if code == 0 else [f"exit code {code}"]
        printed = [line[len(self.NORM_PREFIX):] for line in text.splitlines()
                   if line.startswith(self.NORM_PREFIX)]
        want = self.expected[i % len(self.expected)]
        if printed != [want]:
            bad.append(f"printed ||X||_F {printed} != library {want}")
        return bad

    def layer_metrics(self, s, results: list) -> dict[str, float]:
        n = len(results)
        ms = 1e3
        return {
            "matrixcore.read_matrix_ms": _per(s.total_s("matrixcore.read_matrix") * ms, n),
            "sylvester.solve_ms": _per(
                s.total_s("sylvester.structured_problem", "sylvester.solve_structured") * ms, n),
            "bounds.params_ms": _per(
                s.total_s("bounds.weighted_bound_params", "bounds.symmetric_bound_params") * ms, n),
            "cli.self_ms": _per(s.self_s_by_layer().get("cli", 0.0) * ms, n),
            "matrixcore.psd_eigh_calls_per_solve": _per(s.count("matrixcore.psd_eigh"), n),
        }

    def provenance(self) -> dict:
        return {"n": self.n, "problems": len(self.argvs)}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (MonteCarlo, Perturb, Dense, CliSolve)}


def make(name: str, seed: int, smoke: bool, workdir: str) -> Workload:
    if name == CliSolve.name:
        return CliSolve(seed, smoke, workdir)
    return WORKLOADS[name](seed, smoke)


def wrap_library(tracer) -> None:
    """Install the traced run's wrappers at their module attributes."""
    timed = {
        experiments: ("run_montecarlo",),
        bounds: ("spectral_separation", "separation_bound", "norm_sum_bound",
                 "midpoint_bounds", "weighted_params_from_spectra", "weighted_bounds",
                 "weighted_bound_params", "symmetric_params_from_spectra",
                 "symmetric_bounds", "symmetric_bound_params"),
        matrixcore: ("read_matrix", "svd", "pinv"),
        perturb: ("make_scenario", "subunitary_terms", "psd_terms", "subunitary_bound",
                  "psd_factor_bound", "chen_li_sun_bound", "hong_meng_zheng_bound"),
        polar: ("generalized_polar", "verify_polar"),
        sylvester: ("structured_problem", "solve_structured", "splitting_identity_residual"),
        cli: ("main",),
    }
    for module, attrs in timed.items():
        short = module.__name__.rsplit(".", 1)[-1]
        # A function a later version removes is skipped; its metrics read 0.
        for attr in (a for a in attrs if hasattr(module, a)):
            tracer.wrap(module, attr, f"{short}.{attr}")
    # Called per matrix in the inner loops: counted, not timed.
    for attr in ("frobenius_norm", "psd_eigh"):
        tracer.wrap(matrixcore, attr, f"matrixcore.{attr}", timed=False)
    for attr in FACTORIZATIONS:
        tracer.wrap(np.linalg, attr, f"numpy.linalg.{attr}")
