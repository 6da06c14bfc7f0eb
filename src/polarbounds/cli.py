"""Command line interface.

Exit codes: 0 on success, 1 on a numerical or data failure, 2 on a usage
or parse error (including malformed matrix files and shape mismatches).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import astuple

import numpy as np

from . import bounds, matrixcore, sylvester
from .exceptions import (
    DomainError,
    MatrixFormatError,
    NumericalError,
    SpectralOverlapError,
)
from .experiments import (
    DEFAULT_SEED,
    ComparisonTest,
    ExperimentConfig,
    SampleDistribution,
    run_example,
    run_montecarlo,
    run_perturb_sweep,
)

_BOUND_LABELS = ("separation", "norm-sum", "midpoint", "weighted", "symmetric")
_TALLY_HEADER = ["test_id", "trials", "seed", "alpha", "beta", "gamma", "redraws"]
# Published CSV names of the `SweepRow` fields, in order; each side has readers.
_SWEEP_HEADER = [
    "size", "rank", "epsilon", "trial", "actual_U", "actual_H", "phi_bound_11",
    "gamma_bound_11", "phi_bound_opt", "gamma_bound_opt", "cls_bound", "hmz_bound",
]


def _integer(text: str, least: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < least:
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _integer(text, 1)


def _seed(text: str) -> int:
    return _integer(text, 0)


def _epsilon(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite nonnegative number, got {text!r}"
        )
    return value


def _list_of(parse):
    """Argument type for comma-separated values, each read by `parse`."""

    def parse_list(text: str) -> list:
        values = [parse(part) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError("expected at least one value")
        return values

    return parse_list


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarbounds",
        description=(
            "Solve A X + X B = A C + D B for Hermitian PSD A and B, compare "
            "Frobenius-norm enclosures of the solution, and verify bounds on "
            "polar factors of multiplicatively perturbed matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "example",
        help="run the built-in 2x2 worked comparison of all five upper bounds",
    )
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser(
        "montecarlo",
        help="tally bound comparisons over seeded random trials",
    )
    p.add_argument(
        "--test",
        choices=[t.value for t in ComparisonTest],
        default=ComparisonTest.INDEPENDENT.value,
        help="relation between the data matrices C and D (default: %(default)s)",
    )
    p.add_argument("--trials", type=_positive_int, default=100_000,
                   help="number of trials (default: %(default)s)")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                   help="base seed (default: %(default)s)")
    p.add_argument("--size", type=_positive_int, default=3,
                   help="matrix size (default: %(default)s)")
    p.add_argument(
        "--dist",
        choices=[d.value for d in SampleDistribution],
        default=SampleDistribution.UNIFORM_REAL.value,
        help="entry distribution (default: %(default)s)",
    )
    p.add_argument("--out", default=None, help="write the tally as CSV to this path")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser(
        "perturb-sweep",
        help="sweep perturbation scenarios and record factor bounds as CSV",
    )
    p.add_argument("--sizes", type=_list_of(_positive_int), default=[2, 3, 4],
                   help="comma-separated matrix sizes (default: 2,3,4)")
    p.add_argument("--epsilons", type=_list_of(_epsilon), default=[0.001, 0.01, 0.1],
                   help="comma-separated perturbation scales (default: 0.001,0.01,0.1)")
    p.add_argument("--trials", type=_positive_int, default=10,
                   help="trials per size and epsilon (default: %(default)s)")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                   help="base seed (default: %(default)s)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_perturb_sweep)

    p = sub.add_parser(
        "solve",
        help="solve A X + X B = A C + D B from four matrix text files",
    )
    p.add_argument("a_path", metavar="A")
    p.add_argument("b_path", metavar="B")
    p.add_argument("c_path", metavar="C")
    p.add_argument("d_path", metavar="D")
    p.set_defaults(func=_cmd_solve)

    return parser


def _cmd_example(args: argparse.Namespace) -> int:
    report = run_example()
    print(f"solution norm  {report.x_norm:.4f}")
    print(f"separation     {report.separation:.4f}")
    print(f"lambda         {report.lam:.4f}")
    print(f"mu             {report.mu:.4f}")
    print()
    print(f"{'bound':<12}{'upper':>10}{'rel. error':>12}")
    for label, upper, rel in zip(_BOUND_LABELS, report.uppers, report.relative_errors):
        print(f"{label:<12}{upper:>10.4f}{100.0 * rel:>11.4f}%")
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        test=ComparisonTest(args.test),
        trials=args.trials,
        seed=args.seed,
        size=args.size,
        dist=SampleDistribution(args.dist),
    )
    tally = run_montecarlo(config)
    if args.out is not None:
        _write_csv(args.out, _TALLY_HEADER, [(tally.test.value, *astuple(tally)[1:])])
    n = tally.trials
    print(
        f"test {tally.test.value}: trials={n} seed={tally.seed} "
        f"alpha={tally.alpha} ({tally.alpha / n:.5f}) "
        f"beta={tally.beta} ({tally.beta / n:.5f}) "
        f"gamma={tally.gamma} ({tally.gamma / n:.5f}) "
        f"redraws={tally.redraws}"
    )
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_perturb_sweep(args: argparse.Namespace) -> int:
    rows = run_perturb_sweep(
        sizes=args.sizes, epsilons=args.epsilons, trials=args.trials, seed=args.seed
    )
    _write_csv(args.out, _SWEEP_HEADER, map(astuple, rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _print_matrix(name: str, M: np.ndarray) -> None:
    # Imaginary parts count as round-off relative to the largest entry, so a
    # small complex matrix still prints them; each cell is format(v, ".10g").
    if np.abs(M.imag).max() <= 1e-8 * np.abs(M).max():
        rows, cell = M.real, "%.10g"
    else:
        rows, cell = np.ascontiguousarray(M, np.complex128).view(np.float64), "%.10g%+.10gj"
    row_format = "  " + "  ".join([cell] * M.shape[1])
    print(name, *(row_format % tuple(row.tolist()) for row in rows), sep="\n")


def _cmd_solve(args: argparse.Namespace) -> int:
    paths = (args.a_path, args.b_path, args.c_path, args.d_path)
    A, B, C, D = map(matrixcore.read_matrix, paths)
    m, n = A.shape[0], B.shape[0]
    shape_problems = []
    if A.shape[0] != A.shape[1]:
        shape_problems.append(f"A must be square, got {A.shape}")
    if B.shape[0] != B.shape[1]:
        shape_problems.append(f"B must be square, got {B.shape}")
    for name, M in (("C", C), ("D", D)):
        if M.shape != (m, n):
            shape_problems.append(f"{name} must be {m} x {n}, got {M.shape}")
    if shape_problems:
        for line in shape_problems:
            print(f"error: {line}", file=sys.stderr)
        return 2
    problem = sylvester.structured_problem(A, B, C, D)
    print(
        "hypotheses: "
        f"pinv(A)AC=C {'holds' if problem.c_left_conforming else 'FAILS'}, "
        f"DBpinv(B)=D {'holds' if problem.d_right_conforming else 'FAILS'}, "
        f"CBpinv(B)=C {'holds' if problem.c_right_conforming else 'FAILS'}, "
        f"pinv(A)AD=D {'holds' if problem.d_left_conforming else 'FAILS'}"
    )
    solution = sylvester.solve_structured(problem)
    _print_matrix("X =", solution.X)
    print(f"scaled residual {solution.residual:.3e}")
    print(f"||X||_F = {matrixcore.frobenius_norm(solution.X):.10g}")
    wa, wb = problem.eigenvalues_a, problem.eigenvalues_b
    try:
        sep = bounds.spectral_separation(wa, -wb)
        print(f"separation upper bound  {bounds.separation_bound(C, D, sep):.10g}")
    except SpectralOverlapError:
        print("separation upper bound  undefined (spectra of A and -B overlap)")
    print(f"norm-sum upper bound    {bounds.norm_sum_bound(C, D):.10g}")
    midpoint = bounds.midpoint_bounds(C, D)
    print(f"midpoint enclosure      [{midpoint.lower:.10g}, {midpoint.upper:.10g}]")
    weighted = bounds.weighted_bounds(C, D, bounds.weighted_params_from_spectra(wa, wb))
    print(f"weighted enclosure      [{weighted.lower:.10g}, {weighted.upper:.10g}]")
    symmetric = bounds.symmetric_bounds(C, D, bounds.symmetric_params_from_spectra(wa, wb))
    print(f"symmetric enclosure     [{symmetric.lower:.10g}, {symmetric.upper:.10g}]")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MatrixFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
