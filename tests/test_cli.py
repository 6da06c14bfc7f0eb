import csv
import importlib.metadata
import math
import os
import pathlib
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import polarbounds
from polarbounds import matrixcore
from polarbounds import cli
from polarbounds.cli import main
from polarbounds.experiments import (
    ComparisonTest,
    ExperimentConfig,
    run_montecarlo,
    run_perturb_sweep,
)


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def write(tmp_path, name, M):
    path = tmp_path / name
    matrixcore.write_matrix(np.asarray(M, dtype=complex), path)
    return str(path)


def solve_args(tmp_path, A, B, C, D):
    return [
        "solve",
        write(tmp_path, "a.txt", A),
        write(tmp_path, "b.txt", B),
        write(tmp_path, "c.txt", C),
        write(tmp_path, "d.txt", D),
    ]


class TestExampleCommand:
    def test_prints_table(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "solution norm  1.2496" in out
        assert "separation     1.1832" in out
        assert "lambda         4.7913" in out
        assert "mu             0.8091" in out
        for upper in ("1.4915", "1.7648", "1.2602", "1.2578"):
            assert upper in out
        for rel in ("19.3625%", "41.2316%", "0.8472%", "0.6590%"):
            assert rel in out


class TestMontecarloCommand:
    def test_small_run(self, capsys):
        assert main(["montecarlo", "--test", "v", "--trials", "30"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("test v: trials=30 seed=")
        assert "alpha=" in out and "beta=" in out and "gamma=" in out

    def test_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "tally.csv"
        assert main(
            ["montecarlo", "--trials", "20", "--out", str(out_path)]
        ) == 0
        assert out_path.exists()
        assert f"wrote {out_path}" in capsys.readouterr().out

    def test_tally_csv_schema(self, tmp_path):
        out = tmp_path / "tally.csv"
        assert main(["montecarlo", "--test", "ii", "--trials", "40", "--out", str(out)]) == 0
        tally = run_montecarlo(ExperimentConfig(test=ComparisonTest.ZERO_D, trials=40))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == cli._TALLY_HEADER
        assert rows[1] == [
            "ii", "40", str(tally.seed),
            str(tally.alpha), str(tally.beta), str(tally.gamma), str(tally.redraws),
        ]

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(SystemExit) as exc:
            main(["montecarlo", "--trials", "0"])
        assert exc.value.code == 2

    def test_rejects_unknown_test_id(self):
        with pytest.raises(SystemExit) as exc:
            main(["montecarlo", "--test", "vi"])
        assert exc.value.code == 2

    def test_rejects_negative_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["montecarlo", "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed" in capsys.readouterr().err


class TestPerturbSweepCommand:
    def test_small_sweep(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        assert main(
            [
                "perturb-sweep",
                "--sizes", "2",
                "--epsilons", "0.01,0.1",
                "--trials", "2",
                "--out", str(out_path),
            ]
        ) == 0
        assert "wrote 4 rows" in capsys.readouterr().out
        assert len(out_path.read_text().splitlines()) == 5

    def test_sweep_csv_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            ["perturb-sweep", "--sizes", "2", "--epsilons", "0.1", "--trials", "3",
             "--out", str(out)]
        ) == 0
        rows = run_perturb_sweep(sizes=[2], epsilons=[0.1], trials=3)
        with open(out, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == cli._SWEEP_HEADER
        assert len(parsed) == 1 + len(rows)
        assert all(len(cells) == len(cli._SWEEP_HEADER) for cells in parsed[1:])
        # Float cells are written as reprs, so they parse back exactly.
        assert float(parsed[1][4]) == rows[0].actual_u

    def test_output_path_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["perturb-sweep", "--trials", "1"])
        assert exc.value.code == 2

    def test_rejects_malformed_size_list(self):
        with pytest.raises(SystemExit) as exc:
            main(["perturb-sweep", "--sizes", "2,x", "--out", "s.csv"])
        assert exc.value.code == 2

    def test_rejects_nonpositive_size(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perturb-sweep", "--sizes", "0", "--out", "s.csv"])
        assert exc.value.code == 2
        assert "argument --sizes" in capsys.readouterr().err

    def test_rejects_non_finite_epsilon(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perturb-sweep", "--epsilons", "nan", "--out", "s.csv"])
        assert exc.value.code == 2
        assert "argument --epsilons" in capsys.readouterr().err


class TestSolveCommand:
    def test_identity_average(self, tmp_path, capsys):
        C = [[1.0, 0.0], [0.0, 1.0]]
        D = [[3.0, 0.0], [0.0, 3.0]]
        code = main(solve_args(tmp_path, np.eye(2), np.eye(2), C, D))
        assert code == 0
        out = capsys.readouterr().out
        assert "pinv(A)AC=C holds" in out
        assert "||X||_F = 2.828427125" in out  # ||2 I||_F = 2 sqrt(2)

    def test_worked_example_matrix(self, tmp_path, capsys):
        s3 = math.sqrt(3.0)
        theta_c, theta_d = 5.0 * math.pi / 32.0, math.pi / 6.0
        C = [
            [math.cos(theta_c), math.sin(theta_c) / 4.0],
            [math.sin(theta_c) / 4.0, math.cos(theta_c)],
        ]
        D = [
            [math.cos(theta_d), math.sin(theta_d) / 4.0],
            [math.sin(theta_d) / 4.0, math.cos(theta_d)],
        ]
        code = main(solve_args(tmp_path, np.eye(2), [[1.0, s3], [s3, 4.0]], C, D))
        assert code == 0
        out = capsys.readouterr().out
        assert "0.8791489579" in out
        assert "||X||_F = 1.2495947" in out

    def test_small_complex_solution_prints_imaginary_parts(self, tmp_path, capsys):
        # X = C = D; an absolute tolerance on the imaginary parts would
        # print this X as the real matrix 1e-9 I.
        C = (1 + 1j) * 1e-9 * np.eye(2)
        assert main(solve_args(tmp_path, np.eye(2), np.eye(2), C, C)) == 0
        out = capsys.readouterr().out
        assert "  1e-09+1e-09j  0+0j\n  0+0j  1e-09+1e-09j\n" in out
        assert "||X||_F = 2e-09" in out

    def test_real_solution_at_large_scale_prints_real(self, tmp_path, capsys):
        # Complex coefficients and C = D real, so X = C up to round-off
        # imaginary parts of about 1e9 * eps, which print as real.
        A = [[2.0, 1j], [-1j, 2.0]]
        B = [[3.0, 1 + 1j], [1 - 1j, 2.0]]
        C = 1e9 * np.array([[1.0, 2.0], [3.0, 4.0]])
        assert main(solve_args(tmp_path, A, B, C, C)) == 0
        out = capsys.readouterr().out
        assert "X =\n  1000000000  2000000000\n  3000000000  4000000000\n" in out

    def test_singular_coefficients_report_undefined_separation(self, tmp_path, capsys):
        A = np.diag([1.0, 0.0])
        C = [[1.0, 0.0], [0.0, 0.0]]
        code = main(solve_args(tmp_path, A, A, C, C))
        assert code == 0
        assert "undefined" in capsys.readouterr().out

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        code = main(solve_args(tmp_path, np.eye(2), np.eye(2), np.ones((3, 2)), np.zeros((2, 2))))
        assert code == 2
        assert "must be" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        args = solve_args(tmp_path, np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        args[1] = str(tmp_path / "absent.txt")
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_garbage_file_exits_2(self, tmp_path, capsys):
        args = solve_args(tmp_path, np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        (tmp_path / "a.txt").write_text("2 2\nfoo bar\n")
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_hermitian_coefficient_exits_1(self, tmp_path, capsys):
        A = [[0.0, 1.0], [0.0, 0.0]]
        code = main(solve_args(tmp_path, A, np.eye(2), np.eye(2), np.eye(2)))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_hypothesis_violation_exits_1(self, tmp_path, capsys):
        A = np.diag([1.0, 0.0])
        C = [[0.0, 0.0], [1.0, 0.0]]
        code = main(solve_args(tmp_path, A, np.eye(2), C, np.zeros((2, 2))))
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILS" in captured.out
        assert "error:" in captured.err


_HOLDS = (
    "hypotheses: pinv(A)AC=C holds, DBpinv(B)=D holds, "
    "CBpinv(B)=C holds, pinv(A)AD=D holds\n"
)


class TestSolveGolden:
    """Whole standard output of `solve`, pinned byte for byte."""

    def test_real_full_rank(self, tmp_path, capsys):
        A = [[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]
        B = [[2.0, 0.5], [0.5, 1.0]]
        C = [[1.0, -2.0], [0.5, 3.0], [-1.0, 0.25]]
        D = [[2.0, 1.0], [-1.5, 0.0], [4.0, -3.0]]
        assert main(solve_args(tmp_path, A, B, C, D)) == 0
        assert capsys.readouterr().out == _HOLDS + (
            "X =\n"
            "  1.797105291  -1.2007365\n"
            "  -1.182263497  2.105129853\n"
            "  1.56164727  -0.1286511625\n"
            "scaled residual 4.090e-16\n"
            "||X||_F = 3.599439895\n"
            "separation upper bound  5.989166694\n"
            "norm-sum upper bound    6.896557112\n"
            "midpoint enclosure      [-0.8029603106, 6.849653622]\n"
            "weighted enclosure      [0.2115363888, 5.51778301]\n"
            "symmetric enclosure     [-0.2075089208, 6.254202232]\n"
        )

    def test_complex_rank_deficient_overlapping_spectra(self, tmp_path, capsys):
        # A and B are singular, so the spectra of A and -B share 0; C and D
        # lie in the ranges, so the structured hypotheses hold.
        A = np.array([[1, 1j, 0], [-1j, 1, 0], [0, 0, 2]])
        B = np.array([[1, 1 + 1j], [1 - 1j, 2]])
        Y = np.array([[1 + 2j, -1], [3j, 2 - 1j], [1, 1j]])
        Z = np.array([[2, 1j], [-1 + 1j, 1], [0, 3]])
        assert main(solve_args(tmp_path, A, B, A @ Y @ B, A @ Z @ B)) == 0
        assert capsys.readouterr().out == _HOLDS + (
            "X =\n"
            "  1.8+2.2j  -0.4+4j\n"
            "  2.2-1.8j  4+0.4j\n"
            "  5.2-2.8j  8+2.4j\n"
            "scaled residual 4.460e-16\n"
            "||X||_F = 12.37416664\n"
            "separation upper bound  undefined (spectra of A and -B overlap)\n"
            "norm-sum upper bound    20.78460969\n"
            "midpoint enclosure      [2.915579258, 20.57910099]\n"
            "weighted enclosure      [12.37416664, 12.37416664]\n"
            "symmetric enclosure     [7.797656593, 15.69702366]\n"
        )

    def test_one_by_one(self, tmp_path, capsys):
        # X = (A C + D B) / (A + B) = 17 / 5.
        assert main(solve_args(tmp_path, [[2.0]], [[3.0]], [[1.0]], [[5.0]])) == 0
        assert capsys.readouterr().out == _HOLDS + (
            "X =\n"
            "  3.4\n"
            "scaled residual 0.000e+00\n"
            "||X||_F = 3.4\n"
            "separation upper bound  3.676955262\n"
            "norm-sum upper bound    5.099019514\n"
            "midpoint enclosure      [1, 5]\n"
            "weighted enclosure      [3.4, 3.4]\n"
            "symmetric enclosure     [2.105572809, 3.894427191]\n"
        )

    def test_overflowing_lambda_gives_the_midpoint_enclosure(self, tmp_path, capsys):
        # lambda1 = ||pinv(A)|| ||B|| = 1e310 overflows, so mu is its limit 1.
        args = solve_args(
            tmp_path, 1e-300 * np.eye(2), np.diag([1e10, 1.0]), np.eye(2), np.diag([2.0, 0.0])
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out == _HOLDS + (
            "X =\n"
            "  2  0\n"
            "  0  1e-300\n"
            "scaled residual 0.000e+00\n"
            "||X||_F = 2\n"
            "separation upper bound  2.449489743\n"
            "norm-sum upper bound    2.449489743\n"
            "midpoint enclosure      [0.8740320489, 2.288245611]\n"
            "weighted enclosure      [2, 2]\n"
            "symmetric enclosure     [0.8740320489, 2.288245611]\n"
        )
        assert captured.err == ""
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestPrintMatrix:
    """Every printed entry reads as ``format(value, ".10g")``."""

    @staticmethod
    def expected(M):
        return "X =\n" + "".join(
            "  " + "  ".join(format(v, ".10g") for v in row) + "\n" for row in M
        )

    def test_complex_edge_values(self, capsys):
        M = np.array(
            [[complex(-0.0, -0.0), complex(0.0, -0.0), 1e-300 + 1e300j],
             [-1.5 + 0j, 1 / 3 - 2e-7j, complex(-5e-324, 1.7976931348623157e308)]]
        )
        cli._print_matrix("X =", M)
        out = capsys.readouterr().out
        assert out == self.expected(M.tolist())
        assert out.splitlines()[1] == "  -0-0j  0-0j  1e-300+1e+300j"

    def test_real_edge_values(self, capsys):
        M = np.array(
            [[-0.0, 5e-324, 1.7976931348623157e308],
             [-1.5, 1 / 3, 123456789012.0]], dtype=np.complex128
        )
        cli._print_matrix("X =", M)
        out = capsys.readouterr().out
        assert out == self.expected(M.real.tolist())
        assert out.splitlines()[1:] == [
            "  -0  4.940656458e-324  1.797693135e+308",
            "  -1.5  0.3333333333  1.23456789e+11",
        ]

    def test_non_contiguous_complex(self, capsys):
        M = np.array([[1 + 2j, -3j], [0.5, 4 - 1j]]).T
        cli._print_matrix("X =", M)
        # The literal -3j is complex(-0.0, -3.0).
        assert capsys.readouterr().out == "X =\n  1+2j  0.5+0j\n  -0-3j  4-1j\n"

    def test_real_array(self, capsys):
        cli._print_matrix("X =", np.array([[2.0, -0.0]]))
        assert capsys.readouterr().out == "X =\n  2  -0\n"


class TestEntryPoint:
    def test_python_dash_m(self):
        # Run the package imported here, from a source tree or installed.
        root = str(pathlib.Path(polarbounds.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "polarbounds", "example"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "solution norm" in proc.stdout

    # The console script comes with an installed distribution; importing
    # the package from a source tree (PYTHONPATH=src) provides none.  An
    # installed distribution without its script still fails here.
    @pytest.mark.skipif(
        not _distribution_installed("polarbounds"),
        reason="no installed polarbounds distribution "
        "(importlib.metadata.PackageNotFoundError), so no console script to test",
    )
    def test_console_script_installed(self):
        exe = shutil.which("polarbounds")
        assert exe is not None, "console script not on PATH"
        proc = subprocess.run(
            [exe, "example"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "solution norm" in proc.stdout
