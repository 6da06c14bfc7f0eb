import importlib.metadata
import math
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import polarbounds
from polarbounds import matrixcore
from polarbounds.cli import main


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
