"""Self-test of the benchmark, run from the root of a checkout:

    python3 bench/selftest.py

It runs every workload on tiny inputs, untraced and traced, and checks
that each run names exactly the metrics of ``BENCHMARK.json`` with their
units, that no op failed, and that the Monte Carlo reference loop ran.
It then checks that an op whose residual is NaN counts as failed, and
that the benchmark refuses to run where the library source is missing.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("montecarlo", "perturb", "dense", "cli_solve")


def run_bench(root: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def test_smoke_runs_emit_every_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = run_bench(ROOT, workload, trace)
            assert out.returncode == 0, out.stderr
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            report = json.loads(lines[-2].removeprefix("report "))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, report["failures"]
            assert result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
            if trace:
                if workload == "montecarlo":
                    assert report["reference_tallies_checked"] == 5
                continue
            extra = {name: m["unit"] for name, m in report["extra"].items()}
            want_extra = {"error_rate": "ratio"}
            if report["calls"] >= 100:
                want_extra["op_p90_ms"] = "ms"
            if workload == "perturb":
                want_extra["probe_opt_ratio"] = "ratio"
            assert extra == want_extra, (workload, extra)
            assert report["extra"]["error_rate"]["value"] == 0.0
            assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
            for field in ("nproc", "python", "numpy", "scipy", "blas", "thread_env",
                          "git_commit", "seed", "inputs"):
                assert field in report["provenance"], field


def test_nan_residual_is_a_failed_op():
    sys.path.insert(0, str(HERE))
    import run

    run.import_library()
    import workloads
    from polarbounds import sylvester

    w = workloads.Dense(7, smoke=True)
    original = sylvester.splitting_identity_residual
    sylvester.splitting_identity_residual = lambda problem, solution: float("nan")
    try:
        tally = run.Tally()
        run.measure(w, 0.0, tally)
    finally:
        sylvester.splitting_identity_residual = original
    assert tally.attempted == tally.failed == 1, tally.messages
    assert "splitting residual: nan" in tally.messages[0]


def test_refuses_without_library_source():
    workdir = ROOT / ".bench_tmp"
    workdir.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=workdir))
    try:
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = run_bench(bare, "dense", 0, smoke=False)
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare)
        try:
            workdir.rmdir()
        except OSError:
            pass


def main() -> int:
    tests = [obj for name, obj in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
