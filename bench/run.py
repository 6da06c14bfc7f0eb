"""Benchmark of polarbounds: one workload per process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {montecarlo,perturb,dense,cli_solve}
                         --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run times ops with no instrumentation and reports
the end-to-end metrics.  With ``--trace 1`` it alternates untraced and
traced passes over a fixed list of ops and reports per-layer metrics, the
tracing overhead and, for ``montecarlo``, checks every tally against a
plain reference loop.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it, prefixed ``report``, holds the
provenance and every metric including the report-only ones.

The library is imported from ``src/`` of the checkout and nowhere else;
without it the run exits with status 2 before printing a result.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_tmp"
WORKLOAD_NAMES = ("montecarlo", "perturb", "dense", "cli_solve")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# Layers whose self time the traced run splits each op into.
LAYERS = ("bench", "experiments", "bounds", "matrixcore", "perturb", "polar",
          "sylvester", "cli", "numpy.linalg")
TRACE = {
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_share": "ratio",
    "trace.op_ms_untraced": "ms",
    "trace.op_ms_traced": "ms",
}
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "GOTO_NUM_THREADS", "POLAR_PERTURB_THREADS")
# A p90 is reported only with at least ten calls beyond it.
P90_MIN_CALLS = 100
SETUP_CHILDREN = 2


class LibraryMissing(Exception):
    pass


def import_library():
    """Import polarbounds from the checkout's ``src`` and nowhere else."""
    if not (SRC / "polarbounds" / "__init__.py").is_file():
        raise LibraryMissing(f"no polarbounds package under {SRC}")
    sys.path.insert(0, str(SRC))
    import polarbounds

    if Path(polarbounds.__file__).resolve().parent != SRC / "polarbounds":
        raise LibraryMissing(f"polarbounds imported from {polarbounds.__file__}, not {SRC}")
    return polarbounds


def per_layer_units() -> dict[str, str]:
    import workloads

    units = {}
    for cls in workloads.WORKLOADS.values():
        units.update(cls.LAYER)
    units.update(TRACE)
    units.update({f"{layer}.self_ms_per_op": "ms" for layer in LAYERS})
    return units


def setup(args):
    """Import, build the seed's inputs and warm up; the time runs from
    the first line of this file."""
    import workloads

    w = workloads.make(args.workload, args.seed, args.smoke, str(WORKDIR))
    w.warm_up()
    return w, time.perf_counter() - T_START


def setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def run_op(w, i, rec):
    """One op: its result (None if it raised), its seconds, its failures."""
    t0 = time.perf_counter()
    try:
        with rec.op(i):
            result = w.op(i, rec)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return None, time.perf_counter() - t0, [f"op {i} raised {type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    try:
        bad = w.check(i, result)
    except Exception as exc:  # a check that cannot run fails the op
        bad = [f"check {i} raised {type(exc).__name__}: {exc}"]
    return result, dt, [f"op {i}: {b}" for b in bad]


class Tally:
    """Attempted and failed units over a run, with a few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, units: int, bad: list[str]) -> None:
        self.attempted += units
        if bad:
            self.failed += units
            self.messages.extend(bad[: max(0, 5 - len(self.messages))])


def measure(w, seconds: float, tally: Tally):
    """Closed loop on one thread: the next op starts when the last ends."""
    from tracer import NullRecorder

    rec = NullRecorder()
    latencies, first = [], []
    units = 0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        result, dt, bad = run_op(w, i, rec)
        tally.add(w.units(i), bad)
        latencies.append(dt)
        if result is not None:
            units += w.units(i)
            if len(first) < w.trace_ops:
                first.append(result)
        i += 1
    elapsed = time.perf_counter() - start
    return units / elapsed, latencies, first


def traced(w, seconds: float, tally: Tally):
    """Alternate untraced and traced passes over the first `trace_ops` ops."""
    import workloads
    from tracer import NullRecorder, Tracer

    ops = range(w.trace_ops)
    units = sum(w.units(i) for i in ops)
    untraced_s, traced_s, layer_runs = [], [], []
    start = time.perf_counter()
    pair_s = 0.0
    while not traced_s or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        spent = 0.0
        for i in ops:
            _, dt, bad = run_op(w, i, NullRecorder())
            tally.add(w.units(i), bad)
            spent += dt
        untraced_s.append(spent)

        tracer = Tracer()
        workloads.wrap_library(tracer)
        results, spent = [], 0.0
        try:
            for i in ops:
                result, dt, bad = run_op(w, i, tracer)
                tally.add(w.units(i), bad)
                results.append(result)
                spent += dt
        finally:
            tracer.uninstall()
        traced_s.append(spent)
        summary = tracer.summary()
        del tracer
        done = [r for r in results if r is not None]
        layers = w.layer_metrics(summary, done) if len(done) == len(results) else {}
        self_s = summary.self_s_by_layer()
        for layer in LAYERS:
            layers[f"{layer}.self_ms_per_op"] = self_s.get(layer, 0.0) * 1e3 / len(ops)
        layer_runs.append(layers)
        pair_s = time.perf_counter() - pair_start

    untraced_op = statistics.median(untraced_s)
    traced_op = statistics.median(traced_s)
    metrics = {
        name: statistics.median(run[name] for run in layer_runs)
        for name in layer_runs[0]
        if all(name in run for run in layer_runs)
    }
    metrics.update({
        "trace.ops_per_s_untraced": units / untraced_op,
        "trace.ops_per_s_traced": units / traced_op,
        "trace.overhead_share": 1.0 - untraced_op / traced_op,
        "trace.op_ms_untraced": untraced_op * 1e3 / len(ops),
        "trace.op_ms_traced": traced_op * 1e3 / len(ops),
    })
    return metrics, len(untraced_s)


def check_reference_tallies(w, tally: Tally) -> int:
    """Recompute every traced montecarlo tally with the reference loop."""
    import workloads

    checked = 0
    for k, got in sorted(w.tallies.items()):
        cfg = w.configs[k]
        want = workloads.reference_tally(cfg)
        have = (got.alpha, got.beta, got.gamma, got.redraws)
        bad = [] if have == want else [
            f"test {cfg.test.value}: run_montecarlo {have} != reference loop {want}"]
        tally.add(cfg.trials, bad)
        checked += 1
    return checked


def provenance(w, args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "polarbounds").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "caches": cache_sizes(),
        "inputs": w.provenance(),
    }


def cache_sizes() -> dict:
    """Data and unified cache sizes of CPU 0, read from sysfs if present."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description="polarbounds benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    w, setup_s = setup(args)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return run(args, w, setup_s)
    finally:
        w.close()
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it, or it holds leftovers


def run(args, w, setup_s: float) -> int:
    tally = Tally()
    report: dict = {}
    if args.trace:
        metrics, pairs = traced(w, args.seconds, tally)
        report["trace_pairs"] = pairs
        if args.workload == "montecarlo":
            report["reference_tallies_checked"] = check_reference_tallies(w, tally)
        units = per_layer_units()
    else:
        setups = [setup_s] + [setup_in_child(args) for _ in range(SETUP_CHILDREN)]
        ops_per_s, latencies, first = measure(w, args.seconds, tally)
        lat_ms = sorted(dt * 1e3 for dt in latencies)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(lat_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        extra = {"error_rate": (tally.failed / tally.attempted, "ratio")}
        if len(lat_ms) >= P90_MIN_CALLS:
            extra["op_p90_ms"] = (statistics.quantiles(lat_ms, n=10)[-1], "ms")
        extra.update(w.report(first))
        report.update(calls=len(lat_ms), setup_samples_s=setups,
                      extra={k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    # Layers a workload never calls read 0, so every run names every metric.
    out = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
           for name, unit in units.items()}
    report.update(provenance=provenance(w, args), metrics=out, failures=tally.messages)
    for name, m in list(out.items()) + list(report.get("extra", {}).items()):
        print(f"# {name:48s} {m['value']:.6g} {m['unit']}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
