"""Print one SHA-256 digest per area of polarbounds' deterministic outputs.

Usage, from the root of a checkout:

    python3 tools/bitcheck.py --src src
    python3 tools/bitcheck.py --src /path/to/another/checkout/src

Two source trees whose printed numbers agree bit for bit print the same
five digest lines, so a refactor that must keep its outputs can be checked
by running this on the tree before and after it.  The areas:

- ``montecarlo``: the tallies of ``run_montecarlo`` for tests i-v, both
  distributions, seeds 0-49 and 8209 trials (two full chunks and a partial
  one);
- ``sweep``: the 12 rows of ``run_perturb_sweep`` at sizes 2 and 3, the
  three default epsilons, 2 trials and the default seed;
- ``perturb``: the reports and the classical bounds of 3000 seeded
  scenarios, with `A` scaled from 1e-300 up to the edge of overflow, and
  in every seventh scenario `D1` or `D2` scaled alike;
- ``enclosures``: the midpoint, weighted and symmetric enclosures and
  ``matrixcore.require_hermitian`` at extreme scales, including data whose
  norms overflow;
- ``norms``: ``matrixcore._frobenius_norms`` of stacks of matrices of every
  size from 1 to 20 doubles, real and complex, with entries from 1e-320 to
  beyond the largest double, signed zeros, NaN and inf.

Each digest hashes the ``repr`` of every value, so floats count to the
last bit; an exception counts by its type and message.  A sixth line,
``below``, counts the ``perturb`` outcomes (scenario, family, probe) whose
finite actual change exceeds their finite bound times ``1 + 1e-9``, that
is, whose bound fails; bounds valid on every scenario give 0.
``_perturb_scenario(i)`` returns the outcomes of perturbation scenario `i`
alone, so two trees whose ``perturb`` digests differ can be compared
scenario by scenario.  The script takes about 30 s on a 2-CPU x86-64
machine and writes no file.
"""

import argparse
import hashlib
import sys
import warnings
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

_SCALES = (1.0, 1e-300, 1e-150, 2.0**-600, 1e150, 1e300, 2.0**1000, 4e307, 8e307)


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _outcome(fn, *args):
    """`fn(*args)`, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # a change of exception is a change of output
        return (type(exc).__name__, str(exc))


def _gaussian(rng, shape, complex_entries):
    G = rng.standard_normal(shape)
    return G + 1j * rng.standard_normal(shape) if complex_entries else G


def _montecarlo():
    from polarbounds import experiments as ex

    for test in ex.ComparisonTest:
        for dist in ex.SampleDistribution:
            for seed in range(50):
                config = ex.ExperimentConfig(test=test, trials=8209, seed=seed, dist=dist)
                yield astuple(ex.run_montecarlo(config))


def _sweep():
    from polarbounds import experiments

    rows = experiments.run_perturb_sweep(sizes=[2, 3], epsilons=[0.001, 0.01, 0.1], trials=2)
    return map(astuple, rows)


def _perturb():
    return (item for i in range(3000) for item in _perturb_scenario(i))


def _perturb_scenario(i):
    """The outcomes of the `perturb` area's scenario `i`."""
    from polarbounds import perturb as p

    rng = np.random.default_rng((2718, i))
    m, n = (int(k) for k in rng.integers(1, 5, size=2))
    rank = int(rng.integers(0, min(m, n) + 1))
    complex_entries = bool(i % 2)
    A = _gaussian(rng, (m, rank), complex_entries) @ _gaussian(rng, (rank, n), complex_entries)
    if A.any():
        # Normalized first: the quotient scale / max overflows when max is
        # below scale / DBL_MAX.
        A = A / np.abs(A).max() * _SCALES[i % len(_SCALES)]
    epsilon = (0.001, 0.01, 0.1, 0.5)[i // len(_SCALES) % 4]
    D1 = np.eye(m) + epsilon * _gaussian(rng, (m, m), True)
    D2 = np.eye(n) + epsilon * _gaussian(rng, (n, n), True)
    if i % 7 == 3:
        scale = _SCALES[i // 7 % len(_SCALES)]
        D1, D2 = (D1 * scale, D2) if i // 7 % 2 else (D1, D2 * scale)
    scenario = _outcome(p.make_scenario, A, D1, D2)
    if isinstance(scenario, tuple):
        return [scenario]
    items = []
    for strategy in (p.SearchStrategy.AT_ONE_ONE, p.SearchStrategy.OPTIMAL):
        for bound in (p.subunitary_bound, p.psd_factor_bound):
            report = _outcome(bound, scenario, strategy)
            items.append(report if isinstance(report, tuple) else astuple(report))
    items.append(_outcome(p.chen_li_sun_bound, D1, D2))
    items.append(_outcome(p.hong_meng_zheng_bound, scenario))
    return items


def _bounds_below_actual() -> int:
    """How many outcomes of the `perturb` area have a finite actual change
    above their finite bound times ``1 + 1e-9``."""
    from polarbounds.perturb import PolarPerturbReport

    names = [f.name for f in fields(PolarPerturbReport)]
    count = 0
    for i in range(3000):
        # The first four outcomes are the reports of each family at (1, 1),
        # then at the optimal probe; an exception is a pair of strings.
        for k, item in enumerate(_perturb_scenario(i)[:4]):
            if len(item) == len(names):
                report = dict(zip(names, item))
                family = ("subunitary", "psd")[k % 2]
                bound, actual = report[f"{family}_bound"], report[f"{family}_diff"]
                finite = np.isfinite([bound, actual]).all()
                count += bool(finite and actual > bound * (1 + 1e-9))
    return count


def _enclosures():
    from polarbounds import bounds as b, matrixcore

    for i in range(600):
        rng = np.random.default_rng((3141, i))
        n = int(rng.integers(1, 5))
        complex_entries = bool(i % 2)
        scale = _SCALES[i % len(_SCALES)]
        C = scale * _gaussian(rng, (n, n), complex_entries) / 4.0
        D = scale * _gaussian(rng, (n, n), complex_entries) / 4.0
        # Spectra from well conditioned to beyond the double range of lambda.
        smallest = 10.0 ** -rng.uniform(0, 320)
        wa = np.sort(rng.uniform(1.0, 2.0, size=n)) * np.array([smallest] + [1.0] * (n - 1))
        wb = np.sort(rng.uniform(1.0, 2.0, size=n))
        yield _outcome(b.weighted_params_from_spectra, wa, wb)
        yield _outcome(b.symmetric_params_from_spectra, wa, wb)
        yield _outcome(b.midpoint_bounds, C, D)
        yield _outcome(lambda: b.weighted_bounds(C, D, b.weighted_params_from_spectra(wa, wb)))
        yield _outcome(lambda: b.symmetric_bounds(C, D, b.symmetric_params_from_spectra(wa, wb)))
        H = C + C.conj().T
        # Hermitian, just inside and just outside the 1e-10 tolerance.
        for skew in (0.0, 3e-11, 3e-10):
            M = H + skew * scale * _gaussian(rng, (n, n), complex_entries) / 4.0
            hermitian = _outcome(matrixcore.require_hermitian, M)
            yield hermitian if isinstance(hermitian, tuple) else hermitian.tobytes()


def _norms():
    from polarbounds import matrixcore

    # Up to 18 doubles a stack's norms come from the long double model of
    # nrm2, and beyond that from BLAS.
    for parts in range(1, 21):
        for complex_entries in (False, True) if parts % 2 == 0 else (False,):
            rng = np.random.default_rng((1618, parts, complex_entries))
            rows = rng.standard_normal((1800, parts))
            rows[:900] *= 10.0 ** rng.uniform(-320, 308, (900, parts))
            rows[900:] *= np.resize(_SCALES, (900, 1))
            rows[::50] = 0.0
            rows[1::50] = -0.0
            rows[2::50, rng.integers(parts)] = np.nan
            rows[3::50, rng.integers(parts)] = np.inf
            if complex_entries:
                rows = rows.view(np.complex128)
            yield matrixcore._frobenius_norms(rows[:, None, :]).tobytes()


AREAS = {
    "montecarlo": _montecarlo,
    "sweep": _sweep,
    "perturb": _perturb,
    "enclosures": _enclosures,
    "norms": _norms,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", required=True, help="the src/ directory of the tree to check")
    src = Path(p.parse_args(argv).src).resolve()
    sys.path.insert(0, str(src))
    import polarbounds

    if Path(polarbounds.__file__).resolve().parent.parent != src:
        print(f"polarbounds was imported from {polarbounds.__file__}, not {src}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    for name, area in AREAS.items():
        with np.errstate(all="ignore"):
            print(f"{name:<11} {_digest(area())}", flush=True)
    with np.errstate(all="ignore"):
        print(f"{'below':<11} {_bounds_below_actual()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
