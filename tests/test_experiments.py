import errno
import math
import os
import signal
import sys
import time
from dataclasses import astuple

import numpy as np
import pytest

from polarbounds import bounds as bounds_mod
from polarbounds import experiments, matrixcore, perturb
from polarbounds.exceptions import DomainError, NumericalError
from polarbounds.experiments import (
    ComparisonTest,
    ExperimentConfig,
    SampleDistribution,
    run_example,
    run_montecarlo,
    run_perturb_sweep,
)
from conftest import exact_factor_changes


class TestRunExample:
    def test_frozen_values(self):
        rep = run_example()
        assert rep.x_norm == pytest.approx(1.249594699736542, abs=1e-12)
        assert rep.separation == pytest.approx(1.1832159566199232, abs=1e-12)
        assert rep.lam == pytest.approx(4.7912878474779195, abs=1e-12)
        assert rep.mu == pytest.approx(0.8091067115702212, abs=1e-12)
        expected_uppers = (
            1.4915469183406003,
            1.7648221138278717,
            1.2601818452517752,
            1.2578290804398122,
            1.2578290804398125,
        )
        for got, want in zip(rep.uppers, expected_uppers):
            assert got == pytest.approx(want, abs=1e-12)

    def test_relative_errors_follow_from_uppers(self):
        rep = run_example()
        for err, upper in zip(rep.relative_errors, rep.uppers):
            assert err == pytest.approx((upper - rep.x_norm) / rep.x_norm)
        assert rep.relative_errors[0] == pytest.approx(0.1936, abs=2e-4)

    def test_deterministic(self):
        assert run_example() == run_example()


def trial_data(rng, test, n, dist):
    """`A`, `B`, `C` and `D` of one trial drawn from `rng`, through the
    steps the batched kernel takes for each trial of a batch."""
    raw = np.empty((1,) + experiments._raw_shape(test, n, dist))
    experiments._fill(rng, raw[0], dist)
    A1, B1, C, D = experiments._split(raw, test, dist)
    return experiments._gram(A1)[0], experiments._gram(B1)[0], C[0], D[0]


class TestTrialData:
    @pytest.mark.parametrize("dist", list(SampleDistribution))
    def test_coefficients_are_gram_matrices(self, dist):
        rng = np.random.default_rng(601)
        A, B, C, D = trial_data(rng, ComparisonTest.INDEPENDENT, 3, dist)
        for M in (A, B):
            assert np.allclose(M, M.conj().T)
            assert np.linalg.eigvalsh(M)[0] > -1e-12

    def test_variant_relations(self):
        n = 3
        dist = SampleDistribution.UNIFORM_REAL

        def data(test):
            rng = np.random.default_rng(602)
            return trial_data(rng, test, n, dist)

        _, _, C, D = data(ComparisonTest.ZERO_D)
        assert np.any(C) and not np.any(D)
        _, _, C, D = data(ComparisonTest.ZERO_C)
        assert not np.any(C) and np.any(D)
        _, _, C, D = data(ComparisonTest.OPPOSITE)
        assert np.array_equal(D, -C)
        _, _, C, D = data(ComparisonTest.EQUAL)
        assert np.array_equal(D, C)

    def test_coefficient_draws_shared_across_variants(self):
        # A and B come from the first two draws, so they agree between
        # variants at the same substream regardless of how C and D follow.
        def coeffs(test):
            rng = np.random.default_rng(603)
            A, B, _, _ = trial_data(
                rng, test, 3, SampleDistribution.UNIFORM_REAL
            )
            return A, B

        A1, B1 = coeffs(ComparisonTest.ZERO_D)
        A2, B2 = coeffs(ComparisonTest.EQUAL)
        assert np.array_equal(A1, A2)
        assert np.array_equal(B1, B2)


class TestRunMontecarlo:
    def test_small_run_counts_are_sane(self):
        tally = run_montecarlo(ExperimentConfig(trials=200))
        assert tally.trials == 200
        for count in (tally.alpha, tally.beta, tally.gamma):
            assert 0 <= count <= 200
        assert tally.redraws >= 0

    def test_deterministic_across_runs(self):
        cfg = ExperimentConfig(test=ComparisonTest.EQUAL, trials=300)
        assert run_montecarlo(cfg) == run_montecarlo(cfg)

    def test_independent_of_chunking(self, monkeypatch):
        cfg = ExperimentConfig(test=ComparisonTest.OPPOSITE, trials=257)
        whole = run_montecarlo(cfg)
        monkeypatch.setattr(experiments, "_CHUNK", 37)
        assert run_montecarlo(cfg) == whole

    # Exact tallies at the default seed, 2000 trials each.  Test-v beta
    # counts rounding ties of the nrm2 kernel, so any change in draw
    # order, operation order or norm kernel shows up here.
    GOLDEN = {
        SampleDistribution.UNIFORM_REAL: {
            ComparisonTest.INDEPENDENT: (2000, 2000, 1999, 0),
            ComparisonTest.ZERO_D: (786, 1998, 0, 0),
            ComparisonTest.ZERO_C: (776, 2000, 0, 0),
            ComparisonTest.OPPOSITE: (2000, 1999, 2000, 0),
            ComparisonTest.EQUAL: (2000, 1488, 2000, 0),
        },
        SampleDistribution.COMPLEX_GAUSSIAN: {
            ComparisonTest.INDEPENDENT: (1375, 2000, 617, 0),
            ComparisonTest.ZERO_D: (715, 2000, 0, 0),
            ComparisonTest.ZERO_C: (698, 2000, 0, 0),
            ComparisonTest.OPPOSITE: (2000, 2000, 2000, 0),
            ComparisonTest.EQUAL: (2000, 1548, 2000, 0),
        },
    }

    @pytest.mark.parametrize("dist", list(SampleDistribution))
    @pytest.mark.parametrize("test", list(ComparisonTest))
    def test_golden_tallies(self, test, dist):
        tally = run_montecarlo(
            ExperimentConfig(test=test, trials=2000, seed=experiments.DEFAULT_SEED, dist=dist)
        )
        got = (tally.alpha, tally.beta, tally.gamma, tally.redraws)
        assert got == self.GOLDEN[dist][test]

    def test_complex_distribution_runs(self):
        tally = run_montecarlo(
            ExperimentConfig(trials=50, dist=SampleDistribution.COMPLEX_GAUSSIAN)
        )
        assert tally.trials == 50

    @staticmethod
    def force_first_attempt_overlap(monkeypatch):
        # The kernel decides overlap for a whole batch of trials per call,
        # so forcing overlap on every odd call forces it on every trial's
        # first attempt.
        orig = bounds_mod._spectral_separations
        calls = {"n": 0}

        def flaky(omega, gamma, **kwargs):
            calls["n"] += 1
            values, overlap = orig(omega, gamma, **kwargs)
            if calls["n"] % 2 == 1:
                overlap = np.ones_like(overlap)
            return values, overlap

        monkeypatch.setattr(bounds_mod, "_spectral_separations", flaky)

    def test_redraw_branch_counts(self, monkeypatch):
        self.force_first_attempt_overlap(monkeypatch)
        tally = run_montecarlo(ExperimentConfig(trials=25))
        assert tally.redraws == 25

    # Exact tallies at the default seed, 2000 trials each, when every trial
    # is redrawn once: they pin the draws of the substreams
    # ``(seed, index, 1)``, which no run at GOLDEN reaches.
    GOLDEN_REDRAWN = {
        SampleDistribution.UNIFORM_REAL: {
            ComparisonTest.INDEPENDENT: (2000, 2000, 2000, 2000),
            ComparisonTest.EQUAL: (2000, 1510, 2000, 2000),
        },
        SampleDistribution.COMPLEX_GAUSSIAN: {
            ComparisonTest.INDEPENDENT: (1393, 2000, 599, 2000),
            ComparisonTest.EQUAL: (2000, 1509, 2000, 2000),
        },
    }

    @pytest.mark.parametrize("dist", list(SampleDistribution))
    @pytest.mark.parametrize("test", [ComparisonTest.INDEPENDENT, ComparisonTest.EQUAL])
    def test_golden_redrawn_tallies(self, test, dist, monkeypatch):
        self.force_first_attempt_overlap(monkeypatch)
        tally = run_montecarlo(
            ExperimentConfig(test=test, trials=2000, seed=experiments.DEFAULT_SEED, dist=dist)
        )
        got = (tally.alpha, tally.beta, tally.gamma, tally.redraws)
        assert got == self.GOLDEN_REDRAWN[dist][test]

    def test_redraw_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(experiments, "_MAX_REDRAWS", 3)
        orig = bounds_mod._spectral_separations

        def always_overlapping(omega, gamma, **kwargs):
            values, overlap = orig(omega, gamma, **kwargs)
            return values, np.ones_like(overlap)

        monkeypatch.setattr(bounds_mod, "_spectral_separations", always_overlapping)
        with pytest.raises(NumericalError):
            run_montecarlo(ExperimentConfig(trials=2))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0}, {"trials": -5}, {"size": 0},
            {"trials": 2.5}, {"size": 2.5}, {"seed": -1},
            {"test": "i"}, {"dist": "uniform-real"},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(DomainError):
            run_montecarlo(ExperimentConfig(**kwargs))

    def test_numpy_integer_config(self):
        config = ExperimentConfig(trials=50, seed=7, size=3)
        numpy_config = ExperimentConfig(trials=np.int64(50), seed=np.uint32(7), size=np.int32(3))
        assert run_montecarlo(numpy_config) == run_montecarlo(config)


def five_stack_tally(seed, start, stop, test, n, dist):
    """Trials ``start .. stop - 1`` tallied with five norm stacks in every
    test, ``||C||``, ``||D||``, ``||C - D||``, ``||C + D||`` and
    ``||a C + b D||``, and the bound formulas written out: the reference for
    the kernel's per-test norm table."""
    indices = np.arange(start, stop)
    data = experiments._attempt(seed, indices, 0, test, n, dist)
    redraws = 0
    for attempt in range(1, experiments._MAX_REDRAWS):
        rows = np.flatnonzero(data[-1])
        if rows.size == 0:
            break
        redraws += rows.size
        for whole, part in zip(data, experiments._attempt(seed, indices[rows], attempt, test, n, dist)):
            whole[rows] = part
    wa, wb, C, D, sep, overlap = data
    assert not overlap.any()
    weighted, symmetric = bounds_mod._stacked_params(wa, wb)
    norms = matrixcore._frobenius_norms
    a, b = weighted.a[:, None, None], weighted.b[:, None, None]
    diff = norms(C - D)
    ub_separation = np.hypot(norms(C), norms(D)) / sep
    ub_weighted = (norms(a * C + b * D) + weighted.c * diff) / (weighted.a + weighted.b)
    ub_symmetric = (norms(C + D) + symmetric.mu * diff) / 2.0
    return (
        int(np.count_nonzero(ub_weighted <= ub_separation)),
        int(np.count_nonzero(ub_weighted <= ub_symmetric)),
        int(np.count_nonzero(ub_symmetric <= ub_separation)),
        redraws,
    )


class TestNormTable:
    """The kernel's norms of tests ii-v, taken from one norm stack, give the
    tallies of five norm stacks."""

    TRIALS = 8209  # two full chunks and a partial one

    def reference(self, seed, test, dist):
        parts = [
            five_stack_tally(seed, start, min(start + experiments._CHUNK, self.TRIALS),
                             test, 3, dist)
            for start in range(0, self.TRIALS, experiments._CHUNK)
        ]
        return tuple(sum(p[i] for p in parts) for i in range(4))

    def tally(self, seed, test, dist):
        t = run_montecarlo(ExperimentConfig(test=test, trials=self.TRIALS, seed=seed, dist=dist))
        return (t.alpha, t.beta, t.gamma, t.redraws)

    @pytest.mark.parametrize("dist", list(SampleDistribution))
    @pytest.mark.parametrize("test", list(ComparisonTest))
    def test_tallies_equal_the_five_stack_reference(self, test, dist, monkeypatch):
        for seed in (0, 19, experiments.DEFAULT_SEED):
            assert self.tally(seed, test, dist) == self.reference(seed, test, dist)
        # Each run starts the helper's count of calls afresh.
        forced = []
        for tally in (self.tally, self.reference):
            with monkeypatch.context() as patched:
                TestRunMontecarlo.force_first_attempt_overlap(patched)
                forced.append(tally(5, test, dist))
        assert forced[0] == forced[1] and forced[0][3] >= self.TRIALS

    @pytest.mark.parametrize("test", list(ComparisonTest))
    def test_norm_stacks_per_chunk(self, test, monkeypatch):
        calls = []
        norms = matrixcore._frobenius_norms

        def counted(M):
            calls.append(M.shape[0])
            return norms(M)

        monkeypatch.setattr(matrixcore, "_frobenius_norms", counted)
        experiments._tally_range(
            3, 0, experiments._CHUNK, test, 3, SampleDistribution.UNIFORM_REAL
        )
        expected = 5 if test is ComparisonTest.INDEPENDENT else 2
        assert calls == [experiments._CHUNK] * expected


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("k", [1, 7, 4096])
@pytest.mark.parametrize("dist", list(SampleDistribution))
def test_gram_equals_the_strided_product(k, n, dist):
    # The A1 stack as the kernel splits it: a strided view of the draws.
    rng = np.random.default_rng([k, n])
    shape = (k,) + experiments._raw_shape(ComparisonTest.INDEPENDENT, n, dist)
    A1 = experiments._split(rng.random(shape), ComparisonTest.INDEPENDENT, dist)[0]
    assert experiments._gram(A1).tobytes() == (A1.conj().mT @ A1).tobytes()


class TestForkedWorkers:
    """Calls of several chunks fork workers; the tallies and the caller's
    process are as with the chunks run one after another."""

    TRIALS = 8209  # two full chunks and a partial one

    @staticmethod
    def workers(monkeypatch, count):
        monkeypatch.setattr(experiments, "_cpu_count", lambda: count)

    @pytest.mark.parametrize("dist", list(SampleDistribution))
    @pytest.mark.parametrize("test", list(ComparisonTest))
    def test_tallies_equal_the_serial_ones(self, test, dist, monkeypatch):
        config = ExperimentConfig(test=test, trials=self.TRIALS, seed=11, dist=dist)
        for forced in (False, True):
            tallies = []
            for count in (1, 2, 3):
                # Each run starts the overlap helper's count of calls afresh.
                with monkeypatch.context() as patched:
                    self.workers(patched, count)
                    if forced:
                        TestRunMontecarlo.force_first_attempt_overlap(patched)
                    tallies.append(run_montecarlo(config))
            assert tallies[0] == tallies[1] == tallies[2]
            assert (tallies[0].redraws >= self.TRIALS) == forced

    def test_one_chunk_forks_nothing(self, monkeypatch):
        self.workers(monkeypatch, 2)
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        run_montecarlo(ExperimentConfig(trials=experiments._CHUNK))
        assert forks == []
        run_montecarlo(ExperimentConfig(trials=experiments._CHUNK + 1))
        assert forks == [1]

    def test_redraw_exhaustion_in_a_worker_reaches_the_caller(self, monkeypatch, recwarn):
        self.workers(monkeypatch, 2)
        monkeypatch.setattr(experiments, "_MAX_REDRAWS", 3)
        orig = experiments._attempt

        def overlapping_from_the_second_chunk(seed, indices, *args):
            *data, overlap = orig(seed, indices, *args)
            return (*data, overlap | (indices >= experiments._CHUNK))

        monkeypatch.setattr(experiments, "_attempt", overlapping_from_the_second_chunk)
        with pytest.raises(NumericalError, match=f"trial {experiments._CHUNK} could not"):
            run_montecarlo(ExperimentConfig(trials=2 * experiments._CHUNK))
        # The worker's share, tallied again in the caller, raises there; the
        # recovery warning is only for a share that then tallies.
        assert not [w for w in recwarn if w.category is RuntimeWarning]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failure_in_the_caller_kills_the_workers(self, monkeypatch):
        self.workers(monkeypatch, 3)
        caller = os.getpid()

        def failing(*args):
            if os.getpid() != caller:
                time.sleep(60)
            raise NumericalError("the caller's share failed")

        monkeypatch.setattr(experiments, "_tally_range", failing)
        start = time.monotonic()
        with pytest.raises(NumericalError, match="the caller's share failed"):
            run_montecarlo(ExperimentConfig(trials=3 * experiments._CHUNK))
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "end, status",
        [(lambda: os._exit(3), 3), (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)],
        ids=["exit-3", "sigkill"],
    )
    def test_worker_without_a_result(self, end, status, monkeypatch):
        chunk = experiments._CHUNK
        config = ExperimentConfig(trials=2 * chunk + 17)
        with monkeypatch.context() as serial:
            self.workers(serial, 1)
            expected = run_montecarlo(config)
        self.workers(monkeypatch, 2)
        caller = os.getpid()
        orig = experiments._tally_range

        def dying_in_workers(*args):
            if os.getpid() != caller:
                end()
            return orig(*args)

        monkeypatch.setattr(experiments, "_tally_range", dying_in_workers)
        with pytest.warns(
            RuntimeWarning, match=f"trials {chunk}-{2 * chunk - 1} .*status {status};"
        ):
            assert run_montecarlo(config) == expected
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_fork_kills_the_forked_workers(self, monkeypatch):
        self.workers(monkeypatch, 3)
        forks = []
        fork = os.fork

        def second_fails():
            forks.append(1)
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, "no second worker")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        with pytest.raises(OSError, match="no second worker"):
            run_montecarlo(ExperimentConfig(trials=3 * experiments._CHUNK))
        assert forks == [1, 1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_buffered_stdout_is_written_once(self, capfd, monkeypatch):
        self.workers(monkeypatch, 2)
        with open(1, "w", closefd=False) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            print("before the call")
            run_montecarlo(ExperimentConfig(trials=2 * experiments._CHUNK))
        assert capfd.readouterr().out == "before the call\n"


class TestRunPerturbSweep:
    def test_rows_and_determinism(self):
        rows = run_perturb_sweep(sizes=[2, 3], epsilons=[0.01], trials=2)
        assert len(rows) == 4
        assert rows == run_perturb_sweep(sizes=[2, 3], epsilons=[0.01], trials=2)
        for row in rows:
            assert 1 <= row.rank <= row.size
            assert row.actual_u <= row.subunitary_at_identity + 1e-9
            assert row.subunitary_optimized <= row.subunitary_at_identity

    def test_zero_epsilon_rows_are_exact(self):
        # inv(I) is exact, so every recorded quantity collapses to zero.
        for row in run_perturb_sweep(sizes=[3], epsilons=[0.0], trials=2):
            assert row.actual_u == 0.0 and row.actual_h == 0.0
            assert row.subunitary_at_identity == 0.0
            assert row.psd_at_identity == 0.0
            assert row.chen_li_sun == 0.0 and row.hong_meng_zheng == 0.0

    # Every field of the 12-row sweep at the default seed, as written to
    # the CSV.  Any change in draw order, operation order or norm kernel
    # of the perturbation bounds shows up here.
    GOLDEN_SWEEP = [
        (
            2, 1, 0.001, 0,
            0.0017979670196392253, 0.0016451234351968554,
            0.0024078433395451873, 0.0017752080940260692,
            0.002407563253273347, 0.0017747874152151902,
            0.004113098782314267, 0.005719016449155573,
        ),
        (
            2, 2, 0.001, 1,
            0.0038862270135414903, 0.0029537767253967947,
            0.0050648972386416495, 0.005642074196716178,
            0.005018169250247109, 0.005563223874818436,
            0.006229493876600559, 0.013651770107298546,
        ),
        (
            2, 2, 0.01, 0,
            0.01988757189785514, 0.061357189859406795,
            0.03808960674625271, 0.1252096301299933,
            0.027660017280439875, 0.09796652426881255,
            0.05197139218376145, 0.22142158008102877,
        ),
        (
            2, 1, 0.01, 1,
            0.021096943813493182, 0.0335754442866768,
            0.02692225743454594, 0.03403618234024033,
            0.026905348645436446, 0.033986162418858934,
            0.06243706556707261, 0.11178686610974929,
        ),
        (
            2, 1, 0.1, 0,
            0.08220619980392847, 0.12873272145482081,
            0.11369139422998718, 0.17713302133385256,
            0.09261402618713341, 0.17514555962746567,
            0.7740050746984235, 0.6784564549764982,
        ),
        (
            2, 2, 0.1, 1,
            0.09348785620308835, 0.4457955562545215,
            0.4122719751846667, 0.6631850540763508,
            0.13165026976882047, 0.6289459663823548,
            0.6271764505363675, 1.4411759875465096,
        ),
        (
            3, 1, 0.001, 0,
            0.0028236494520061457, 0.007330118656818615,
            0.002871220315182778, 0.007350286190986569,
            0.002871134131500935, 0.007350220404425727,
            0.009861257925392332, 0.023600351391273953,
        ),
        (
            3, 3, 0.001, 1,
            0.003728333659702184, 0.010408275230293083,
            0.00581729563146458, 0.017902064847562463,
            0.004924953921578219, 0.017460793815207844,
            0.009971119793934202, 0.035212237010062625,
        ),
        (
            3, 3, 0.01, 0,
            0.04655888264545139, 0.0922317936752879,
            0.06644637952704746, 0.31383914240392213,
            0.056026671575614764, 0.25983428446006784,
            0.08571888080865361, 0.6966182388486538,
        ),
        (
            3, 2, 0.01, 1,
            0.03258544685717254, 0.06836216374148052,
            0.04543353049451799, 0.09631747779407054,
            0.042983838278253916, 0.08868219183784852,
            0.07276046918893098, 0.17639799922489421,
        ),
        (
            3, 2, 0.1, 0,
            0.3517025164586916, 0.6378221642583256,
            0.4422984491879474, 0.9513775320001914,
            0.4229654164435848, 0.8916252962120012,
            0.9348092094849355, 3.2598087241108797,
        ),
        (
            3, 2, 0.1, 1,
            0.1816042509973585, 0.2500671598570323,
            0.3127989791512175, 0.4135687963289209,
            0.20561595778131497, 0.29480593482156764,
            0.6927490891954634, 1.9159297133847983,
        ),
    ]

    def test_golden_sweep(self):
        rows = run_perturb_sweep(
            sizes=[2, 3], epsilons=[0.001, 0.01, 0.1], trials=2,
            seed=experiments.DEFAULT_SEED,
        )
        got = [tuple(map(repr, astuple(row))) for row in rows]
        assert got == [tuple(map(repr, golden)) for golden in self.GOLDEN_SWEEP]

    def test_golden_psd_bounds_dominate_the_exact_change(self, monkeypatch):
        # Both pinned PSD bounds of each row, at (1, 1) and optimized, lie at
        # or above || |B| - |A| ||_F of the exact B = D1* A D2 of its inputs.
        pytest.importorskip("mpmath")
        inputs = []

        def recorded(*args, _make=perturb.make_scenario):
            inputs.append(args)
            return _make(*args)

        monkeypatch.setattr(perturb, "make_scenario", recorded)
        run_perturb_sweep(
            sizes=[2, 3], epsilons=[0.001, 0.01, 0.1], trials=2,
            seed=experiments.DEFAULT_SEED,
        )
        assert len(inputs) == len(self.GOLDEN_SWEEP)
        for args, golden in zip(inputs, self.GOLDEN_SWEEP):
            change = exact_factor_changes(*args)[1]
            assert change <= golden[7] and change <= golden[9], golden[:4]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sizes": [], "epsilons": [0.1], "trials": 1},
            {"sizes": [0], "epsilons": [0.1], "trials": 1},
            {"sizes": [2], "epsilons": [-0.1], "trials": 1},
            {"sizes": [2], "epsilons": [0.1], "trials": 0},
            {"sizes": [2.7], "epsilons": [0.1], "trials": 1},
            {"sizes": [2.5], "epsilons": [0.1], "trials": 1},
            {"sizes": [2], "epsilons": [0.1], "trials": 2.5},
            {"sizes": [2], "epsilons": [0.1], "trials": 1, "seed": -1},
            {"sizes": [2], "epsilons": [math.nan], "trials": 1},
            {"sizes": [2], "epsilons": [math.inf], "trials": 1},
            {"sizes": [2], "epsilons": ["x"], "trials": 1},
            {"sizes": [2], "epsilons": [None], "trials": 1},
        ],
    )
    def test_argument_validation(self, kwargs):
        with pytest.raises(DomainError):
            run_perturb_sweep(**kwargs)

    def test_row_reuses_the_scenario_factorizations(self, monkeypatch):
        # make_scenario takes one SVD of each perturber, A and B, and inverts
        # each perturber once; the classical bound reuses those inverses.
        calls = {"svd": 0, "inv": 0}
        for name in calls:
            def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        run_perturb_sweep(sizes=[3], epsilons=[0.01], trials=1)
        assert calls == {"svd": 4, "inv": 2}

    def test_row_check_rejects_violation(self):
        good = run_perturb_sweep(sizes=[2], epsilons=[0.01], trials=1)[0]
        bad = type(good)(**{**good.__dict__, "actual_u": good.subunitary_at_identity + 1.0})
        with pytest.raises(NumericalError):
            experiments._check_sweep_row(bad)

    @pytest.mark.parametrize(
        "field",
        ["actual_u", "actual_h", "subunitary_at_identity", "psd_at_identity",
         "subunitary_optimized", "psd_optimized", "chen_li_sun", "hong_meng_zheng"],
    )
    def test_row_check_rejects_nan(self, field):
        good = run_perturb_sweep(sizes=[2], epsilons=[0.01], trials=1)[0]
        bad = type(good)(**{**good.__dict__, field: math.nan})
        with pytest.raises(NumericalError):
            experiments._check_sweep_row(bad)

    def test_huge_epsilon_gives_finite_bounds(self):
        # Perturbers of norm 1e150 make |B| about 1e300: its bounds' squares
        # would overflow unscaled.
        for row in run_perturb_sweep(sizes=[2, 3], epsilons=[1e80, 1e150], trials=2):
            assert all(math.isfinite(v) for v in row.__dict__.values())
