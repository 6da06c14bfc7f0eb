"""The batched substreams equal numpy's own generator, key by key."""

import numpy as np
import pytest

import test_experiments
from polarbounds import _substreams, experiments
from polarbounds.experiments import (
    ComparisonTest,
    ExperimentConfig,
    SampleDistribution,
    run_montecarlo,
)

# Seeds and indices below, at and above 2**32, where a key gains a word,
# and seeds long enough that the key overflows the 4-word pool.
SEEDS = [0, 2**32 - 1, 2**32, experiments.DEFAULT_SEED, 2**64 + 3, 2**100 + 5]
INDICES = np.array([0, 1, 2**32 - 1, 2**32, 2**40 + 7, 299])
ATTEMPTS = [0, 1, 99]


def reference(seed, index, attempt):
    return np.random.default_rng(np.random.SeedSequence(_substreams.key(seed, index, attempt)))


@pytest.mark.parametrize("attempt", ATTEMPTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_equal_numpy(seed, attempt):
    got = _substreams.uniforms(seed, INDICES, attempt, 36)
    for row, index in zip(got, INDICES.tolist(), strict=True):
        assert np.array_equal(row, reference(seed, index, attempt).random(36))


@pytest.mark.parametrize("attempt", ATTEMPTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_generator_states_equal_numpy(seed, attempt):
    got = _substreams.generators(seed, INDICES, attempt)
    for rng, index in zip(got, INDICES.tolist(), strict=True):
        assert rng.bit_generator.state == reference(seed, index, attempt).bit_generator.state


@pytest.mark.parametrize("dist", list(SampleDistribution))
@pytest.mark.parametrize("attempt", ATTEMPTS)
@pytest.mark.parametrize("seed", [0, 2**32, 2**100 + 5])
def test_batch_draws_equal_per_trial_draws(seed, attempt, dist):
    shape = (INDICES.size,) + experiments._raw_shape(ComparisonTest.INDEPENDENT, 3, dist)
    args = (seed, INDICES, attempt, shape, dist)
    assert np.array_equal(experiments._draw_batch(*args), experiments._draw_each(*args))


@pytest.fixture
def fresh_check():
    experiments._batch_draws_match.cache_clear()
    yield
    experiments._batch_draws_match.cache_clear()


@pytest.mark.parametrize("dist", list(SampleDistribution))
def test_batch_path_is_in_use(dist, monkeypatch, fresh_check):
    assert experiments._batch_draws_match(dist)

    def unused(*args):
        raise AssertionError("the per-trial loop ran")

    monkeypatch.setattr(experiments, "_draw_each", unused)
    run_montecarlo(ExperimentConfig(trials=50, dist=dist))


@pytest.mark.parametrize("dist", list(SampleDistribution))
def test_mismatch_falls_back_to_the_per_trial_loop(dist, monkeypatch, fresh_check):
    monkeypatch.setattr(_substreams, "MULT_A", _substreams.MULT_A ^ 1)
    assert not experiments._batch_draws_match(dist)
    golden = test_experiments.TestRunMontecarlo.GOLDEN[dist]
    for test in ComparisonTest:
        tally = run_montecarlo(ExperimentConfig(test=test, trials=2000, dist=dist))
        assert (tally.alpha, tally.beta, tally.gamma, tally.redraws) == golden[test]
