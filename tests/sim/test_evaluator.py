"""Tests for expected and Monte-Carlo placement evaluation."""

import numpy as np
import pytest

from repro.core.gen import TrimCachingGen
from repro.core.objective import hit_ratio
from repro.network.channel import ChannelModel
from repro.sim.evaluator import PlacementEvaluator
from repro.utils.rng import as_generator
from repro.utils.stats import RunningStats


@pytest.fixture(scope="module")
def solved(request):
    # Lazily resolve the session-scoped scenario fixture.
    scenario = request.getfixturevalue("tight_scenario")
    result = TrimCachingGen().solve(scenario.instance)
    return scenario, result


class TestExpectedEvaluation:
    def test_matches_objective(self, tight_scenario):
        result = TrimCachingGen().solve(tight_scenario.instance)
        evaluator = PlacementEvaluator(tight_scenario)
        assert evaluator.expected_hit_ratio(result.placement) == pytest.approx(
            result.hit_ratio
        )


class TestMonteCarloEvaluation:
    def test_bounds_and_reproducibility(self, tight_scenario):
        result = TrimCachingGen().solve(tight_scenario.instance)
        evaluator = PlacementEvaluator(tight_scenario)
        a = evaluator.monte_carlo_hit_ratio(result.placement, 50, seed=0)
        b = evaluator.monte_carlo_hit_ratio(result.placement, 50, seed=0)
        assert 0.0 <= a.mean <= 1.0
        assert a.mean == pytest.approx(b.mean)
        assert a.num_realizations == 50

    def test_fading_changes_the_answer(self, tight_scenario):
        result = TrimCachingGen().solve(tight_scenario.instance)
        evaluator = PlacementEvaluator(tight_scenario)
        expected = evaluator.expected_hit_ratio(result.placement)
        faded = evaluator.monte_carlo_hit_ratio(result.placement, 100, seed=1)
        # Rayleigh fading perturbs the hit ratio; it must not be exactly
        # the deterministic value and should carry spread.
        assert faded.mean != pytest.approx(expected, abs=1e-12)
        assert faded.std >= 0.0

    def test_more_realizations_reduce_spread_of_estimate(self, tight_scenario):
        result = TrimCachingGen().solve(tight_scenario.instance)
        evaluator = PlacementEvaluator(tight_scenario)
        means_small = [
            evaluator.monte_carlo_hit_ratio(result.placement, 10, seed=s).mean
            for s in range(6)
        ]
        means_large = [
            evaluator.monte_carlo_hit_ratio(result.placement, 200, seed=s).mean
            for s in range(6)
        ]
        assert np.std(means_large) <= np.std(means_small) + 1e-9

    def test_empty_placement_zero(self, tight_scenario):
        evaluator = PlacementEvaluator(tight_scenario)
        outcome = evaluator.monte_carlo_hit_ratio(
            tight_scenario.instance.new_placement(), 20, seed=0
        )
        assert outcome.mean == 0.0

    def test_invalid_realizations(self, tight_scenario):
        evaluator = PlacementEvaluator(tight_scenario)
        with pytest.raises(ValueError):
            evaluator.monte_carlo_hit_ratio(
                tight_scenario.instance.new_placement(), 0
            )


def dense_reference(scenario, placement, num_realizations, seed):
    """The pre-CSR Monte-Carlo loop: score the dense ``(M, K, I)`` tensor.

    Draws the same RNG stream as ``monte_carlo_hit_ratio`` and scores each
    realisation with :func:`hit_ratio` on ``latency.feasibility(rates)``.
    """
    rng = as_generator(seed)
    topology = scenario.topology
    shape = (topology.num_servers, topology.num_users)
    stats = RunningStats()
    for _ in range(num_realizations):
        gains = ChannelModel.sample_rayleigh_gains(shape, rng)
        feasible = scenario.latency_model.feasibility(topology.faded_rates(gains))
        stats.add(hit_ratio(scenario.instance, placement, feasible))
    return stats


class TestMonteCarloMatchesDenseReference:
    """The CSR walk per fading realisation is pinned to the dense tensor."""

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_bit_identical_to_dense(self, tight_scenario, seed):
        result = TrimCachingGen().solve(tight_scenario.instance)
        evaluator = PlacementEvaluator(tight_scenario)
        dense = dense_reference(tight_scenario, result.placement, 40, seed)
        sparse = evaluator.monte_carlo_hit_ratio(result.placement, 40, seed=seed)
        # Bit-identical, not approximately equal: the sparse walk
        # reproduces the dense einsum's booleans exactly and both
        # loops consume the same RNG stream.
        assert sparse.mean == dense.mean
        assert sparse.std == dense.std

    def test_bit_identical_on_dense_primary_instance(self):
        from repro.sim.config import ScenarioConfig
        from repro.sim.scenario import build_scenario

        scenario = build_scenario(
            ScenarioConfig(num_servers=3, num_users=8, num_models=9),
            seed=21,
            feasibility="dense",
        )
        result = TrimCachingGen().solve(scenario.instance)
        evaluator = PlacementEvaluator(scenario)
        dense = dense_reference(scenario, result.placement, 30, 2)
        sparse = evaluator.monte_carlo_hit_ratio(result.placement, 30, seed=2)
        assert sparse.mean == dense.mean
        assert sparse.std == dense.std
