"""Tests for the discrete-event request simulator."""

import math

import numpy as np
import pytest

from repro.core.gen import TrimCachingGen
from repro.errors import ConfigurationError
from repro.sim.request_sim import RequestLog, RequestSimulator


@pytest.fixture(scope="module")
def solved(request):
    scenario = request.getfixturevalue("tight_scenario")
    return scenario, TrimCachingGen().solve(scenario.instance)


class TestEmpiricalConvergence:
    def test_converges_to_expected_hit_ratio(self, solved):
        """eq. (2) validation: the empirical hit ratio of an actual
        request stream approaches U(X)."""
        scenario, result = solved
        simulator = RequestSimulator(scenario, fading=False)
        log = simulator.run(result.placement, num_slots=4000, seed=0)
        assert log.num_requests > 1000
        assert log.hit_ratio == pytest.approx(result.hit_ratio, abs=0.04)

    def test_fading_reduces_or_perturbs_hits(self, solved):
        scenario, result = solved
        faded = RequestSimulator(scenario, fading=True).run(
            result.placement, num_slots=500, seed=1
        )
        assert 0.0 <= faded.hit_ratio <= 1.0

    def test_empty_placement_never_hits(self, solved):
        scenario, _ = solved
        log = RequestSimulator(scenario).run(
            scenario.instance.new_placement(), num_slots=200, seed=0
        )
        assert log.num_hits == 0
        assert log.hit_ratio == 0.0
        assert math.isnan(log.mean_hit_latency_s)


class TestLogContents:
    def test_latencies_below_deadlines(self, solved):
        scenario, result = solved
        log = RequestSimulator(scenario).run(result.placement, 500, seed=2)
        max_deadline = scenario.latency_model.deadlines.max()
        assert (log.latencies_s <= max_deadline + 1e-9).all()
        assert len(log.latencies_s) == log.num_hits

    def test_server_load_sums_to_hits(self, solved):
        scenario, result = solved
        log = RequestSimulator(scenario).run(result.placement, 500, seed=3)
        assert int(log.server_load.sum()) == log.num_hits

    def test_reproducible(self, solved):
        scenario, result = solved
        a = RequestSimulator(scenario).run(result.placement, 200, seed=9)
        b = RequestSimulator(scenario).run(result.placement, 200, seed=9)
        assert a.num_requests == b.num_requests
        assert a.num_hits == b.num_hits

    def test_activity_rate(self, solved):
        """Requests per slot per user tracks p_A = 0.5."""
        scenario, result = solved
        slots = 1000
        log = RequestSimulator(scenario).run(result.placement, slots, seed=4)
        expected = 0.5 * scenario.num_users * slots
        assert log.num_requests == pytest.approx(expected, rel=0.1)

    def test_validation(self, solved):
        scenario, result = solved
        with pytest.raises(ConfigurationError):
            RequestSimulator(scenario).run(result.placement, num_slots=0)
