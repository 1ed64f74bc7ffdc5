"""Tests for E2E latency (eqs. 4-5) and the feasibility indicator I1."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.network.backhaul import Backhaul
from repro.network.channel import ChannelModel
from repro.network.geometry import Point
from repro.network.latency import LatencyModel
from repro.network.servers import EdgeServer
from repro.network.topology import NetworkTopology
from repro.network.users import UserBatch
from repro.utils.units import GBPS, MB


def build(server_positions, user_positions, deadlines, inference, backhaul=None):
    servers = [
        EdgeServer(server_id=index, position=pos)
        for index, pos in enumerate(server_positions)
    ]
    users = UserBatch(
        np.array([[p.x, p.y] for p in user_positions], dtype=float),
        np.array(deadlines, dtype=float),
        np.array(inference, dtype=float),
    )
    return NetworkTopology(servers, users, backhaul=backhaul or Backhaul())


class TestDirectPath:
    def test_equation_4_by_hand(self):
        """T = D_i / C̄_{m,k} + t_{k,i} for an associated server."""
        topo = build(
            [Point(0, 0)], [Point(100, 0)], [[1.0]], [[0.1]]
        )
        sizes = np.array([50 * MB])
        model = LatencyModel(topo, sizes)
        rate = topo.expected_rates[0, 0]
        expected = 8.0 * 50 * MB / rate + 0.1
        assert model.latency()[0, 0, 0] == pytest.approx(expected)

    def test_feasibility_threshold(self):
        topo = build([Point(0, 0)], [Point(100, 0)], [[1.0]], [[0.1]])
        model = LatencyModel(topo, np.array([50 * MB]))
        latency = model.latency()[0, 0, 0]
        feasible = model.feasibility()[0, 0, 0]
        assert feasible == (latency <= 1.0)

    def test_larger_models_slower(self):
        topo = build(
            [Point(0, 0)], [Point(100, 0)], [[1.0, 1.0]], [[0.1, 0.1]]
        )
        model = LatencyModel(topo, np.array([10 * MB, 100 * MB]))
        lat = model.latency()
        assert lat[0, 0, 0] < lat[0, 0, 1]


class TestRelayPath:
    def test_equation_5_by_hand(self):
        """Non-associated server relays through the best associated one."""
        # Server 0 covers the user; server 1 is 2 km away (not covering).
        topo = build(
            [Point(0, 0), Point(2000, 0)],
            [Point(100, 0)],
            [[10.0]],
            [[0.1]],
        )
        sizes = np.array([50 * MB])
        model = LatencyModel(topo, sizes)
        rate = topo.expected_rates[0, 0]
        backhaul_time = 8.0 * 50 * MB / (10 * GBPS)
        expected = backhaul_time + 8.0 * 50 * MB / rate + 0.1
        assert model.latency()[1, 0, 0] == pytest.approx(expected)

    def test_relay_slower_than_direct(self):
        topo = build(
            [Point(0, 0), Point(2000, 0)], [Point(100, 0)], [[10.0]], [[0.1]]
        )
        model = LatencyModel(topo, np.array([50 * MB]))
        lat = model.latency()
        assert lat[1, 0, 0] > lat[0, 0, 0]

    def test_relay_picks_best_associated(self):
        # Two associated servers at different distances; relay from the far
        # third server must go through the nearer (faster) one.
        topo = build(
            [Point(0, 0), Point(150, 0), Point(3000, 0)],
            [Point(50, 0)],
            [[10.0]],
            [[0.1]],
        )
        model = LatencyModel(topo, np.array([50 * MB]))
        per_bit = model.per_bit_delivery()
        direct_best = min(per_bit[0, 0], per_bit[1, 0])
        backhaul_per_bit = 1.0 / (10 * GBPS)
        assert per_bit[2, 0] == pytest.approx(direct_best + backhaul_per_bit)

    def test_uncovered_user_unreachable(self):
        topo = build([Point(0, 0)], [Point(5000, 0)], [[10.0]], [[0.1]])
        model = LatencyModel(topo, np.array([50 * MB]))
        assert np.isinf(model.latency()[0, 0, 0])
        assert not model.feasibility()[0, 0, 0]


class TestBackhaulMatrix:
    """The per-bit matrix reads overrides exactly as ``Backhaul.rate`` does."""

    SERVERS = [Point(0, 0), Point(300, 0), Point(0, 300), Point(300, 300)]

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {(0, 2): 1 * GBPS},
            {(2, 0): 1 * GBPS},  # stored as (0, 2): rate(0, 2) reads it
            {(0, 1): 2 * GBPS, (1, 0): 2 * GBPS, (1, 3): 7 * GBPS},
        ],
    )
    def test_equals_rate_loop(self, overrides):
        backhaul = Backhaul(default_rate_bps=9 * GBPS, overrides=overrides)
        topo = build(self.SERVERS, [Point(100, 100)], [[1.0]], [[0.1]], backhaul)
        per_bit = LatencyModel(topo, np.array([50 * MB]))._backhaul_per_bit
        expected = np.zeros((4, 4))
        for a in range(4):
            for b in range(4):
                if a != b:
                    expected[a, b] = 1.0 / backhaul.rate(a, b)
        assert per_bit.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "overrides",
        [
            {(1, 1): 1 * GBPS},  # self-pair
            {(-1, 2): 3 * GBPS},  # negative id
            {(0, 1): 2 * GBPS, (1, 0): 5 * GBPS},  # one pair, two rates
            {(3, 3): 4 * GBPS},
        ],
    )
    def test_bad_override_keys_refused(self, overrides):
        with pytest.raises(ConfigurationError):
            Backhaul(default_rate_bps=9 * GBPS, overrides=overrides)

    def test_override_past_last_server_refused(self):
        backhaul = Backhaul(overrides={(1, 4): 1 * GBPS})
        with pytest.raises(TopologyError, match="past the last of 4"):
            build(self.SERVERS, [Point(100, 100)], [[1.0]], [[0.1]], backhaul)


class TestWithFadedRates:
    def test_deep_fade_breaks_feasibility(self):
        topo = build([Point(0, 0)], [Point(100, 0)], [[1.0]], [[0.1]])
        model = LatencyModel(topo, np.array([50 * MB]))
        assert model.feasibility()[0, 0, 0]
        faded = topo.faded_rates(np.full((1, 1), 1e-6))
        assert not model.feasibility(faded)[0, 0, 0]

    def test_rate_shape_checked(self):
        topo = build([Point(0, 0)], [Point(100, 0)], [[1.0]], [[0.1]])
        model = LatencyModel(topo, np.array([50 * MB]))
        with pytest.raises(TopologyError):
            model.per_bit_delivery(np.ones((2, 2)))


class TestValidation:
    def test_bad_sizes(self):
        topo = build([Point(0, 0)], [Point(100, 0)], [[1.0]], [[0.1]])
        with pytest.raises(TopologyError):
            LatencyModel(topo, np.array([1 * MB, 2 * MB]))  # wrong count
        with pytest.raises(TopologyError):
            LatencyModel(topo, np.array([0.0]))
        with pytest.raises(TopologyError):
            LatencyModel(topo, np.ones((1, 1)))


class TestChunkedAndHintedSparse:
    """feasibility_sparse_chunked and the server-order hint are exact."""

    def _scenario_latency(self, seed=3):
        from repro.sim.config import ScenarioConfig
        from repro.sim.scenario import build_scenario

        scenario = build_scenario(
            ScenarioConfig(num_servers=5, num_users=23, num_models=9), seed=seed
        )
        return scenario

    @pytest.mark.parametrize("chunk_size", [1, 4, 23, 22, 64])
    def test_chunked_equals_unchunked(self, chunk_size):
        latency = self._scenario_latency().latency_model
        assert latency.feasibility_sparse_chunked(
            chunk_size
        ) == latency.feasibility_sparse()

    def test_chunked_with_faded_rates(self):
        scenario = self._scenario_latency(seed=5)
        latency = scenario.latency_model
        rng = np.random.default_rng(1)
        rates = scenario.topology.expected_rates * rng.exponential(
            size=scenario.topology.expected_rates.shape
        )
        assert latency.feasibility_sparse_chunked(
            7, rates
        ) == latency.feasibility_sparse(rates)

    def test_chunk_size_must_be_positive(self):
        latency = self._scenario_latency().latency_model
        with pytest.raises(TopologyError, match="chunk_size"):
            latency.feasibility_sparse_chunked(0)

    def test_hint_does_not_change_a_bit(self):
        scenario = self._scenario_latency(seed=7)
        latency = scenario.latency_model
        hint = latency.expected_server_order()
        rng = np.random.default_rng(2)
        for _ in range(5):
            rates = scenario.topology.expected_rates * rng.exponential(
                size=scenario.topology.expected_rates.shape
            )
            assert latency.feasibility_sparse(
                rates, server_order_hint=hint
            ) == latency.feasibility_sparse(rates)

    def test_hint_shape_validated(self):
        latency = self._scenario_latency().latency_model
        bad = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(TopologyError, match="server_order_hint"):
            latency.feasibility_sparse(server_order_hint=bad)

    def test_expected_order_is_cached(self):
        latency = self._scenario_latency().latency_model
        assert latency.expected_server_order() is latency.expected_server_order()
