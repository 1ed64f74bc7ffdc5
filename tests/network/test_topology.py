"""Tests for NetworkTopology: association, allocation, rates."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.network.channel import ChannelModel
from repro.network.geometry import Point
from repro.network.servers import EdgeServer
from repro.network.topology import NetworkTopology
from repro.network.users import User, UserBatch


def make_topology(
    server_positions,
    user_positions,
    radius=275.0,
    num_models=2,
):
    servers = [
        EdgeServer(server_id=index, position=pos, coverage_radius_m=radius)
        for index, pos in enumerate(server_positions)
    ]
    num_users = len(user_positions)
    users = UserBatch(
        np.array([[p.x, p.y] for p in user_positions], dtype=float).reshape(-1, 2),
        np.full((num_users, num_models), 1.0),
        np.full((num_users, num_models), 0.1),
    )
    return NetworkTopology(servers, users)


class TestAssociation:
    def test_coverage_sets(self):
        topo = make_topology(
            [Point(0, 0), Point(1000, 0)],
            [Point(100, 0), Point(900, 0), Point(500, 0)],
        )
        # User 2 is covered by nobody.
        assert topo.coverage_mask.tolist() == [
            [True, False, False],
            [False, True, False],
        ]

    def test_overlapping_coverage(self):
        topo = make_topology(
            [Point(0, 0), Point(200, 0)], [Point(100, 0)], radius=275.0
        )
        assert topo.coverage_mask[:, 0].tolist() == [True, True]


class TestAllocation:
    def test_paper_share_formula(self):
        """Each covered user gets B / (p_A |K_m|) and P / (p_A |K_m|)."""
        server = EdgeServer(server_id=0, position=Point(0, 0))
        users = UserBatch(
            np.tile([100.0, 0.0], (10, 1)),
            np.ones((10, 2)),
            np.full((10, 2), 0.1),
            active_probability=0.5,
        )
        topo = NetworkTopology([server], users)
        expected_active = 0.5 * 10
        expected = topo.channel.expected_rate(
            np.array([server.total_power_watts / expected_active]),
            np.array([server.total_bandwidth_hz / expected_active]),
            np.array([100.0]),
        )
        assert topo.expected_rates[0] == pytest.approx(
            np.full(10, expected[0]), rel=1e-12
        )

    def test_more_users_less_share(self):
        """A server's budget is split over its covered users, so a crowded
        server gives each one less bandwidth and power (and rate)."""
        few = make_topology([Point(0, 0)], [Point(100, 0)] * 5)
        many = make_topology([Point(0, 0)], [Point(100, 0)] * 50)
        few_b, few_p = few._allocations
        many_b, many_p = many._allocations
        assert few_b[0, 0] == pytest.approx(10 * many_b[0, 0], rel=1e-12)
        assert few_p[0, 0] == pytest.approx(10 * many_p[0, 0], rel=1e-12)
        assert few.expected_rates[0, 0] > many.expected_rates[0, 0] > 0

    def test_uncovered_users_take_no_share(self):
        """|K_m| counts only the users a server covers: users out of its
        range neither get a share nor dilute the covered users' one."""
        alone = make_topology([Point(0, 0)], [Point(100, 0)])
        with_far = make_topology(
            [Point(0, 0)], [Point(100, 0)] + [Point(5000, 0)] * 4
        )
        assert with_far._allocations[0][0, 0] == alone._allocations[0][0, 0]
        assert with_far._allocations[1][0, 0] == alone._allocations[1][0, 0]
        assert (with_far._allocations[0][0, 1:] == 0.0).all()
        assert with_far.expected_rates[0, 0] == alone.expected_rates[0, 0]

    def test_non_associated_gets_zero(self):
        topo = make_topology([Point(0, 0)], [Point(5000, 0)])
        assert topo.expected_rates[0, 0] == 0.0


class TestRates:
    def test_nearer_user_gets_higher_rate(self):
        topo = make_topology(
            [Point(0, 0)], [Point(50, 0), Point(250, 0)], radius=275.0
        )
        rates = topo.expected_rates
        assert rates[0, 0] > rates[0, 1] > 0

    def test_faded_rates_shape_and_zeroing(self):
        topo = make_topology([Point(0, 0)], [Point(50, 0), Point(5000, 0)])
        gains = np.ones((1, 2))
        faded = topo.faded_rates(gains)
        assert faded[0, 0] == pytest.approx(topo.expected_rates[0, 0])
        assert faded[0, 1] == 0.0

    def test_faded_rates_shape_mismatch(self):
        topo = make_topology([Point(0, 0)], [Point(50, 0)])
        with pytest.raises(TopologyError):
            topo.faded_rates(np.ones((2, 2)))


class TestValidation:
    def test_id_position_mismatch(self):
        servers = [EdgeServer(server_id=1, position=Point(0, 0))]
        users = UserBatch(np.zeros((1, 2)), np.ones((1, 1)), np.full((1, 1), 0.1))
        with pytest.raises(TopologyError):
            NetworkTopology(servers, users)

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            make_topology([], [Point(0, 0)])
        with pytest.raises(TopologyError):
            make_topology([Point(0, 0)], [])

    def test_user_list_refused(self):
        servers = [EdgeServer(server_id=0, position=Point(0, 0))]
        users = [User(0, Point(0, 0), np.ones(2), np.full(2, 0.1))]
        with pytest.raises(TopologyError, match="UserBatch"):
            NetworkTopology(servers, users)


class TestWithUserPositions:
    def test_recomputes_everything(self):
        topo = make_topology([Point(0, 0)], [Point(50, 0)])
        moved = topo.with_user_positions(np.array([[5000.0, 0.0]]))
        assert not moved.coverage_mask[:, 0].any()
        assert moved.expected_rates[0, 0] == 0.0
        # Original untouched.
        assert topo.coverage_mask[:, 0].tolist() == [True]

    def test_wrong_count_rejected(self):
        topo = make_topology([Point(0, 0)], [Point(50, 0)])
        with pytest.raises(TopologyError, match=r"shape \(1, 2\)"):
            topo.with_user_positions(np.array([[0.0, 0.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(2,), (1, 3), (1, 2, 1)])
    def test_wrong_shape_rejected(self, shape):
        topo = make_topology([Point(0, 0)], [Point(50, 0)])
        with pytest.raises(TopologyError, match=r"shape \(1, 2\)"):
            topo.with_user_positions(np.zeros(shape))

    def test_moved_positions_are_exact(self):
        topo = make_topology([Point(0, 0)], [Point(50, 0)])
        moved = topo.with_user_positions(np.array([[0.1, 0.7]]))
        assert moved.users[0].position == Point(0.1, 0.7)
