"""The resident service: construction, routing, re-solve, session API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.objective import hit_ratio as batch_hit_ratio
from repro.errors import ServeError
from repro.serve import (
    Event,
    PlacementService,
    ServiceSession,
    generate_event_trace,
)
from repro.core.gen import TrimCachingGen


class TestConstruction:
    def test_rejects_unknown_solver(self, micro_scenario):
        with pytest.raises(ServeError, match="solvers"):
            PlacementService(micro_scenario, solver="spec")

    @pytest.mark.parametrize("engine", ["compiled", "auto"])
    def test_rejects_unknown_engine(self, micro_scenario, engine):
        with pytest.raises(ServeError, match=r"engines \('dense', 'sparse'\)"):
            PlacementService(micro_scenario, engine=engine)

    def test_initial_solve_matches_batch_solver(self, serve_scenario):
        service = PlacementService(serve_scenario, solver="gen", engine="dense")
        batch = TrimCachingGen(accelerated=True, fill_zero_gain=False).solve(
            serve_scenario.instance
        )
        assert service.hit_ratio == batch.hit_ratio
        assert np.array_equal(
            service.state.placement.matrix, batch.placement.matrix
        )

    def test_scenario_arrays_never_mutated(self, micro_scenario):
        demand_before = micro_scenario.demand.copy()
        capacities_before = np.asarray(
            micro_scenario.instance.capacities
        ).copy()
        service = PlacementService(micro_scenario)
        service.process(Event(kind="user_depart", user=0))
        service.process(
            Event(kind="capacity_change", server=0, capacity_bytes=1)
        )
        assert np.array_equal(micro_scenario.demand, demand_before)
        assert np.array_equal(
            np.asarray(micro_scenario.instance.capacities), capacities_before
        )


class TestRoute:
    def test_route_matches_placement(self, serve_scenario):
        service = PlacementService(serve_scenario)
        instance = service.instance
        placement = service.state.placement.matrix
        feasible = serve_scenario.instance.feasible  # (M, K, I) dense
        for user in range(0, instance.num_users, 7):
            for model in range(0, instance.num_models, 5):
                result = service.route(user, model)
                servers = np.flatnonzero(
                    feasible[:, user, model] & placement[:, model]
                )
                if servers.size:
                    assert result.hit and result.server == int(servers[0])
                else:
                    assert not result.hit and result.server is None

    def test_route_validates_indices(self, micro_scenario):
        service = PlacementService(micro_scenario)
        with pytest.raises(ServeError, match="user"):
            service.route(-1, 0)
        with pytest.raises(ServeError, match="model"):
            service.route(0, 10_000)

    def test_route_to_dict(self, micro_scenario):
        service = PlacementService(micro_scenario)
        payload = service.route(0, 0).to_dict()
        assert set(payload) == {"user", "model", "server", "hit"}


class TestProcess:
    def test_noop_events(self, micro_scenario):
        service = PlacementService(micro_scenario)
        before = service.hit_ratio
        arrive = service.process(Event(kind="user_arrive", user=0))
        scale = service.process(
            Event(kind="popularity_update", model=0, factor=1.0)
        )
        assert arrive.mode == "noop" and scale.mode == "noop"
        assert service.counters["noop"] == 2
        assert service.hit_ratio == before

    def test_capacity_event_resolves(self, micro_scenario):
        service = PlacementService(micro_scenario)
        capacity = int(np.asarray(service.instance.capacities)[0] // 2)
        result = service.process(
            Event(kind="capacity_change", server=0, capacity_bytes=capacity)
        )
        assert result.mode == "full"

    def test_counters_track_modes(self, serve_scenario):
        service = PlacementService(serve_scenario, engine="sparse")
        trace = generate_event_trace(serve_scenario, 20, seed=9)
        results = service.process_trace(trace)
        assert len(results) == 20
        assert service.events_processed == 20
        assert sum(service.counters.values()) == 20
        assert len(service.hit_ratios) == 21  # initial solve + one per event
        modes = {result.mode for result in results}
        assert modes <= {"full", "noop"}
        assert service.counters["replay"] == service.counters["fallback"] == 0

    def test_hit_ratio_stays_consistent_with_placement(self, serve_scenario):
        service = PlacementService(serve_scenario)
        trace = generate_event_trace(serve_scenario, 10, seed=21)
        for event in trace:
            result = service.process(event)
            recomputed = batch_hit_ratio(
                service.instance, service.state.placement
            )
            assert result.hit_ratio == pytest.approx(recomputed, abs=1e-12)

    def test_demand_event_resolves(self, micro_scenario):
        service = PlacementService(micro_scenario)
        result = service.process(Event(kind="user_depart", user=1))
        assert result.mode == "full"
        assert service.counters["full"] == 1

    def test_event_result_to_dict(self, micro_scenario):
        service = PlacementService(micro_scenario)
        payload = service.process(Event(kind="user_depart", user=2)).to_dict()
        assert payload["event"] == {"kind": "user_depart", "user": 2}
        assert set(payload) == {
            "event", "mode", "hit_ratio", "latency_s", "changed_columns"
        }
        assert payload["mode"] == "full"
        assert payload["latency_s"] >= 0


class TestStatus:
    def test_status_payload(self, micro_scenario):
        service = PlacementService(micro_scenario, engine="sparse")
        status = service.status()
        assert status["solver"] == "gen"
        assert status["engine"] == "sparse"
        assert status["num_models"] == micro_scenario.instance.num_models
        assert status["events_processed"] == 0
        assert "policy" not in status

    def test_placement_dict(self, micro_scenario):
        service = PlacementService(micro_scenario)
        payload = service.placement_dict()
        assert payload["hit_ratio"] == service.hit_ratio
        matrix = service.state.placement.matrix
        for server, models in payload["servers"].items():
            assert np.array_equal(
                np.flatnonzero(matrix[int(server)]), np.asarray(models)
            )


class TestServiceSession:
    def test_session_round_trip(self, serve_scenario):
        session = ServiceSession(serve_scenario, engine="sparse")
        baseline = session.hit_ratio
        departed = session.depart(4)
        assert departed.event.kind == "user_depart"
        returned = session.arrive(4)
        assert returned.hit_ratio == baseline
        assert session.route(0, 0).user == 0
        assert session.status()["events_processed"] == 2

    def test_session_capacity_and_popularity(self, micro_scenario):
        session = ServiceSession(micro_scenario)
        capacity = int(np.asarray(session.service.instance.capacities)[1])
        result = session.set_capacity(1, capacity * 2)
        assert result.mode == "full"
        scaled = session.scale_popularity(2, 1.8)
        assert scaled.event.factor == 1.8

    def test_session_apply_trace(self, micro_scenario):
        session = ServiceSession(micro_scenario)
        trace = generate_event_trace(micro_scenario, 6, seed=13)
        results = session.apply(trace)
        assert [r.event for r in results] == list(trace.events)


class TestStatsCounters:
    def test_stats_reflect_processed_events(self, serve_scenario):
        session = ServiceSession(serve_scenario, engine="sparse")
        stats = session.stats()
        assert stats == {
            "replay": 0,
            "fallback": 0,
            "full": 0,
            "noop": 0,
            "events_processed": 0,
        }
        results = session.apply(generate_event_trace(serve_scenario, 8, seed=3))
        stats = session.stats()
        assert stats["events_processed"] == len(results)
        mode_total = (
            stats["replay"] + stats["fallback"] + stats["full"] + stats["noop"]
        )
        assert mode_total == len(results)
        for result in results:
            assert result.mode in ("full", "noop")

    def test_stats_matches_status_counters(self, serve_scenario):
        service = PlacementService(serve_scenario)
        service.process(Event(kind="user_depart", user=1))
        status = service.status()
        stats = service.stats()
        assert stats["events_processed"] == status["events_processed"] == 1
        for key, value in status["counters"].items():
            assert stats[key] == value
