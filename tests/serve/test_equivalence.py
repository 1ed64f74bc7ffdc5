"""The pinned serve invariant: served == from-scratch, bit for bit.

After any seeded event sequence, the service's placement and objective
must be ``==``-identical (no tolerance) to solving the mutated scenario
from scratch — for every solver and both feasibility forms of the
scenario's instance, including capacity changes and extreme popularity
swings.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import FEASIBILITY_FORMS

from repro.serve import (
    Event,
    PlacementService,
    generate_event_trace,
    resolve_from_scratch,
)

SOLVERS = ("gen", "independent")

every_pair = pytest.mark.parametrize(
    "solver,feasibility", [(s, f) for s in SOLVERS for f in FEASIBILITY_FORMS]
)


def assert_service_matches_scratch(scenario, trace, solver):
    """Run the trace through the service and the stateless reference."""
    service = PlacementService(scenario, solver=solver)
    results = service.process_trace(trace)
    records = resolve_from_scratch(scenario, trace, solver=solver)
    assert len(results) == len(records)
    for step, (result, record) in enumerate(zip(results, records)):
        assert result.hit_ratio == record.hit_ratio, (
            f"hit ratio diverged at event {step} ({trace[step].kind}): "
            f"served {result.hit_ratio!r} != scratch {record.hit_ratio!r} "
            f"[solver={solver}]"
        )
    assert np.array_equal(
        service.state.placement.matrix, records[-1].placement.matrix
    ), f"final placement diverged [solver={solver}]"
    return service


class TestPinnedEquivalence:
    @every_pair
    def test_mixed_trace_grid(self, serve_scenarios, solver, feasibility):
        scenario = serve_scenarios[feasibility]
        trace = generate_event_trace(scenario, 30, seed=17)
        service = assert_service_matches_scratch(scenario, trace, solver)
        assert service.counters["full"] > 0

    @pytest.mark.parametrize("seed", [1, 23, 61])
    @every_pair
    def test_multiple_seeds(self, serve_scenarios, solver, feasibility, seed):
        scenario = serve_scenarios[feasibility]
        trace = generate_event_trace(scenario, 25, seed=seed)
        assert_service_matches_scratch(scenario, trace, solver)

    @every_pair
    def test_capacity_heavy_trace(self, serve_scenarios, solver, feasibility):
        """Capacity steps dominate the trace."""
        scenario = serve_scenarios[feasibility]
        trace = generate_event_trace(
            scenario, 20, seed=37, weights=(0.1, 0.1, 0.7, 0.1)
        )
        assert sum(e.kind == "capacity_change" for e in trace) >= 10
        assert_service_matches_scratch(scenario, trace, solver)

    @every_pair
    def test_churn_only_trace(self, serve_scenarios, solver, feasibility):
        """Arrivals and departures only."""
        scenario = serve_scenarios[feasibility]
        trace = generate_event_trace(
            scenario, 30, seed=41, weights=(0.5, 0.5, 0.0, 0.0)
        )
        assert_service_matches_scratch(scenario, trace, solver)

    @every_pair
    def test_popularity_swings(self, serve_scenarios, solver, feasibility):
        """Hand-built extreme popularity swings (factors far from 1)."""
        events = [
            Event(kind="popularity_update", model=0, factor=5.0),
            Event(kind="popularity_update", model=3, factor=0.01),
            Event(kind="user_depart", user=2),
            Event(kind="popularity_update", model=0, factor=0.2),
            Event(kind="user_arrive", user=2),
            Event(kind="popularity_update", model=7, factor=3.0),
        ]
        assert_service_matches_scratch(
            serve_scenarios[feasibility], events, solver
        )

    @every_pair
    def test_capacity_then_churn_interleaved(
        self, serve_scenarios, solver, feasibility
    ):
        """Capacity shifts between churn events."""
        scenario = serve_scenarios[feasibility]
        original = np.asarray(scenario.instance.capacities, dtype=np.int64)
        events = [
            Event(kind="user_depart", user=1),
            Event(
                kind="capacity_change",
                server=0,
                capacity_bytes=int(original[0] * 0.6),
            ),
            Event(kind="user_depart", user=9),
            Event(kind="user_arrive", user=1),
            Event(
                kind="capacity_change",
                server=2,
                capacity_bytes=int(original[2] * 1.4),
            ),
            Event(kind="user_arrive", user=9),
            Event(kind="user_depart", user=30),
        ]
        assert_service_matches_scratch(scenario, events, solver)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_feasibility_forms_serve_alike(self, serve_scenarios, solver):
        """A dense-primary scenario and its CSR-primary twin serve the
        same trace to the same hit ratios and final placement."""
        trace = generate_event_trace(serve_scenarios["sparse"], 30, seed=17)
        dense = PlacementService(serve_scenarios["dense"], solver=solver)
        sparse = PlacementService(serve_scenarios["sparse"], solver=solver)
        dense_ratios = [r.hit_ratio for r in dense.process_trace(trace)]
        sparse_ratios = [r.hit_ratio for r in sparse.process_trace(trace)]
        assert dense_ratios == sparse_ratios
        assert np.array_equal(
            dense.state.placement.matrix, sparse.state.placement.matrix
        )
