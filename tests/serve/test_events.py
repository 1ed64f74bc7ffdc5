"""Event model: validation, JSON round-trips, the seeded generator."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.placement import PlacementInstance
from repro.errors import ServeError
from repro.serve import Event, EventTrace, apply_event, generate_event_trace
from repro.serve.events import TRACE_FORMAT


def carrier_for(scenario) -> PlacementInstance:
    source = scenario.instance
    return PlacementInstance(
        library=scenario.library,
        demand=scenario.demand.copy(),
        feasible=source.sparse_feasible,
        capacities=np.asarray(source.capacities, dtype=np.int64).copy(),
    )


class TestEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServeError, match="unknown event kind"):
            Event(kind="user_teleport", user=0)

    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            ("user_arrive", {}),
            ("user_depart", {}),
            ("capacity_change", {"server": 0}),
            ("capacity_change", {"capacity_bytes": 10}),
            ("popularity_update", {"model": 1}),
            ("popularity_update", {"factor": 2.0}),
        ],
    )
    def test_missing_required_field_rejected(self, kind, kwargs):
        with pytest.raises(ServeError, match="requires"):
            Event(kind=kind, **kwargs)

    def test_dict_round_trip(self):
        event = Event(kind="capacity_change", server=2, capacity_bytes=123456)
        payload = event.to_dict()
        assert payload == {
            "kind": "capacity_change",
            "server": 2,
            "capacity_bytes": 123456,
        }
        assert Event.from_dict(payload) == event

    def test_from_dict_tolerates_extra_keys(self):
        event = Event.from_dict(
            {"kind": "popularity_update", "model": 3, "factor": 1.5, "x": 1}
        )
        assert event == Event(kind="popularity_update", model=3, factor=1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "user_depart", "user": 1.5},
            {"kind": "user_depart", "user": True},
            {"kind": "user_arrive", "user": np.float64(1.0)},
            {"kind": "popularity_update", "model": "3", "factor": 1.5},
            {"kind": "capacity_change", "server": 0, "capacity_bytes": 2.0},
            {"kind": "popularity_update", "model": 3, "factor": "1.5"},
            {"kind": "popularity_update", "model": 3, "factor": True},
            {"kind": "popularity_update", "model": 3, "factor": float("inf")},
        ],
    )
    def test_non_integer_ids_and_bad_factors_refused(self, kwargs):
        with pytest.raises(ServeError):
            Event(**kwargs)
        with pytest.raises(ServeError):
            Event.from_dict(kwargs)

    def test_numpy_values_stored_as_python_numbers(self):
        event = Event(
            kind="popularity_update", model=np.int64(3), factor=np.float32(0.5)
        )
        assert type(event.model) is int and type(event.factor) is float
        assert event == Event(kind="popularity_update", model=3, factor=0.5)
        json.dumps(event.to_dict())

    def test_from_dict_rejects_non_dict_and_missing(self):
        with pytest.raises(ServeError):
            Event.from_dict(["user_depart"])
        with pytest.raises(ServeError, match="requires"):
            Event.from_dict({"kind": "user_depart"})


class TestEventTrace:
    def test_json_round_trip_is_exact(self, serve_scenario):
        trace = generate_event_trace(serve_scenario, 20, seed=5)
        restored = EventTrace.from_json(trace.to_json(indent=2))
        assert restored == trace
        assert restored.seed == 5

    def test_json_payload_shape(self):
        trace = EventTrace(
            events=(Event(kind="user_depart", user=1),), seed=9, name="t"
        )
        payload = json.loads(trace.to_json())
        assert payload["format"] == TRACE_FORMAT
        assert payload["seed"] == 9
        assert payload["events"] == [{"kind": "user_depart", "user": 1}]

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ServeError, match="invalid event-trace JSON"):
            EventTrace.from_json("{not json")
        with pytest.raises(ServeError, match="not an event trace"):
            EventTrace.from_json(json.dumps({"format": "other"}))
        with pytest.raises(ServeError, match="'events' list"):
            EventTrace.from_json(
                json.dumps({"format": TRACE_FORMAT, "events": "nope"})
            )

    def test_sequence_protocol(self):
        events = (
            Event(kind="user_depart", user=0),
            Event(kind="user_arrive", user=0),
        )
        trace = EventTrace(events=events)
        assert len(trace) == 2
        assert trace[1] == events[1]
        assert tuple(trace) == events


class TestGenerator:
    def test_deterministic_per_seed(self, serve_scenario):
        first = generate_event_trace(serve_scenario, 30, seed=11)
        second = generate_event_trace(serve_scenario, 30, seed=11)
        other = generate_event_trace(serve_scenario, 30, seed=12)
        assert first == second
        assert first != other

    def test_mixes_all_kinds(self, serve_scenario):
        trace = generate_event_trace(serve_scenario, 60, seed=1)
        kinds = {event.kind for event in trace}
        assert kinds == {
            "user_arrive",
            "user_depart",
            "capacity_change",
            "popularity_update",
        }

    def test_depart_only_weights_respect_min_active(self, serve_scenario):
        num_users = serve_scenario.instance.num_users
        trace = generate_event_trace(
            serve_scenario,
            3 * num_users,
            seed=2,
            weights=(0.0, 1.0, 0.0, 0.0),
            min_active_users=2,
        )
        departed = set()
        for event in trace:
            if event.kind == "user_depart":
                departed.add(event.user)
            elif event.kind == "user_arrive":
                departed.discard(event.user)
        assert num_users - len(departed) >= 2

    def test_arrive_without_departed_falls_back_to_depart(self, serve_scenario):
        trace = generate_event_trace(
            serve_scenario, 1, seed=4, weights=(1.0, 0.0, 0.0, 0.0)
        )
        assert trace[0].kind == "user_depart"

    def test_validation(self, serve_scenario):
        with pytest.raises(ServeError, match="non-negative"):
            generate_event_trace(serve_scenario, -1)
        with pytest.raises(ServeError, match="entries"):
            generate_event_trace(serve_scenario, 5, weights=(1.0,))
        with pytest.raises(ServeError, match="non-negative"):
            generate_event_trace(serve_scenario, 5, weights=(1, 1, 1, -1))


class TestApplyEvent:
    def test_depart_zeroes_row(self, serve_scenario):
        carrier = carrier_for(serve_scenario)
        nonzero = np.flatnonzero(carrier.demand[3])
        changed, capacity_changed = apply_event(
            carrier, Event(kind="user_depart", user=3), serve_scenario.demand
        )
        assert not capacity_changed
        assert np.array_equal(changed, nonzero)
        assert not carrier.demand[3].any()

    def test_arrive_restores_original_row(self, serve_scenario):
        carrier = carrier_for(serve_scenario)
        apply_event(
            carrier, Event(kind="user_depart", user=5), serve_scenario.demand
        )
        changed, _ = apply_event(
            carrier, Event(kind="user_arrive", user=5), serve_scenario.demand
        )
        assert changed.size
        assert np.array_equal(carrier.demand[5], serve_scenario.demand[5])

    def test_arrive_for_active_user_changes_nothing(self, serve_scenario):
        carrier = carrier_for(serve_scenario)
        changed, capacity_changed = apply_event(
            carrier, Event(kind="user_arrive", user=0), serve_scenario.demand
        )
        assert changed.size == 0 and not capacity_changed

    def test_capacity_change(self, serve_scenario):
        carrier = carrier_for(serve_scenario)
        changed, capacity_changed = apply_event(
            carrier,
            Event(kind="capacity_change", server=1, capacity_bytes=12345),
            serve_scenario.demand,
        )
        assert capacity_changed and changed.size == 0
        assert int(carrier.capacities[1]) == 12345

    def test_arrive_out_of_range_rejected(self, serve_scenario):
        carrier = carrier_for(serve_scenario)
        with pytest.raises(ServeError, match="out of range"):
            apply_event(
                carrier,
                Event(kind="user_arrive", user=10_000),
                serve_scenario.demand,
            )
