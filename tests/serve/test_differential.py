"""Differential test of the resident service against from-scratch solves.

Hypothesis draws event sequences, adversarial ones included: every
requester of a model departs (a zero-demand column), popularity factor
0, a capacity of exactly one model's size, and capacity 0. After every
event the service must equal a from-scratch solve of the mutated
scenario (``==``, no tolerance), its resident base tracker must equal a
fresh tracker on the mutated instance, and its counters must add up to
the events processed. Both feasibility forms of the scenario's instance
(CSR artifact and dense tensor) are exercised.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.objective import CoverageTracker
from repro.errors import ReproError
from repro.serve import Event, PlacementService, resolve_from_scratch

from tests.conftest import FEASIBILITY_FORMS

PAIRS = [
    (solver, feasibility)
    for solver in ("gen", "independent")
    for feasibility in FEASIBILITY_FORMS
]


def _event_batches(scenario):
    """Strategy for one step: a list of events applied back to back."""
    num_servers = scenario.instance.num_servers
    num_users = scenario.instance.num_users
    num_models = scenario.instance.num_models
    sizes = scenario.library.model_size_array
    original = np.asarray(scenario.instance.capacities, dtype=np.int64)
    user = st.integers(0, num_users - 1)
    model = st.integers(0, num_models - 1)
    server = st.integers(0, num_servers - 1)

    def capacity(pair):
        server_index, choice = pair
        kind, model_index = choice
        if kind == "zero":
            value = 0
        elif kind == "one_model":
            value = int(sizes[model_index])
        else:
            value = int(original[server_index] * kind)
        return [
            Event(
                kind="capacity_change",
                server=server_index,
                capacity_bytes=value,
            )
        ]

    def starve(model_index):
        requesters = np.flatnonzero(scenario.demand[:, model_index] > 0)
        return [Event(kind="user_depart", user=int(k)) for k in requesters]

    return st.one_of(
        user.map(lambda k: [Event(kind="user_depart", user=k)]),
        user.map(lambda k: [Event(kind="user_arrive", user=k)]),
        model.map(starve),
        st.tuples(
            model, st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0])
        ).map(
            lambda pair: [
                Event(kind="popularity_update", model=pair[0], factor=pair[1])
            ]
        ),
        st.tuples(
            server,
            st.tuples(
                st.sampled_from(["zero", "one_model", 0.5, 1.5]), model
            ),
        ).map(capacity),
    )


def _assert_tracker_fresh(service):
    fresh = CoverageTracker(service.instance)
    base = service.base_tracker
    assert np.array_equal(base.served, fresh.served)
    assert np.array_equal(base.unserved_demand(), fresh.unserved_demand())
    assert np.array_equal(base.gain_matrix(), fresh.gain_matrix())


@pytest.mark.parametrize("solver,feasibility", PAIRS)
def test_service_equals_scratch_after_every_event(
    micro_scenarios, solver, feasibility
):
    micro_scenario = micro_scenarios[feasibility]
    batches = _event_batches(micro_scenario)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps=st.lists(batches, min_size=1, max_size=5))
    def check(steps):
        service = PlacementService(micro_scenario, solver=solver)
        accepted = []
        observed = []
        for event in (event for batch in steps for event in batch):
            before = service.hit_ratio
            try:
                result = service.process(event)
            except ReproError:
                # Refused (e.g. it would leave no demand at all): nothing
                # changed, and the reference never sees the event.
                assert service.hit_ratio == before
                continue
            accepted.append(event)
            observed.append(
                (result.hit_ratio, service.state.placement.matrix.copy())
            )
            _assert_tracker_fresh(service)
            assert sum(service.counters.values()) == service.events_processed
        assert service.events_processed == len(accepted)
        records = resolve_from_scratch(micro_scenario, accepted, solver=solver)
        for step, (record, (ratio, matrix)) in enumerate(zip(records, observed)):
            assert ratio == record.hit_ratio, (step, accepted[step])
            assert np.array_equal(matrix, record.placement.matrix), (
                step,
                accepted[step],
            )

    check()
