"""Absolute pin for the resident service: committed per-event answers.

``tests/serve/test_differential.py`` compares the service against
:func:`~repro.serve.resolve_from_scratch`, but both run the same
:func:`~repro.core.gen.greedy_place`, so a change inside the shared
greedy loop (the coverage tracker's mark, the block cache's deltas)
would move both sides alike. This file pins the answers themselves.

One seeded scenario at the benchmark's serve size (M=30, K=200, I=120)
replays a 150-event :func:`~repro.serve.generate_event_trace` through a
:class:`~repro.serve.PlacementService` for ``gen`` and for
``independent``. After the initial solve and after every event,
``tests/golden/serve_events.json`` holds the sha256 of the placement
matrix bytes and the ``repr`` of the hit ratio. The keys also name the
coverage engine each pin was captured with (``gen/sparse``,
``independent/dense``); the tracker has one kernel now, which both pin,
so the committed file stays byte-identical.

Regenerate (only for a deliberate result change, with a
``CODE_VERSION_SALT`` bump) by running this file as a script from the
repo root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.serve import PlacementService, generate_event_trace
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario
from repro.utils.units import GB

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "serve_events.json"

SEED = 11
EVENTS = 150
PAIRS = ("gen/sparse", "independent/dense")


def _scenario():
    config = ScenarioConfig(num_servers=30, num_users=200, num_models=120,
                            requests_per_user=30,
                            storage_bytes=int(0.06 * GB))
    return build_scenario(config, seed=SEED)


def _digest(service):
    matrix = np.ascontiguousarray(service.state.placement.matrix, dtype=bool)
    return hashlib.sha256(matrix.tobytes()).hexdigest()


def serve_record(pair):
    """``{"placements": [...], "hit_ratios": [...]}``: the initial solve
    followed by one entry per event."""
    solver = pair.split("/")[0]
    scenario = _scenario()
    events = list(generate_event_trace(scenario, EVENTS, seed=SEED))
    service = PlacementService(scenario, solver=solver)
    placements = [_digest(service)]
    hit_ratios = [repr(service.hit_ratio)]
    for event in events:
        result = service.process(event)
        placements.append(_digest(service))
        hit_ratios.append(repr(result.hit_ratio))
    return {"placements": placements, "hit_ratios": hit_ratios}


@pytest.mark.parametrize("pair", PAIRS)
def test_serve_events_match_golden(pair):
    golden = json.loads(GOLDEN.read_text())[pair]
    record = serve_record(pair)
    assert len(record["placements"]) == EVENTS + 1
    for step, (got, want) in enumerate(
        zip(record["placements"], golden["placements"])
    ):
        assert got == want, f"placement differs after event {step}"
    assert record["hit_ratios"] == golden["hit_ratios"]


def test_golden_trace_changes_the_placement():
    # The pin is only worth keeping if the events move the answer.
    golden = json.loads(GOLDEN.read_text())
    for pair in PAIRS:
        assert len(set(golden[pair]["placements"])) > EVENTS // 5, pair
        assert len(set(golden[pair]["hit_ratios"])) > EVENTS // 2, pair


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({pair: serve_record(pair) for pair in PAIRS},
                                 indent=1) + "\n")
