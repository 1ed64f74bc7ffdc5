"""Absolute pins for Spec: committed placements on seeded instances.

The equivalence suite compares Spec with the retained seed code in the
same process, which cannot catch a drift in a dependency both share.
These placements are committed as plain ``(server, model)`` pairs in
``tests/golden/spec_placements.json``; any change to them is a change
to Spec's results.

Regenerate (only for a deliberate result change, with a
``CODE_VERSION_SALT`` bump) by running this file as a script from the
repo root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import run_plan
from repro.core.spec import TrimCachingSpec
from repro.sim.experiments import fig4a_plan
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario
from repro.utils.units import GB

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "spec_placements.json"

#: name -> (scenario config, scenario seed, Spec keyword arguments).
CASES = {
    "special-m4-i30-q0.5": (
        ScenarioConfig(num_servers=4, num_users=20, num_models=30,
                       storage_bytes=int(0.5 * GB)),
        101,
        {},
    ),
    "special-m6-i40-q0.75": (
        ScenarioConfig(num_servers=6, num_users=30, num_models=40,
                       storage_bytes=int(0.75 * GB)),
        202,
        {},
    ),
    "special-m3-i12-q0.2-exact": (
        ScenarioConfig(num_servers=3, num_users=10, num_models=12,
                       storage_bytes=int(0.2 * GB)),
        303,
        {"epsilon": 0.0},
    ),
}


def spec_placement(name):
    config, seed, knobs = CASES[name]
    instance = build_scenario(config, seed=seed).instance
    placement = TrimCachingSpec(**knobs).solve(instance).placement
    return sorted(
        [int(server), int(model)] for server, model in zip(*placement.matrix.nonzero())
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_spec_placement_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert spec_placement(name) == golden[name]


def test_knapsack_memo_counts_at_fig4a_smallest_capacity(monkeypatch):
    """Spec's memo counts on one fixed solve: Fig. 4a's 0.5 GB point,
    seed 0, topology 0. They move if the set of knapsacks Spec runs, or
    the way a hit, a miss or a blown table is counted, changes."""
    stats = []
    solve = TrimCachingSpec.solve

    def record(self, instance):
        result = solve(self, instance)
        stats.append(result.stats)
        return result

    monkeypatch.setattr(TrimCachingSpec, "solve", record)
    run_plan(fig4a_plan(num_topologies=1, capacities_gb=(0.5,), seed=0))
    [solve_stats] = stats
    assert solve_stats["knapsack_cache_hits"] == 271
    assert solve_stats["knapsack_cache_misses"] == 102


if __name__ == "__main__":
    GOLDEN.write_text(
        "{\n"
        + ",\n".join(
            f" {json.dumps(name)}: {json.dumps(spec_placement(name))}"
            for name in sorted(CASES)
        )
        + "\n}\n"
    )
