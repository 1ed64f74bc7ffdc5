"""Absolute pins of the user population the scenario build draws.

``tests/golden/scenario_population.json`` holds, per case, sha256
digests of the user positions as a ``(K, 2)`` float64 array and of the
topology's ``deadlines_matrix``, ``inference_matrix`` and
``active_probabilities``, plus the scenario's ``demand`` matrix. The
cases cover both RNG schemes: the fig4a-spec and serve-churn perfbench
base scenarios, a v1 build with one shared popularity ranking, v2 with
and without per-user request subsets, a chunked v2 build, and the
distances of one moved-users snapshot. Any change to how the population
is drawn or held must reproduce these arrays bit for bit.

Regenerate (only when the scenario draws change on purpose)::

    PYTHONPATH=src python tests/sim/test_scenario_population_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.sim.config import ScenarioConfig
from repro.sim.experiments import fig4a_plan
from repro.sim.runner import scenario_seed
from repro.sim.scenario import build_scenario
from repro.utils.units import GB

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "golden" / "scenario_population.json"
)

_SMALL = dict(num_servers=6, num_users=40, num_models=24)


def _fig4a_spec():
    plan = fig4a_plan(num_topologies=1, capacities_gb=(0.5,))
    return build_scenario(plan.base_config(), scenario_seed(0, 0, 0))


def _serve_churn():
    config = ScenarioConfig(
        num_servers=30,
        num_users=200,
        num_models=120,
        requests_per_user=30,
        storage_bytes=int(0.06 * GB),
    )
    return build_scenario(config, seed=0)


def _v1_shared_ranking():
    config = ScenarioConfig(**_SMALL, per_user_popularity=False)
    return build_scenario(config, seed=5)


def _v2_full_rows():
    config = ScenarioConfig(**_SMALL, rng_scheme="v2")
    return build_scenario(config, seed=6)


def _v2_subsets():
    config = ScenarioConfig(**_SMALL, rng_scheme="v2", requests_per_user=9)
    return build_scenario(config, seed=7)


def _v2_chunked():
    config = ScenarioConfig(
        **_SMALL, rng_scheme="v2", requests_per_user=9, chunk_size=7
    )
    return build_scenario(config, seed=7)


CASES = {
    "fig4a-spec": _fig4a_spec,
    "serve-churn": _serve_churn,
    "v1-shared-ranking": _v1_shared_ranking,
    "v2-full-rows": _v2_full_rows,
    "v2-subsets": _v2_subsets,
    "v2-chunk-7": _v2_chunked,
}


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _user_positions(topology) -> np.ndarray:
    return np.array(
        [user.position.as_array() for user in topology.users], dtype=np.float64
    )


def population_digests(name: str) -> dict:
    """The pinned digests of one scenario case."""
    scenario = CASES[name]()
    topology = scenario.topology
    return {
        "positions_sha256": _sha256(_user_positions(topology)),
        "deadlines_sha256": _sha256(topology.deadlines_matrix),
        "inference_sha256": _sha256(topology.inference_matrix),
        "active_probabilities_sha256": _sha256(topology.active_probabilities),
        "demand_sha256": _sha256(scenario.demand),
    }


def moved_snapshot_digests() -> dict:
    """Distances of the serve-churn topology after one seeded move."""
    topology = _serve_churn().topology
    rng = np.random.default_rng(13)
    moved = np.clip(
        _user_positions(topology) + rng.normal(0.0, 40.0, (topology.num_users, 2)),
        0.0,
        1000.0,
    )
    snapshot = topology.with_user_positions(moved)
    return {
        "positions_sha256": _sha256(_user_positions(snapshot)),
        "distances_sha256": _sha256(snapshot.distances),
    }


def all_digests() -> dict:
    golden = {name: population_digests(name) for name in sorted(CASES)}
    golden["moved-snapshot"] = moved_snapshot_digests()
    return golden


@pytest.mark.parametrize("name", sorted(CASES))
def test_population_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert population_digests(name) == golden[name]


def test_moved_snapshot_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert moved_snapshot_digests() == golden["moved-snapshot"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(all_digests(), indent=1) + "\n")
