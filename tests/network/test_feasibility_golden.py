"""Absolute pins of the feasibility CSR the scenario build emits.

``tests/golden/feasibility_csr.json`` holds, per case, the shape, the
nonzero count and sha256 digests of ``pair_indptr``, ``entry_users`` and
``entry_servers`` (their raw bytes, so the dtypes are pinned too). The
cases are the base scenarios of the four perfbench workloads, one
chunked ``rng_scheme="v2"`` scenario and one seeded Rayleigh-faded
realisation built with the expected-order hint, the path Monte-Carlo
evaluation takes. Any change to how ``I1`` is assembled must reproduce
these arrays bit for bit.

Regenerate (only when the feasibility model changes on purpose)::

    PYTHONPATH=src python tests/network/test_feasibility_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.sparse import SparseFeasibility
from repro.network.channel import ChannelModel
from repro.sim.config import ScenarioConfig
from repro.sim.experiments import fig4a_plan, fig5a_plan, fig7_plan
from repro.sim.runner import scenario_seed, study_seed
from repro.sim.scenario import build_scenario
from repro.utils.units import GB

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "golden" / "feasibility_csr.json"
)


def _fig5a_scenario():
    plan = fig5a_plan(num_topologies=2, scale=1.0, workers=2)
    return build_scenario(plan.base_config(), scenario_seed(0, 0, 0))


def _fig4a_spec() -> SparseFeasibility:
    plan = fig4a_plan(num_topologies=1, capacities_gb=(0.5,))
    scenario = build_scenario(plan.base_config(), scenario_seed(0, 0, 0))
    return scenario.instance.sparse_feasible


def _fig5a_grid() -> SparseFeasibility:
    return _fig5a_scenario().instance.sparse_feasible


def _fig7_mobility() -> SparseFeasibility:
    plan = fig7_plan(num_runs=1)
    scenario = build_scenario(plan.base_config(), study_seed(0, 0))
    return scenario.instance.sparse_feasible


def _serve_churn() -> SparseFeasibility:
    config = ScenarioConfig(
        num_servers=30,
        num_users=200,
        num_models=120,
        requests_per_user=30,
        storage_bytes=int(0.06 * GB),
    )
    return build_scenario(config, seed=0).instance.sparse_feasible


def _v2_chunked() -> SparseFeasibility:
    config = ScenarioConfig(
        num_servers=12,
        num_users=100,
        num_models=40,
        rng_scheme="v2",
        chunk_size=16,
    )
    return build_scenario(config, seed=3).instance.sparse_feasible


def _faded_realisation() -> SparseFeasibility:
    scenario = _fig5a_scenario()
    topology = scenario.topology
    latency = scenario.latency_model
    gains = ChannelModel.sample_rayleigh_gains(
        (topology.num_servers, topology.num_users), np.random.default_rng(11)
    )
    return latency.feasibility_sparse(
        topology.faded_rates(gains),
        server_order_hint=latency.expected_server_order(),
    )


CASES = {
    "fig4a-spec": _fig4a_spec,
    "fig5a-grid": _fig5a_grid,
    "fig7-mobility": _fig7_mobility,
    "serve-churn": _serve_churn,
    "v2-chunked": _v2_chunked,
    "faded-hinted": _faded_realisation,
}


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def csr_digests(name: str) -> dict:
    """The pinned digests of one golden case."""
    sparse = CASES[name]()
    return {
        "shape": list(sparse.shape),
        "nnz": sparse.nnz,
        "pair_indptr_sha256": _sha256(sparse.pair_indptr),
        "entry_users_sha256": _sha256(sparse.entry_users),
        "entry_servers_sha256": _sha256(sparse.entry_servers),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_feasibility_csr_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert csr_digests(name) == golden[name]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: csr_digests(name) for name in sorted(CASES)}, indent=1)
        + "\n"
    )
