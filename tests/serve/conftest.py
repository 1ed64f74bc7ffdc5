"""Fixtures for the serving-layer tests.

The scenarios are session-scoped and read-only: every
:class:`~repro.serve.service.PlacementService` (and the from-scratch
reference path) takes private copies of the demand/capacity arrays, so
sharing one built scenario across tests is safe.
"""

from __future__ import annotations

import pytest

from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario
from repro.utils.units import GB


#: Small, tight-storage scenario where placements are non-trivial.
SERVE_CONFIG = ScenarioConfig(
    num_servers=6,
    num_users=40,
    num_models=24,
    requests_per_user=8,
    storage_bytes=int(0.12 * GB),
)

#: Very small scenario for HTTP/CLI smoke tests (fast solves).
MICRO_CONFIG = ScenarioConfig(
    num_servers=3,
    num_users=12,
    num_models=9,
    requests_per_user=4,
    storage_bytes=int(0.09 * GB),
)

@pytest.fixture(scope="session")
def serve_scenario():
    """Small, tight-storage scenario where placements are non-trivial."""
    return build_scenario(SERVE_CONFIG, seed=7)


@pytest.fixture(scope="session")
def serve_scenarios(serve_scenario):
    """``serve_scenario`` keyed by feasibility form."""
    return {
        "sparse": serve_scenario,
        "dense": build_scenario(SERVE_CONFIG, seed=7, feasibility="dense"),
    }


@pytest.fixture(scope="session")
def micro_scenario():
    """Very small scenario for HTTP/CLI smoke tests (fast solves)."""
    return build_scenario(MICRO_CONFIG, seed=3)


@pytest.fixture(scope="session")
def micro_scenarios(micro_scenario):
    """``micro_scenario`` keyed by feasibility form."""
    return {
        "sparse": micro_scenario,
        "dense": build_scenario(MICRO_CONFIG, seed=3, feasibility="dense"),
    }
