"""Shared fixtures: hand-built tiny libraries and small scenarios."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.placement import Placement, PlacementInstance
from repro.models.blocks import ParameterBlock
from repro.models.library import ModelLibrary
from repro.models.model import Model
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import Scenario, build_scenario
from repro.utils.units import GB, MB


@pytest.fixture
def tiny_library() -> ModelLibrary:
    """Three models over five blocks with one shared prefix.

    * block 0 (10 MB) shared by models 0 and 1;
    * blocks 1, 2 (5 MB each) specific to models 0, 1;
    * blocks 3, 4 (8 + 2 MB) forming the standalone model 2.
    """
    blocks = [
        ParameterBlock(0, 10 * MB, name="shared.base"),
        ParameterBlock(1, 5 * MB, name="m0.head"),
        ParameterBlock(2, 5 * MB, name="m1.head"),
        ParameterBlock(3, 8 * MB, name="m2.backbone"),
        ParameterBlock(4, 2 * MB, name="m2.head"),
    ]
    models = [
        Model(0, (0, 1), name="m0"),
        Model(1, (0, 2), name="m1"),
        Model(2, (3, 4), name="m2"),
    ]
    return ModelLibrary(blocks, models)


def make_instance(
    library: ModelLibrary,
    demand: np.ndarray,
    feasible: np.ndarray,
    capacities,
) -> PlacementInstance:
    """Thin helper so tests construct instances in one line."""
    return PlacementInstance(library, demand, feasible, capacities)


def placement_of(num_servers: int, num_models: int, server_sets) -> Placement:
    """A placement from ``{server: model indices}``."""
    matrix = np.zeros((num_servers, num_models), dtype=bool)
    for server, indices in server_sets.items():
        matrix[server, list(indices)] = True
    return Placement(matrix)


#: The two forms an instance's feasibility can be built from: the dense
#: ``(M, K, I)`` tensor, from which the coverage kernel derives the CSR
#: artifact lazily, or the CSR artifact itself (what scenarios build).
FEASIBILITY_FORMS = ("dense", "sparse")


def in_feasibility_form(instance: PlacementInstance, form: str) -> PlacementInstance:
    """The same instance, built from its dense tensor or its CSR artifact."""
    feasible = instance.feasible if form == "dense" else instance.sparse_feasible
    return PlacementInstance(
        instance.library, instance.demand, feasible, instance.capacities
    )


@pytest.fixture
def tiny_instance(tiny_library) -> PlacementInstance:
    """Two servers, two users, three models; everything feasible.

    Capacities: server 0 fits models 0+1 deduplicated (20 MB), server 1
    fits only model 2 (10 MB).
    """
    demand = np.array(
        [
            [0.5, 0.3, 0.2],
            [0.1, 0.4, 0.5],
        ]
    )
    feasible = np.ones((2, 2, 3), dtype=bool)
    return make_instance(tiny_library, demand, feasible, [20 * MB, 10 * MB])


@pytest.fixture(scope="session")
def small_scenario() -> Scenario:
    """A loose-capacity special-case scenario (session-scoped: read-only)."""
    config = ScenarioConfig(num_servers=3, num_users=8, num_models=9)
    return build_scenario(config, seed=7)


@pytest.fixture(scope="session")
def tight_scenario() -> Scenario:
    """A tight-capacity scenario where algorithms meaningfully differ."""
    config = ScenarioConfig(
        num_servers=3,
        num_users=8,
        num_models=9,
        storage_bytes=int(0.12 * GB),
    )
    return build_scenario(config, seed=11)


@pytest.fixture(scope="session")
def general_scenario() -> Scenario:
    """A general-case (two-round library) scenario."""
    config = ScenarioConfig(
        num_servers=3,
        num_users=8,
        num_models=12,
        storage_bytes=int(0.25 * GB),
        library_case="general",
    )
    return build_scenario(config, seed=13)
