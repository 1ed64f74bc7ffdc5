"""Scenario assembly: config + RNG -> one solvable snapshot.

A :class:`Scenario` bundles the network topology, model library, demand
matrix and the derived :class:`~repro.core.placement.PlacementInstance`.
Construction is fully deterministic given ``(config, seed)``; independent
seeds yield the independent topologies the paper averages over.

Instances are built *sparse-primary* by default: the feasibility
indicator is produced as a :class:`~repro.core.sparse.SparseFeasibility`
CSR artifact (the ``(M, K, I)`` float latency tensor is never
materialised) and the dense boolean tensor is derived lazily only if a
dense consumer asks for it. The CSR encodes a bit-identical indicator,
so this is purely a representation change.

Under both RNG schemes the user population is one
:class:`~repro.network.users.UserBatch` of ``(K, 2)`` positions and
``(K, I)`` QoS matrices; no per-user ``User`` object is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.placement import PlacementInstance
from repro.models.generators import (
    GeneralCaseConfig,
    SpecialCaseConfig,
    build_general_case_library,
    build_special_case_library,
)
from repro.models.library import ModelLibrary
from repro.models.popularity import ZipfPopularity
from repro.network.backhaul import Backhaul
from repro.network.channel import ChannelModel
from repro.network.geometry import uniform_coords, uniform_points
from repro.network.latency import LatencyModel
from repro.network.servers import EdgeServer
from repro.network.topology import NetworkTopology
from repro.network.users import UserBatch
from repro.sim.config import ScenarioConfig
from repro.utils.rng import RngFactory


@dataclass
class Scenario:
    """One fully materialised simulation snapshot."""

    config: ScenarioConfig
    topology: NetworkTopology
    library: ModelLibrary
    demand: np.ndarray
    latency_model: LatencyModel
    instance: PlacementInstance
    seed: Optional[int] = None

    @property
    def num_servers(self) -> int:
        """``M``."""
        return self.topology.num_servers

    @property
    def num_users(self) -> int:
        """``K``."""
        return self.topology.num_users

    @property
    def num_models(self) -> int:
        """``I``."""
        return self.library.num_models

    def rebuild_instance(self, topology: NetworkTopology) -> PlacementInstance:
        """A new instance for moved users (same library/demand/capacity)."""
        latency = LatencyModel(topology, self.instance.model_sizes)
        return PlacementInstance(
            library=self.library,
            demand=self.demand,
            feasible=latency.feasibility_sparse(),
            capacities=self.instance.capacities,
        )


def build_library(config: ScenarioConfig, seed) -> ModelLibrary:
    """Build the library dictated by ``config.library_case``."""
    if config.library_case == "special":
        return build_special_case_library(
            SpecialCaseConfig(num_models=config.num_models), seed
        )
    return build_general_case_library(
        GeneralCaseConfig(num_models=config.num_models), seed
    )


def _build_demand(config: ScenarioConfig, rng) -> np.ndarray:
    """Zipf demand, optionally restricted to per-user request subsets.

    The paper's per-figure "I = 30" denotes how many models each user may
    request from the (much larger) library; requests within the subset
    are Zipf-distributed and each row sums to one.

    ``rng_scheme="v1"`` is the seed's per-user draw order, verbatim —
    default series depend on it bit-for-bit. ``"v2"`` draws the same
    distributions in batched passes (:func:`_build_demand_v2`).
    """
    if config.rng_scheme == "v2":
        return _build_demand_v2(config, rng)
    popularity = ZipfPopularity(
        exponent=config.zipf_exponent,
        per_user_permutation=config.per_user_popularity,
    )
    if config.requests_per_user is None:
        return popularity.probabilities(
            config.num_users, config.num_models, rng
        )
    subset_size = config.requests_per_user
    compact = popularity.probabilities(config.num_users, subset_size, rng)
    demand = np.zeros((config.num_users, config.num_models))
    for user in range(config.num_users):
        chosen = rng.choice(config.num_models, size=subset_size, replace=False)
        demand[user, chosen] = compact[user]
    return demand


def _build_demand_v2(config: ScenarioConfig, rng) -> np.ndarray:
    """Batched Zipf demand (``rng_scheme="v2"``), in user blocks.

    Each user's subset is the head of one ``rng.permuted`` row shuffle of
    ``arange(I)``: an ordered uniform sample without replacement, exactly
    the distribution of the v1 per-user ``rng.choice(..., replace=False)``
    calls. A ``put_along_axis`` gather scatters the compact Zipf rows into
    the full demand matrix.

    ``config.chunk_size`` rows form a block (``None``: one block of all
    K). ``rng.permuted`` shuffles each row with its own pass, so a block
    consumes exactly the stream the whole matrix would spend on its rows
    and every block size gives the same matrix — provided the *stage*
    order holds: all popularity rows first, then all subset permutations.
    The compact Zipf rows persist between the two stages; the tiled
    shuffle scratch is one block.
    """
    popularity = ZipfPopularity(
        exponent=config.zipf_exponent,
        per_user_permutation=config.per_user_popularity,
    )
    num_users, chunk_size = config.num_users, config.chunk_size
    if config.requests_per_user is None:
        return popularity.probabilities_batched(
            num_users, config.num_models, rng, chunk_size
        )
    subset_size = config.requests_per_user
    compact = popularity.probabilities_batched(
        num_users, subset_size, rng, chunk_size
    )
    demand = np.zeros((num_users, config.num_models))
    step = chunk_size or num_users
    for start in range(0, num_users, step):
        stop = min(start + step, num_users)
        shuffled = rng.permuted(
            np.tile(np.arange(config.num_models), (stop - start, 1)), axis=1
        )
        np.put_along_axis(
            demand[start:stop],
            shuffled[:, :subset_size],
            compact[start:stop],
            axis=1,
        )
    return demand


def build_scenario(
    config: ScenarioConfig = ScenarioConfig(),
    seed: Optional[int] = 0,
    library: Optional[ModelLibrary] = None,
    feasibility: str = "sparse",
) -> Scenario:
    """Materialise one snapshot of the paper's §VII-A setup.

    Parameters
    ----------
    config:
        Scenario knobs.
    seed:
        Root seed; child streams are derived per component, so two
        scenarios differing only in the seed share no randomness.
    library:
        Reuse an existing library instead of generating one (the paper
        fixes the library across topologies; the sweep runner uses this).
    feasibility:
        ``"sparse"`` (default) stores the indicator as a CSR artifact;
        ``"dense"`` materialises the seed's boolean tensor up front. The
        two instances are interchangeable (bit-identical indicator);
        ``"dense"`` exists for benchmarking the pre-sparse pipeline.
    """
    if feasibility not in ("sparse", "dense"):
        raise ValueError(
            f"feasibility must be 'sparse' or 'dense', got {feasibility!r}"
        )
    chunked = config.rng_scheme == "v2" and config.chunk_size is not None
    if chunked and feasibility != "sparse":
        raise ValueError(
            "chunk_size requires feasibility='sparse': the dense tensor "
            "the chunked build exists to avoid cannot be materialised"
        )
    factory = RngFactory(seed)
    if library is None:
        library = build_library(config, factory.child("library"))
    if library.num_models != config.num_models:
        # The caller supplied a pre-built library; follow its size.
        config = config.with_overrides(num_models=library.num_models)

    channel = ChannelModel(
        antenna_gain=config.antenna_gain,
        path_loss_exponent=config.path_loss_exponent,
    )
    backhaul = Backhaul(default_rate_bps=config.backhaul_rate_bps)

    server_positions = uniform_points(
        config.num_servers, config.area_side_m, factory.child("server-positions")
    )
    capacities = (
        list(config.storage_bytes_per_server)
        if config.storage_bytes_per_server is not None
        else [config.storage_bytes] * config.num_servers
    )
    servers = [
        EdgeServer(
            server_id=index,
            position=position,
            storage_bytes=capacities[index],
            total_bandwidth_hz=config.total_bandwidth_hz,
            total_power_watts=config.total_power_watts,
            coverage_radius_m=config.coverage_radius_m,
        )
        for index, position in enumerate(server_positions)
    ]

    user_coords = uniform_coords(
        config.num_users, config.area_side_m, factory.child("user-positions")
    )
    qos_rng = factory.child("qos")
    shape = (config.num_users, config.num_models)
    if config.rng_scheme == "v2":
        # Batched QoS: one (K, I) uniform block per quantity. Same
        # distributions as v1, different stream layout.
        deadlines = qos_rng.uniform(*config.deadline_range_s, size=shape)
        inference = qos_rng.uniform(
            *config.inference_latency_range_s, size=shape
        )
    else:
        # The seed's per-user order: user k's deadlines, then its
        # inference times, written into preallocated rows.
        deadlines = np.empty(shape)
        inference = np.empty(shape)
        for user in range(config.num_users):
            deadlines[user] = qos_rng.uniform(
                *config.deadline_range_s, size=config.num_models
            )
            inference[user] = qos_rng.uniform(
                *config.inference_latency_range_s, size=config.num_models
            )
    users = UserBatch(
        user_coords, deadlines, inference, config.active_probability
    )

    from repro import obs

    topology = NetworkTopology(servers, users, channel, backhaul)
    with obs.span("scenario.demand"):
        demand = _build_demand(config, factory.child("demand"))

    sizes = library.model_size_array.astype(float)
    latency_model = LatencyModel(topology, sizes)
    instance = PlacementInstance(
        library=library,
        demand=demand,
        feasible=(
            latency_model.feasibility_sparse_chunked(config.chunk_size)
            if chunked
            else latency_model.feasibility_sparse()
            if feasibility == "sparse"
            else latency_model.feasibility()
        ),
        capacities=capacities,
    )
    return Scenario(
        config=config,
        topology=topology,
        library=library,
        demand=demand,
        latency_model=latency_model,
        instance=instance,
        seed=seed,
    )
