"""End-to-end pipelines exercising the full public API surface."""

import numpy as np
import pytest

from repro import (
    ExhaustiveSearch,
    FineTuner,
    IndependentCaching,
    PlacementEvaluator,
    PlacementInstance,
    ScenarioConfig,
    TrimCachingGen,
    TrimCachingSpec,
    build_scenario,
    hit_ratio,
    make_resnet_root,
    make_transformer_root,
)
from repro.data.resnet import RESNET18
from repro.data.transformer import TINY_LLM
from repro.models.popularity import ZipfPopularity
from repro.network.latency import LatencyModel
from repro.sim.mobility_eval import MobilityStudy
from repro.utils.units import GB, MB

from tests.oracles.capacity import placement_is_feasible


class TestScenarioPipeline:
    """Scenario -> solve -> evaluate, the quickstart path."""

    def test_full_pipeline(self):
        scenario = build_scenario(
            ScenarioConfig(
                num_servers=3,
                num_users=6,
                num_models=9,
                storage_bytes=int(0.15 * GB),
            ),
            seed=21,
        )
        result = TrimCachingGen().solve(scenario.instance)
        assert placement_is_feasible(scenario.instance, result.placement)

        evaluator = PlacementEvaluator(scenario)
        assert evaluator.expected_hit_ratio(result.placement) == pytest.approx(
            result.hit_ratio
        )
        monte_carlo = evaluator.monte_carlo_hit_ratio(result.placement, 50, seed=0)
        assert 0.0 <= monte_carlo.mean <= 1.0

        study = MobilityStudy(scenario, sample_every=12)
        trace = study.run(result.placement, horizon_s=300.0, seed=0)
        assert len(trace.hit_ratios) >= 2

    def test_all_solvers_agree_on_feasibility(self):
        scenario = build_scenario(
            ScenarioConfig(
                num_servers=2,
                num_users=5,
                num_models=6,
                storage_bytes=int(0.1 * GB),
            ),
            seed=33,
        )
        for solver in (
            TrimCachingSpec(epsilon=0.1),
            TrimCachingSpec(epsilon=0.0),
            TrimCachingGen(),
            TrimCachingGen(accelerated=False),
            IndependentCaching(),
            ExhaustiveSearch(),
        ):
            result = solver.solve(scenario.instance)
            assert placement_is_feasible(scenario.instance, result.placement), (
                solver
            )
            assert 0.0 <= result.hit_ratio <= 1.0


class TestHandBuiltPipeline:
    """Build a custom library + instance without the scenario helper."""

    def test_lora_library_placement(self):
        """LLM/LoRA workload: one backbone, many adapters, tiny storage."""
        root = make_transformer_root(TINY_LLM)
        tuner = FineTuner()
        for index in range(6):
            tuner.lora_for_transformer(root, TINY_LLM, name=f"assistant-{index}", rank=8)
        library = tuner.build()

        num_models = library.num_models
        demand = ZipfPopularity(per_user_permutation=False).probabilities(
            4, num_models, seed=0
        )
        feasible = np.ones((1, 4, num_models), dtype=bool)
        # Capacity: one backbone + all adapters, but NOT two backbones.
        capacity = int(library.model_size(library.model_ids[0]) * 1.2)
        instance = PlacementInstance(library, demand, feasible, [capacity])

        gen = TrimCachingGen().solve(instance)
        independent = IndependentCaching().solve(instance)
        # Sharing-aware placement fits every adapter; independent fits one
        # full model only.
        assert gen.hit_ratio == pytest.approx(1.0)
        assert independent.hit_ratio < gen.hit_ratio
        assert len(gen.placement.models_on(0)) == 6
        assert len(independent.placement.models_on(0)) == 1

    def test_resnet_family_latency_instance(self):
        """Manual topology + latency-derived feasibility."""
        from repro.network.backhaul import Backhaul
        from repro.network.geometry import Point
        from repro.network.servers import EdgeServer
        from repro.network.topology import NetworkTopology
        from repro.network.users import UserBatch

        root = make_resnet_root(RESNET18)
        tuner = FineTuner()
        for index in range(4):
            tuner.freeze_bottom(root, 32, name=f"task-{index}")
        library = tuner.build()

        servers = [
            EdgeServer(server_id=0, position=Point(0, 0), storage_bytes=int(0.1 * GB)),
            EdgeServer(
                server_id=1, position=Point(600, 0), storage_bytes=int(0.1 * GB)
            ),
        ]
        users = UserBatch(
            np.array([[100.0, 0.0], [500.0, 0.0]]),
            np.full((2, 4), 1.0),
            np.full((2, 4), 0.1),
        )
        topology = NetworkTopology(servers, users, backhaul=Backhaul())
        sizes = np.array(
            [library.model_size(i) for i in library.model_ids], dtype=float
        )
        latency = LatencyModel(topology, sizes)
        demand = np.full((2, 4), 0.25)
        instance = PlacementInstance(
            library, demand, latency.feasibility(), [s.storage_bytes for s in servers]
        )
        result = TrimCachingGen().solve(instance)
        assert placement_is_feasible(instance, result.placement)
        assert result.hit_ratio > 0.0


class TestGeneralCasePipeline:
    def test_spec_would_explode_gen_succeeds(self, general_scenario):
        """On the general library Gen works; Spec's |A| can explode."""
        gen = TrimCachingGen().solve(general_scenario.instance)
        assert 0.0 <= gen.hit_ratio <= 1.0
        independent = IndependentCaching().solve(general_scenario.instance)
        assert gen.hit_ratio >= independent.hit_ratio - 1e-9
