"""Tests that the public API surface stays importable and coherent."""

import importlib

import pytest

import repro


class TestPublicApi:
    def test_all_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_docstring_flow(self):
        """The flow advertised in the package docstring must work."""
        from repro import ScenarioConfig, TrimCachingGen, build_scenario

        scenario = build_scenario(
            ScenarioConfig(num_servers=2, num_users=4, num_models=6), seed=0
        )
        result = TrimCachingGen().solve(scenario.instance)
        assert 0.0 <= result.hit_ratio <= 1.0

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.core.placement",
            "repro.core.blockmask",
            "repro.core.objective",
            "repro.core.reference",
            "repro.core.spec",
            "repro.core.gen",
            "repro.core.dp",
            "repro.core.independent",
            "repro.core.exhaustive",
            "repro.core.extras",
            "repro.core.submodular",
            "repro.core.bounds",
            "repro.core.result",
            "repro.core.analysis",
            "repro.models",
            "repro.models.blocks",
            "repro.models.model",
            "repro.models.library",
            "repro.models.finetune",
            "repro.models.generators",
            "repro.models.popularity",
            "repro.models.accuracy",
            "repro.network",
            "repro.network.geometry",
            "repro.network.channel",
            "repro.network.servers",
            "repro.network.users",
            "repro.network.topology",
            "repro.network.backhaul",
            "repro.network.latency",
            "repro.network.mobility",
            "repro.sim",
            "repro.sim.config",
            "repro.sim.scenario",
            "repro.sim.evaluator",
            "repro.sim.mobility_eval",
            "repro.sim.replacement",
            "repro.sim.latency_report",
            "repro.sim.request_sim",
            "repro.sim.serialization",
            "repro.sim.runner",
            "repro.sim.experiments",
            "repro.exec",
            "repro.exec.backends",
            "repro.exec.process",
            "repro.exec.store",
            "repro.exec.executor",
            "repro.utils.charts",
            "repro.data",
            "repro.data.resnet",
            "repro.data.cifar100",
            "repro.data.transformer",
            "repro.utils",
            "repro.cli",
        ],
    )
    def test_every_module_imports(self, module):
        assert importlib.import_module(module) is not None

    @pytest.mark.parametrize(
        "module",
        ["repro.core.spec", "repro.core.gen", "repro.models.library"],
    )
    def test_modules_have_docstrings(self, module):
        assert importlib.import_module(module).__doc__

    def test_solvers_share_interface(self):
        """Every exported solver exposes .name and .solve."""
        from repro import (
            ExhaustiveSearch,
            IndependentCaching,
            RandomPlacement,
            TopPopularityPlacement,
            TrimCachingGen,
            TrimCachingSpec,
        )

        for solver_cls in (
            TrimCachingSpec,
            TrimCachingGen,
            IndependentCaching,
            ExhaustiveSearch,
            RandomPlacement,
            TopPopularityPlacement,
        ):
            solver = solver_cls()
            assert isinstance(solver.name, str) and solver.name
            assert callable(solver.solve)
