"""Tests for the string-keyed solver registry."""

from dataclasses import dataclass

import pytest

from repro.api import (
    SOLVERS,
    ExperimentPlan,
    SolverRegistry,
    SolverSpec,
    SweepSpec,
    plan_from_json,
    plan_to_json,
)
from repro.core.gen import GenConfig, TrimCachingGen
from repro.core.spec import SpecConfig
from repro.errors import ConfigurationError
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario

from tests.oracles import ORACLE_SOLVERS
from tests.oracles.reference import (
    ReferenceGenConfig,
    ReferenceIndependentConfig,
    ReferenceSpecConfig,
)

#: Each seed solver's registered name and config class.
SEED_SOLVERS = [
    ("reference-gen", ReferenceGenConfig),
    ("reference-independent", ReferenceIndependentConfig),
    ("reference-spec", ReferenceSpecConfig),
]


@pytest.fixture(scope="module")
def tiny_instance():
    """A scenario small enough for every solver, including exhaustive."""
    config = ScenarioConfig(
        library_case="special",
        num_servers=2,
        num_users=4,
        num_models=4,
        storage_bytes=120_000_000,
    )
    return build_scenario(config, seed=7).instance


class TestBuiltinRegistrations:
    def test_expected_names_present(self):
        names = SOLVERS.names()
        for expected in (
            "gen",
            "spec",
            "independent",
            "exhaustive",
            "random",
            "top-popularity",
        ):
            assert expected in names
        assert not [name for name in names if name.startswith("reference-")]

    def test_names_sorted(self):
        assert SOLVERS.names() == sorted(SOLVERS.names())

    @pytest.mark.parametrize(
        "registry", [SOLVERS, ORACLE_SOLVERS], ids=["default", "oracle"]
    )
    def test_every_registered_solver_constructs_and_solves(
        self, tiny_instance, registry
    ):
        """Guards against registry/implementation drift: every name must
        build a working solver end to end."""
        assert len(registry.names()) > 0
        for name in registry.names():
            solver = registry.create(name)
            result = solver.solve(tiny_instance)
            assert 0.0 <= result.hit_ratio <= 1.0, name
            assert result.placement is not None, name

    def test_labels_match_solver_names(self):
        assert SOLVERS.label("gen") == "TrimCaching Gen"
        assert SOLVERS.label("spec") == "TrimCaching Spec"
        assert SOLVERS.label("independent") == "Independent Caching"
        assert SOLVERS.label("exhaustive") == "Optimal (exhaustive)"

    def test_entry_metadata(self):
        entry = SOLVERS.entry("gen")
        assert entry.config_cls is GenConfig
        assert entry.summary
        assert "gen" in SOLVERS
        assert "no-such" not in SOLVERS
        assert len(SOLVERS) == len(SOLVERS.names())

    def test_to_table_lists_everything(self):
        table = SOLVERS.to_table()
        for name in SOLVERS.names():
            assert name in table


class TestOracleSolvers:
    """The seed solvers are test oracles, registered only in the tests."""

    def saved_plan(self, name: str, config_cls) -> str:
        return plan_to_json(
            ExperimentPlan(
                name="seed solver",
                sweep=SweepSpec("capacity", (0.2,)),
                solvers=(SolverSpec(name, config=config_cls()),),
                num_topologies=1,
            )
        )

    def test_oracle_registry_holds_the_seed_solvers(self):
        assert ORACLE_SOLVERS.names() == [name for name, _ in SEED_SOLVERS]

    @pytest.mark.parametrize(
        "name, config_cls", SEED_SOLVERS, ids=[name for name, _ in SEED_SOLVERS]
    )
    def test_saved_plan_naming_a_seed_solver_is_refused_on_load(
        self, name, config_cls
    ):
        with pytest.raises(ConfigurationError, match=f"unknown solver '{name}'"):
            plan_from_json(self.saved_plan(name, config_cls))

    @pytest.mark.parametrize(
        "name, config_cls", SEED_SOLVERS, ids=[name for name, _ in SEED_SOLVERS]
    )
    def test_saved_plan_loads_with_the_oracle_registry(self, name, config_cls):
        plan = plan_from_json(self.saved_plan(name, config_cls), ORACLE_SOLVERS)
        assert plan.solvers[0].solver == name
        assert plan.solvers[0].config == config_cls()


class TestCreate:
    def test_create_with_overrides(self):
        solver = SOLVERS.create("gen", accelerated=False)
        assert isinstance(solver, TrimCachingGen)
        assert solver.accelerated is False

    def test_create_with_config_instance(self):
        solver = SOLVERS.create("spec", config=SpecConfig(epsilon=0.25))
        assert solver.epsilon == 0.25

    def test_create_config_plus_overrides_compose(self):
        solver = SOLVERS.create(
            "spec", config=SpecConfig(epsilon=0.25), server_order="coverage"
        )
        assert solver.epsilon == 0.25
        assert solver.server_order == "coverage"

    def test_wrong_config_type_rejected(self):
        with pytest.raises(ConfigurationError):
            SOLVERS.create("spec", config=GenConfig())

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigurationError, match="registered solvers"):
            SOLVERS.create("definitely-not-registered")

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid config"):
            SOLVERS.config("gen", not_a_field=1)


class TestThirdPartyRegistration:
    def test_decorator_registration_round_trip(self, tiny_instance):
        registry = SolverRegistry()

        @registry.register("half-random", label="Half Random")
        @dataclass(frozen=True)
        class HalfRandomConfig:
            seed: int = 3

            def build(self):
                from repro.core.extras import RandomPlacement

                return RandomPlacement(seed=self.seed)

        assert registry.names() == ["half-random"]
        assert registry.label("half-random") == "Half Random"
        result = registry.create("half-random").solve(tiny_instance)
        assert 0.0 <= result.hit_ratio <= 1.0

    def test_duplicate_name_rejected(self):
        registry = SolverRegistry()
        registry.register("gen", GenConfig)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("gen", GenConfig)

    def test_bad_name_rejected(self):
        registry = SolverRegistry()
        with pytest.raises(ConfigurationError, match="kebab-case"):
            registry.register("Not A Name", GenConfig)

    def test_non_dataclass_rejected(self):
        registry = SolverRegistry()

        class NotADataclass:
            def build(self):  # pragma: no cover - never built
                return None

        with pytest.raises(ConfigurationError, match="dataclass"):
            registry.register("bad", NotADataclass)

    def test_missing_build_rejected(self):
        registry = SolverRegistry()

        @dataclass(frozen=True)
        class NoBuild:
            knob: int = 1

        with pytest.raises(ConfigurationError, match="build"):
            registry.register("no-build", NoBuild)


class TestLazyLabels:
    def test_registration_does_not_instantiate(self):
        registry = SolverRegistry()
        built = []

        @registry.register("probe")
        @dataclass(frozen=True)
        class ProbeConfig:
            def build(self):
                built.append(1)

                class _Probe:
                    name = "Probe Solver"

                    def solve(self, instance):  # pragma: no cover
                        raise NotImplementedError

                return _Probe()

        assert built == []  # registration is lazy
        assert registry.label("probe") == "Probe Solver"
        assert built == [1]
        assert registry.label("probe") == "Probe Solver"
        assert built == [1]  # cached

    def test_required_config_field_falls_back_to_name(self):
        registry = SolverRegistry()

        @registry.register("needs-arg")
        @dataclass(frozen=True)
        class NeedsArgConfig:
            knob: int  # required, no default

            def build(self):  # pragma: no cover - never default-built
                raise AssertionError

        assert registry.label("needs-arg") == "needs-arg"
