"""Tests for declarative plans: axes, validation, JSON round-trip."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ExperimentPlan,
    MobilitySpec,
    ReplacementSpec,
    SolverSpec,
    SweepSpec,
    axis_names,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    resolve_axis,
)
from repro.core.gen import GenConfig
from repro.core.spec import SpecConfig
from repro.errors import ConfigurationError
from repro.sim.config import ScenarioConfig
from repro.utils.units import GB


class TestAxes:
    def test_named_axes_labels(self):
        assert resolve_axis("capacity").x_label == "Q (GB, paper scale)"
        assert resolve_axis("servers").x_label == "M"
        assert resolve_axis("users").x_label == "K"

    def test_capacity_axis_uses_scale(self):
        cfg = resolve_axis("capacity").apply(ScenarioConfig(), 1.0, 0.2)
        assert cfg.storage_bytes == int(1.0 * 0.2 * GB)

    def test_servers_axis_casts_int(self):
        cfg = resolve_axis("servers").apply(ScenarioConfig(), 8.0, 1.0)
        assert cfg.num_servers == 8

    def test_generic_float_field_axis(self):
        axis = resolve_axis("zipf_exponent")
        cfg = axis.apply(ScenarioConfig(), 1.1, 1.0)
        assert cfg.zipf_exponent == pytest.approx(1.1)

    def test_generic_int_field_axis_casts(self):
        axis = resolve_axis("num_models")
        cfg = axis.apply(ScenarioConfig(), 12.0, 1.0)
        assert cfg.num_models == 12
        assert isinstance(cfg.num_models, int)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep axis"):
            resolve_axis("warp-factor")

    def test_tuple_field_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_axis("deadline_range_s")

    def test_axis_names_lists_named_and_fields(self):
        names = axis_names()
        assert "capacity" in names
        assert "num_users" in names
        assert "deadline_range_s" not in names


def _sweep_plan(**overrides):
    defaults = dict(
        name="test sweep",
        sweep=SweepSpec("capacity", (0.5, 1.0)),
        solvers=(
            SolverSpec("spec", config=SpecConfig(epsilon=0.2)),
            SolverSpec("gen"),
        ),
        base={"library_case": "special", "num_models": 12},
        num_topologies=2,
        scale=0.2,
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def _study_plan(**overrides):
    """A non-sweep plan: no axis, so no sweep-only knob such as scale.

    A study draws no topologies either, so it keeps the default
    ``num_topologies``.
    """
    if overrides.get("study") is not None:
        overrides = {"num_topologies": 20, **overrides}
    return _sweep_plan(**{"sweep": None, "scale": 1.0, **overrides})


class TestNonSweepPlansRejectGridKnobs:
    """Comparison and study plans refuse the knobs only a sweep honours."""

    KINDS = {
        "comparison": {},
        "mobility": {"study": MobilitySpec(horizon_s=60.0, num_runs=1)},
        "replacement": {
            "study": ReplacementSpec(thresholds=(0.0,), num_runs=1),
            "solvers": (SolverSpec("gen"),),
        },
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_evaluation(self, kind):
        with pytest.raises(ConfigurationError, match="evaluation"):
            _study_plan(evaluation="monte_carlo", **self.KINDS[kind])

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_feasibility(self, kind):
        with pytest.raises(ConfigurationError, match="feasibility"):
            _study_plan(feasibility="dense", **self.KINDS[kind])

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_sample_users(self, kind):
        with pytest.raises(ConfigurationError, match="sample_users"):
            _study_plan(sample_users=8, **self.KINDS[kind])

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_scale(self, kind):
        with pytest.raises(ConfigurationError, match="scale"):
            _study_plan(scale=0.5, **self.KINDS[kind])

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_num_realizations(self, kind):
        with pytest.raises(ConfigurationError, match="num_realizations"):
            _study_plan(num_realizations=5, **self.KINDS[kind])

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_sample_strata(self, kind):
        with pytest.raises(ConfigurationError, match="sample_strata"):
            _study_plan(sample_strata=2, **self.KINDS[kind])

    @pytest.mark.parametrize("kind", ["mobility", "replacement"])
    def test_num_topologies_on_studies(self, kind):
        with pytest.raises(ConfigurationError, match="num_topologies"):
            _study_plan(num_topologies=7, **self.KINDS[kind])

    def test_comparison_keeps_num_topologies(self):
        assert _study_plan(num_topologies=7).num_topologies == 7


class TestPlanValidation:
    def test_kinds(self):
        assert _sweep_plan().kind == "sweep"
        assert (
            _study_plan().kind == "comparison"
        )
        assert _study_plan(study=MobilitySpec()).kind == "mobility"
        assert (
            _study_plan(
                study=ReplacementSpec(), solvers=(SolverSpec("gen"),)
            ).kind
            == "replacement"
        )

    def test_needs_solvers(self):
        with pytest.raises(ConfigurationError, match="at least one solver"):
            _sweep_plan(solvers=())

    def test_sweep_and_study_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            _sweep_plan(study=MobilitySpec())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            _sweep_plan(solvers=(SolverSpec("gen"), SolverSpec("gen")))

    def test_distinct_labels_for_same_solver_ok(self):
        plan = _sweep_plan(
            solvers=(
                SolverSpec("gen", label="Gen A"),
                SolverSpec("gen", label="Gen B"),
            )
        )
        assert plan.labels() == ["Gen A", "Gen B"]

    def test_sweep_needs_points(self):
        with pytest.raises(ConfigurationError, match="at least one point"):
            SweepSpec("capacity", ())

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigurationError, match="scale"):
            _sweep_plan(scale=0.0)

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            _sweep_plan(workers=0)
        with pytest.raises(ConfigurationError, match="workers"):
            _sweep_plan().with_overrides(workers=0)

    def test_bad_figure_scale_is_a_configuration_error(self):
        from repro.sim.experiments import fig4a_plan

        with pytest.raises(ConfigurationError, match="scale"):
            fig4a_plan(scale=0.0)

    def test_base_config_matches_direct_construction(self):
        plan = _sweep_plan()
        assert plan.base_config() == ScenarioConfig(
            library_case="special", num_models=12
        )

    def test_base_list_normalised_to_tuple(self):
        plan = _sweep_plan(
            base={
                "library_case": "special",
                "num_servers": 2,
                "storage_bytes_per_server": [1 * GB, 2 * GB],
            }
        )
        assert plan.base["storage_bytes_per_server"] == (1 * GB, 2 * GB)
        assert plan.base_config().storage_bytes_per_server == (1 * GB, 2 * GB)

    def test_with_overrides(self):
        plan = _sweep_plan().with_overrides(seed=9, workers=3)
        assert plan.seed == 9
        assert plan.workers == 3
        assert plan.name == "test sweep"


class TestPlanJsonRoundTrip:
    def test_sweep_round_trip_equality(self):
        plan = _sweep_plan()
        assert plan_from_json(plan_to_json(plan)) == plan

    def test_comparison_round_trip_equality(self):
        plan = _study_plan()
        assert plan_from_json(plan_to_json(plan)) == plan

    def test_mobility_round_trip_equality(self):
        plan = _study_plan(study=MobilitySpec(horizon_s=600.0, num_runs=2))
        assert plan_from_json(plan_to_json(plan)) == plan

    def test_replacement_round_trip_equality(self):
        plan = _study_plan(
            study=ReplacementSpec(thresholds=(0.0, 0.9), num_runs=1),
            solvers=(SolverSpec("gen"),),
        )
        assert plan_from_json(plan_to_json(plan)) == plan

    def test_json_identity(self):
        text = plan_to_json(_sweep_plan())
        assert plan_to_json(plan_from_json(text)) == text

    def test_kind_is_serialised(self):
        payload = plan_to_dict(_study_plan())
        assert payload["kind"] == "comparison"

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigurationError, match="format"):
            plan_from_dict({"format": "something-else"})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid plan JSON"):
            plan_from_json("{not json")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("combinations", "magic"),
            ("max_combinations", 0),
            ("epsilon", float("nan")),
        ],
    )
    def test_bad_spec_config_rejected_on_load(self, field, value):
        payload = plan_to_dict(_sweep_plan())
        (spec,) = [s for s in payload["solvers"] if s["solver"] == "spec"]
        spec["config"][field] = value
        with pytest.raises(ConfigurationError, match=field):
            plan_from_dict(payload)

    def test_unknown_study_type_rejected(self):
        payload = plan_to_dict(_study_plan(study=MobilitySpec()))
        payload["study"]["type"] = "teleportation"
        with pytest.raises(ConfigurationError, match="unknown study type"):
            plan_from_dict(payload)

    # -- property test: to_json -> from_json -> to_json is the identity --
    @settings(max_examples=40, deadline=None)
    @given(
        axis=st.sampled_from(["capacity", "servers", "users", "zipf_exponent"]),
        points=st.lists(
            st.floats(
                min_value=0.1, max_value=50, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=5,
        ),
        epsilon=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        topologies=st.integers(min_value=1, max_value=100),
        scale=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        engine=st.sampled_from(["dense", "sparse", "auto"]),
        accelerated=st.booleans(),
    )
    def test_property_round_trip_identity(
        self, axis, points, epsilon, seed, topologies, scale, engine, accelerated
    ):
        plan = ExperimentPlan(
            name=f"prop {axis}",
            sweep=SweepSpec(axis, tuple(points)),
            solvers=(
                SolverSpec(
                    "spec", config=SpecConfig(epsilon=epsilon, engine=engine)
                ),
                SolverSpec(
                    "gen", config=GenConfig(accelerated=accelerated)
                ),
                SolverSpec("independent"),
            ),
            base={"library_case": "special", "num_models": 12},
            num_topologies=topologies,
            seed=seed,
            scale=scale,
        )
        text = plan_to_json(plan)
        restored = plan_from_json(text)
        assert restored == plan
        assert plan_to_json(restored) == text
        assert json.loads(text)["format"] == "trimcaching-plan-v1"


class TestReviewRegressions:
    def test_resolved_label_collision_refused(self):
        """An explicit label colliding with another solver's registry
        label must raise, not silently drop a series."""
        plan = _sweep_plan(
            solvers=(
                SolverSpec("spec"),
                SolverSpec("gen", label="TrimCaching Spec"),
            )
        )
        with pytest.raises(ConfigurationError, match="unique"):
            plan.algorithms()

    def test_malformed_seed_raises_configuration_error(self):
        payload = plan_to_dict(_sweep_plan())
        payload["seed"] = "abc"
        with pytest.raises(ConfigurationError, match="malformed plan payload"):
            plan_from_dict(payload)

    def test_study_missing_type_raises_configuration_error(self):
        payload = plan_to_dict(_study_plan(study=MobilitySpec()))
        del payload["study"]["type"]
        with pytest.raises(ConfigurationError, match="unknown study type"):
            plan_from_dict(payload)

    def test_malformed_sweep_raises_configuration_error(self):
        payload = plan_to_dict(_sweep_plan())
        payload["sweep"] = {"points": [1.0]}  # axis missing
        with pytest.raises(ConfigurationError, match="malformed plan payload"):
            plan_from_dict(payload)

    def test_unknown_base_field_rejected_at_declaration(self):
        with pytest.raises(ConfigurationError, match="num_server"):
            _sweep_plan(base={"num_server": 4})

    def test_bad_base_value_rejected_at_declaration(self):
        with pytest.raises(ConfigurationError):
            _sweep_plan(base={"num_servers": -1})

    def test_bool_field_not_sweepable(self):
        with pytest.raises(ConfigurationError, match="cannot be swept"):
            resolve_axis("per_user_popularity")
        assert "per_user_popularity" not in axis_names()
        assert "library_case" not in axis_names()

    def test_base_is_read_only_after_validation(self):
        plan = _sweep_plan()
        with pytest.raises(TypeError):
            plan.base["num_users"] = -5

    def test_study_spec_fields_validated(self):
        with pytest.raises(ConfigurationError, match="sample_every"):
            MobilitySpec(sample_every=0)
        with pytest.raises(ConfigurationError, match="horizon_s"):
            ReplacementSpec(horizon_s=-5.0)
        with pytest.raises(ConfigurationError, match="check_every"):
            ReplacementSpec(check_every=0)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_horizon_rejected_at_declaration(self, horizon):
        from repro.sim.experiments import ablation_replacement_plan, fig7_plan

        with pytest.raises(ConfigurationError, match="horizon_s"):
            MobilitySpec(horizon_s=horizon)
        with pytest.raises(ConfigurationError, match="horizon_s"):
            ReplacementSpec(horizon_s=horizon)
        with pytest.raises(ConfigurationError, match="horizon_s"):
            fig7_plan(horizon_s=horizon)
        with pytest.raises(ConfigurationError, match="horizon_s"):
            ablation_replacement_plan(horizon_s=horizon)

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_bad_threshold_rejected_at_declaration(self, threshold):
        from repro.sim.experiments import ablation_replacement_plan

        with pytest.raises(ConfigurationError, match="thresholds"):
            ReplacementSpec(thresholds=(0.0, threshold))
        with pytest.raises(ConfigurationError, match="thresholds"):
            ablation_replacement_plan(thresholds=(threshold,))

    def test_threshold_bounds_are_inclusive(self):
        assert ReplacementSpec(thresholds=(0.0, 1.0)).thresholds == (0.0, 1.0)

    def test_unknown_evaluation_is_refused_not_run(self):
        # The sweep scorer treats any evaluation it does not know as
        # Monte Carlo, so an unknown one must never reach an executor.
        from repro.exec import execute_plan
        from repro.sim.experiments import fig4a_plan

        plan = fig4a_plan(num_topologies=1, capacities_gb=(0.5,), scale=0.05)
        with pytest.raises(ConfigurationError, match="evaluation"):
            execute_plan(plan.with_overrides(evaluation="magic"))

    @pytest.mark.parametrize(
        "field, value", [("evaluation", "magic"), ("feasibility", "csc")]
    )
    def test_plan_file_with_bad_run_mode_rejected(self, field, value):
        payload = plan_to_dict(_sweep_plan())
        payload[field] = value
        with pytest.raises(ConfigurationError, match=field):
            plan_from_dict(payload)


class TestPlanBuilderIndex:
    def test_every_figure_plan_builds_and_round_trips(self):
        """PLAN_BUILDERS is the canonical figure-plan index: every entry
        must build a valid plan whose JSON round-trip is lossless."""
        from repro.sim.experiments import PLAN_BUILDERS

        expected_kinds = {
            "fig4a": "sweep", "fig4b": "sweep", "fig4c": "sweep",
            "fig5a": "sweep", "fig5b": "sweep", "fig5c": "sweep",
            "fig6a": "comparison", "fig6b": "comparison",
            "fig7": "mobility",
            "ablation-epsilon": "comparison", "ablation-lazy": "comparison",
            "ablation-order": "comparison", "ablation-backend": "comparison",
            "ablation-replacement": "replacement",
        }
        assert set(PLAN_BUILDERS) == set(expected_kinds)
        for name, builder in PLAN_BUILDERS.items():
            plan = builder()
            assert plan.kind == expected_kinds[name], name
            assert plan_from_json(plan_to_json(plan)) == plan, name


class TestSamplingFields:
    """sample_users / sample_strata: validation and hash-stable serialisation."""

    def test_round_trip(self):
        plan = _sweep_plan(
            evaluation="sampled", sample_users=24, sample_strata=3
        )
        rebuilt = plan_from_dict(plan_to_dict(plan))
        assert rebuilt.sample_users == 24
        assert rebuilt.sample_strata == 3
        assert rebuilt.evaluation == "sampled"

    def test_unsampled_plans_omit_the_keys(self):
        # Plans without sampling must serialise without the new keys so
        # existing artifact-store content hashes stay valid.
        payload = plan_to_dict(_sweep_plan())
        assert "sample_users" not in payload
        assert "sample_strata" not in payload
        rebuilt = plan_from_dict(payload)
        assert rebuilt.sample_users is None
        assert rebuilt.sample_strata == 4

    def test_sampled_requires_sample_users(self):
        with pytest.raises(ConfigurationError, match="sample_users"):
            _sweep_plan(evaluation="sampled")

    def test_sample_users_requires_sampled_evaluation(self):
        with pytest.raises(ConfigurationError, match="sampled"):
            _sweep_plan(evaluation="expected", sample_users=16)

    def test_sample_users_floor(self):
        with pytest.raises(ConfigurationError, match="at least"):
            _sweep_plan(
                evaluation="sampled", sample_users=5, sample_strata=4
            )

    def test_strata_floor(self):
        with pytest.raises(ConfigurationError, match="sample_strata"):
            _sweep_plan(
                evaluation="sampled", sample_users=16, sample_strata=0
            )
