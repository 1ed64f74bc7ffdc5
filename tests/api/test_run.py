"""Tests for run_plan() and the uniform ResultSet."""

import pytest

from repro.api import (
    ExperimentPlan,
    MobilitySpec,
    ReplacementSpec,
    ResultSet,
    SolverSpec,
    SweepSpec,
    run_plan,
)
from repro.sim.runner import (
    AlgorithmComparison,
    ExperimentResult,
    Fig7Result,
    ReplacementAblation,
)

from tests.oracles import ORACLE_SOLVERS

_TINY_BASE = {
    "library_case": "special",
    "num_servers": 2,
    "num_users": 4,
    "num_models": 6,
}


@pytest.fixture(scope="module")
def sweep_result():
    plan = ExperimentPlan(
        name="tiny sweep",
        sweep=SweepSpec("capacity", (0.1, 0.2)),
        solvers=(SolverSpec("gen"), SolverSpec("independent")),
        base=_TINY_BASE,
        num_topologies=2,
    )
    return run_plan(plan)


@pytest.fixture(scope="module")
def comparison_result():
    plan = ExperimentPlan(
        name="tiny comparison",
        solvers=(SolverSpec("gen"), SolverSpec("independent")),
        base=_TINY_BASE,
        num_topologies=2,
    )
    return run_plan(plan)


class TestSweepExecution:
    def test_returns_result_set_with_plan(self, sweep_result):
        assert isinstance(sweep_result, ResultSet)
        assert isinstance(sweep_result, ExperimentResult)
        assert sweep_result.plan is not None
        assert sweep_result.kind == "sweep"

    def test_series_shape(self, sweep_result):
        assert set(sweep_result.series) == {
            "TrimCaching Gen",
            "Independent Caching",
        }
        assert len(sweep_result.x_values) == 2
        for stats in sweep_result.series.values():
            assert (stats.counts == 2).all()

    def test_renderings(self, sweep_result):
        assert "tiny sweep" in sweep_result.to_table()
        assert "tiny sweep" in sweep_result.to_chart()
        csv_text = sweep_result.to_csv()
        assert "Q (GB, paper scale)" in csv_text
        assert "TrimCaching Gen mean" in csv_text

    def test_json_round_trip(self, sweep_result):
        restored = ResultSet.from_json(sweep_result.to_json())
        assert restored.plan == sweep_result.plan
        for algo in sweep_result.series:
            assert (
                restored.series[algo].means == sweep_result.series[algo].means
            ).all()
        assert restored.to_json() == sweep_result.to_json()


class TestComparisonExecution:
    def test_kind_and_view(self, comparison_result):
        assert comparison_result.kind == "comparison"
        comparison = comparison_result.comparison()
        assert isinstance(comparison, AlgorithmComparison)
        assert set(comparison.hit_ratios) == {
            "TrimCaching Gen",
            "Independent Caching",
        }
        assert comparison.hit_ratios["TrimCaching Gen"].count == 2

    def test_to_table_uses_comparison_layout(self, comparison_result):
        table = comparison_result.to_table()
        assert "hit ratio (mean)" in table
        assert "runtime (s)" in table

    def test_comparison_view_requires_single_point(self, sweep_result):
        with pytest.raises(ValueError, match="single-point"):
            sweep_result.comparison()

    def test_mobility_view_requires_mobility_kind(self, comparison_result):
        with pytest.raises(ValueError, match="not a mobility result"):
            comparison_result.mobility()


class TestStudyExecution:
    def test_mobility_plan(self):
        plan = ExperimentPlan(
            name="tiny mobility",
            solvers=(SolverSpec("gen"),),
            study=MobilitySpec(horizon_s=300.0, sample_every=30, num_runs=1),
            base=_TINY_BASE,
        )
        result = run_plan(plan)
        assert result.kind == "mobility"
        fig7 = result.mobility()
        assert isinstance(fig7, Fig7Result)
        assert "TrimCaching Gen" in fig7.series
        means = fig7.series["TrimCaching Gen"].means
        assert ((0 <= means) & (means <= 1)).all()
        assert "time (min)" in result.to_table()

    def test_replacement_plan(self):
        plan = ExperimentPlan(
            name="tiny replacement",
            solvers=(SolverSpec("gen"),),
            study=ReplacementSpec(
                thresholds=(0.0, 0.9), num_runs=1, horizon_s=300.0
            ),
            base={**_TINY_BASE, "storage_bytes": 150_000_000},
        )
        result = run_plan(plan)
        assert result.kind == "replacement"
        ablation = result.replacement()
        assert isinstance(ablation, ReplacementAblation)
        assert ablation.thresholds == [0.0, 0.9]
        assert ablation.replacements[0.0].mean == 0.0  # never replaces
        assert "replace when below" in result.to_table()


class TestSharedTrajectory:
    """Each run walks its trajectory once, whatever the solver count."""

    @pytest.fixture
    def slots(self, monkeypatch):
        """Slots walked, summed over every ``trajectory`` call."""
        from repro.network.mobility import MobilityModel

        walked = []
        trajectory = MobilityModel.trajectory
        monkeypatch.setattr(
            MobilityModel,
            "trajectory",
            lambda self, positions, num_slots, seed=None: walked.append(num_slots)
            or trajectory(self, positions, num_slots, seed),
        )
        return walked

    def test_mobility_steps_once_per_slot(self, slots):
        plan = ExperimentPlan(
            name="two solvers",
            solvers=(SolverSpec("gen"), SolverSpec("independent")),
            study=MobilitySpec(horizon_s=300.0, sample_every=12, num_runs=2),
            base=_TINY_BASE,
        )
        result = run_plan(plan)
        assert len(result.series) == 2
        assert sum(slots) == 2 * 60

    def test_replacement_steps_once_per_slot(self, slots):
        plan = ExperimentPlan(
            name="three thresholds",
            solvers=(SolverSpec("gen"),),
            study=ReplacementSpec(
                thresholds=(0.0, 0.9, 1.0), num_runs=2, horizon_s=300.0
            ),
            base={**_TINY_BASE, "storage_bytes": 150_000_000},
        )
        result = run_plan(plan)
        assert result.replacement().thresholds == [0.0, 0.9, 1.0]
        assert sum(slots) == 2 * 60


class TestCustomScenarios:
    """The point of the API: new scenarios are declarations, not code."""

    def test_zipf_exponent_sweep(self):
        plan = ExperimentPlan(
            name="zipf sensitivity",
            sweep=SweepSpec("zipf_exponent", (0.4, 1.2)),
            solvers=(SolverSpec("gen"),),
            base=_TINY_BASE,
            num_topologies=1,
        )
        result = run_plan(plan)
        assert result.x_label == "zipf_exponent"
        assert len(result.x_values) == 2

    def test_baseline_solvers_in_a_sweep(self):
        def plan(*solvers):
            return ExperimentPlan(
                name="baselines",
                sweep=SweepSpec("capacity", (0.2,)),
                solvers=tuple(SolverSpec(name) for name in solvers),
                base=_TINY_BASE,
                num_topologies=1,
            )

        baselines = run_plan(plan("random", "top-popularity"))
        assert set(baselines.series) == {"Random", "Top popularity"}
        seed = run_plan(plan("reference-gen"), ORACLE_SOLVERS)
        assert set(seed.series) == {"TrimCaching Gen (reference)"}


class TestReviewRegressions:
    def test_replacement_plan_refuses_multiple_solvers(self):
        from repro.errors import ConfigurationError

        # Refused when the plan is declared, not when it runs.
        with pytest.raises(ConfigurationError, match="exactly one"):
            ExperimentPlan(
                name="two solvers",
                solvers=(SolverSpec("gen"), SolverSpec("independent")),
                study=ReplacementSpec(
                    thresholds=(0.0,), num_runs=1, horizon_s=60.0
                ),
                base=_TINY_BASE,
            )

    def test_two_solver_replacement_plan_file_is_refused_on_load(self):
        import json

        from repro.api import plan_from_json, plan_to_json
        from repro.errors import ConfigurationError

        plan = ExperimentPlan(
            name="one solver",
            solvers=(SolverSpec("gen"),),
            study=ReplacementSpec(thresholds=(0.0,), num_runs=1, horizon_s=60.0),
            base=_TINY_BASE,
        )
        payload = json.loads(plan_to_json(plan))
        payload["solvers"].append(
            {"solver": "independent", "label": None, "config": None}
        )
        with pytest.raises(ConfigurationError, match="exactly one"):
            plan_from_json(json.dumps(payload))
