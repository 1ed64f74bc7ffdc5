"""Smoke + shape tests for the per-figure experiment entry points.

These run each experiment at reduced scale and assert the paper's
qualitative findings (the "shape"), not absolute numbers. The benchmark
harness runs the same entry points at fuller scale.
"""

import numpy as np
import pytest

from repro.api import run_plan
from repro.sim import experiments


class TestFig1:
    def test_series_and_calibration(self):
        result = experiments.fig1_accuracy_vs_frozen(step=10)
        assert result.depths[0] == 0
        assert result.depths[-1] == 107
        assert (np.diff(result.transportation) <= 0).all()
        assert result.average_drop_at_90pct == pytest.approx(0.047, abs=0.006)
        assert "Fig. 1" in result.to_table()

    def test_step_validation(self):
        with pytest.raises(ValueError):
            experiments.fig1_accuracy_vs_frozen(step=0)


class TestTable1:
    def test_full_scale_library(self):
        result = experiments.table1_library_construction(num_models=120, seed=0)
        assert result.num_models == 120
        assert result.num_shared_blocks > 0
        assert 0.0 < result.savings_ratio < 1.0
        table = result.to_table()
        assert "fruit and vegetables" in table
        assert "flowers, trees" in table


class TestSweepFigures:
    """Each panel at toy scale; shape assertions live in integration tests."""

    def test_fig4a_runs(self):
        plan = experiments.fig4a_plan(
            num_topologies=1, capacities_gb=(0.5, 1.0), seed=0, scale=0.05
        )
        result = run_plan(plan)
        assert set(result.series) == {
            "TrimCaching Spec",
            "TrimCaching Gen",
            "Independent Caching",
        }
        assert len(result.x_values) == 2

    def test_fig4b_runs(self):
        plan = experiments.fig4b_plan(
            num_topologies=1, server_counts=(4, 6), seed=0, scale=0.05
        )
        result = run_plan(plan)
        assert result.x_values == [4, 6]

    def test_fig4c_runs(self):
        plan = experiments.fig4c_plan(
            num_topologies=1, user_counts=(6, 10), seed=0, scale=0.05
        )
        result = run_plan(plan)
        assert result.x_values == [6, 10]

    def test_fig5a_excludes_spec(self):
        plan = experiments.fig5a_plan(
            num_topologies=1, capacities_gb=(0.5,), seed=0, scale=0.05
        )
        result = run_plan(plan)
        assert set(result.series) == {"TrimCaching Gen", "Independent Caching"}

    def test_fig5b_runs(self):
        plan = experiments.fig5b_plan(
            num_topologies=1, server_counts=(4,), seed=0, scale=0.05
        )
        result = run_plan(plan)
        assert "TrimCaching Gen" in result.series

    def test_fig5c_runs(self):
        plan = experiments.fig5c_plan(
            num_topologies=1, user_counts=(6,), seed=0, scale=0.05
        )
        result = run_plan(plan)
        assert "Independent Caching" in result.series


class TestFig6:
    def test_fig6a_spec_matches_optimal(self):
        plan = experiments.fig6a_plan(num_topologies=2, seed=0)
        result = run_plan(plan).comparison()
        optimal = result.mean_hit("Optimal (exhaustive)")
        spec = result.mean_hit("TrimCaching Spec")
        gen = result.mean_hit("TrimCaching Gen")
        assert spec <= optimal + 1e-9
        assert spec >= 0.95 * optimal  # paper: equal
        assert gen >= 0.8 * optimal  # paper: 1.3% below
        # Exhaustive search is slower (the paper quotes ~10^4-10^5x against
        # naive enumeration; our exhaustive prunes, so assert direction
        # only at this toy scale — the benchmark shows the full factor).
        assert result.speedup("TrimCaching Gen", "Optimal (exhaustive)") > 1

    def test_fig6b_gen_much_faster(self):
        plan = experiments.fig6b_plan(num_topologies=1, seed=0)
        result = run_plan(plan).comparison()
        assert result.speedup("TrimCaching Gen", "TrimCaching Spec") > 10
        table = result.to_table()
        assert "runtime" in table


class TestFig7:
    def test_fixed_placements_under_mobility(self):
        plan = experiments.fig7_plan(
            num_runs=1, horizon_s=600.0, sample_every=24, seed=0
        )
        result = run_plan(plan).mobility()
        assert "TrimCaching Spec" in result.series
        assert "TrimCaching Gen" in result.series
        for algo in result.series:
            means = result.series[algo].means
            assert ((0 <= means) & (means <= 1)).all()
        assert "time (min)" in result.to_table()


class TestAblations:
    def test_epsilon_ablation(self):
        plan = experiments.ablation_epsilon_plan(
            epsilons=(0.1, 0.5), num_topologies=1, seed=0
        )
        result = run_plan(plan).comparison()
        exact = result.mean_hit("Spec (exact)")
        assert result.mean_hit("Spec (eps=0.1)") <= exact + 1e-9
        assert result.mean_hit("Spec (eps=0.5)") <= exact + 1e-9

    def test_lazy_ablation(self):
        plan = experiments.ablation_lazy_greedy_plan(num_topologies=1, seed=0)
        result = run_plan(plan).comparison()
        assert result.mean_hit("Gen (lazy)") == pytest.approx(
            result.mean_hit("Gen (naive)"), abs=1e-9
        )

    def test_order_ablation(self):
        plan = experiments.ablation_server_order_plan(num_topologies=1, seed=0)
        result = run_plan(plan).comparison()
        assert len(result.hit_ratios) == 3

    def test_backend_ablation(self):
        plan = experiments.ablation_dp_backend_plan(num_topologies=1, seed=0)
        result = run_plan(plan).comparison()
        assert result.mean_hit("Spec (value_dp)") <= (
            result.mean_hit("Spec (exact)") + 1e-9
        )
