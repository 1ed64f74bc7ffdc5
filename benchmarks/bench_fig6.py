"""Bench: regenerate Fig. 6 (optimality gap + runtime comparison)."""

from conftest import attach_comparison  # type: ignore[import-not-found]

from repro.api import run_plan
from repro.sim import experiments


def test_fig6a_gap_to_optimal(benchmark, bench_topologies):
    """Fig. 6(a): Spec(ε=0) matches the optimum; Gen within a few %;
    both far faster than exhaustive search."""
    plan = experiments.fig6a_plan(
        num_topologies=max(5, bench_topologies), seed=0
    )
    result = benchmark.pedantic(
        run_plan, args=(plan,), rounds=1, iterations=1
    ).comparison()
    attach_comparison(benchmark, result)
    optimal = result.mean_hit("Optimal (exhaustive)")
    assert result.mean_hit("TrimCaching Spec") >= 0.98 * optimal
    assert result.mean_hit("TrimCaching Gen") >= 0.85 * optimal
    assert result.speedup("TrimCaching Spec", "Optimal (exhaustive)") > 1
    benchmark.extra_info["spec_speedup_vs_optimal"] = round(
        result.speedup("TrimCaching Spec", "Optimal (exhaustive)"), 1
    )


def test_fig6b_general_case_runtime(benchmark, bench_topologies):
    """Fig. 6(b): Gen is orders of magnitude faster than Spec when the
    sharing structure is general (paper: ~3,900x)."""
    plan = experiments.fig6b_plan(
        num_topologies=max(2, bench_topologies), seed=0
    )
    result = benchmark.pedantic(
        run_plan, args=(plan,), rounds=1, iterations=1
    ).comparison()
    attach_comparison(benchmark, result)
    speedup = result.speedup("TrimCaching Gen", "TrimCaching Spec")
    benchmark.extra_info["gen_speedup_vs_spec"] = round(speedup, 1)
    assert speedup > 100
