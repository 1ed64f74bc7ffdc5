"""Bench: ablations of the design decisions DESIGN.md §6 calls out."""

from conftest import attach_comparison  # type: ignore[import-not-found]

from repro.api import run_plan
from repro.sim import experiments


def test_ablation_epsilon(benchmark, bench_topologies):
    """Spec's rounding parameter: quality monotone in ε, runtime falls."""
    plan = experiments.ablation_epsilon_plan(
        num_topologies=max(2, bench_topologies), seed=0
    )
    result = benchmark.pedantic(
        run_plan, args=(plan,), rounds=1, iterations=1
    ).comparison()
    attach_comparison(benchmark, result)
    exact = result.mean_hit("Spec (exact)")
    for algo in result.hit_ratios:
        assert result.mean_hit(algo) <= exact + 1e-9
        assert result.mean_hit(algo) >= 0.5 * exact  # (1-ε)/2 with slack


def test_ablation_lazy_greedy(benchmark, bench_topologies):
    """Lazy greedy: identical output to the literal Algorithm 3."""
    plan = experiments.ablation_lazy_greedy_plan(
        num_topologies=max(2, bench_topologies), seed=0
    )
    result = benchmark.pedantic(
        run_plan, args=(plan,), rounds=1, iterations=1
    ).comparison()
    attach_comparison(benchmark, result)
    assert abs(
        result.mean_hit("Gen (lazy)") - result.mean_hit("Gen (naive)")
    ) < 1e-9


def test_ablation_server_order(benchmark, bench_topologies):
    """Successive-greedy server order is a second-order effect."""
    plan = experiments.ablation_server_order_plan(
        num_topologies=max(2, bench_topologies), seed=0
    )
    result = benchmark.pedantic(
        run_plan, args=(plan,), rounds=1, iterations=1
    ).comparison()
    attach_comparison(benchmark, result)
    hits = [result.mean_hit(algo) for algo in result.hit_ratios]
    assert max(hits) - min(hits) < 0.15


def test_ablation_replacement(benchmark, bench_topologies):
    """§IV-A re-placement loop: backbone traffic grows with the trigger
    threshold while the hit-ratio benefit stays marginal (Fig. 7's point)."""
    plan = experiments.ablation_replacement_plan(
        thresholds=(0.0, 0.9, 1.0),
        num_runs=max(2, bench_topologies),
        horizon_s=3600.0,
        seed=0,
    )
    result = benchmark.pedantic(
        run_plan, args=(plan,), rounds=1, iterations=1
    ).replacement()
    print()
    print(result.to_table())
    assert result.bytes_shipped[0.0].mean == 0
    assert result.bytes_shipped[1.0].mean > result.bytes_shipped[0.9].mean - 1e-9
    # Replacement never buys a large improvement — the paper's robustness
    # argument for rare re-placement.
    assert (
        result.mean_hit[1.0].mean - result.mean_hit[0.0].mean
    ) < 0.15


def test_ablation_dp_backend(benchmark, bench_topologies):
    """Knapsack backend choice barely moves quality."""
    plan = experiments.ablation_dp_backend_plan(
        num_topologies=max(2, bench_topologies), seed=0
    )
    result = benchmark.pedantic(
        run_plan, args=(plan,), rounds=1, iterations=1
    ).comparison()
    attach_comparison(benchmark, result)
    exact = result.mean_hit("Spec (exact)")
    assert result.mean_hit("Spec (value_dp)") >= 0.85 * exact
    assert result.mean_hit("Spec (weight_dp)") >= 0.85 * exact
