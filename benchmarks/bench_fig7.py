"""Bench: regenerate Fig. 7 (robustness to user mobility)."""

from repro.api import run_plan
from repro.sim import experiments
from repro.utils.tables import format_table


def test_fig7_mobility(benchmark, bench_topologies):
    """Fig. 7: a fixed placement loses only a few percent over 2 h of
    pedestrian/bike/vehicle mobility (paper: 5.4-6.4%)."""
    plan = experiments.fig7_plan(
        num_runs=max(2, bench_topologies),
        horizon_s=7200.0,
        sample_every=120,  # evaluate every 10 simulated minutes
        seed=0,
    )
    result = benchmark.pedantic(
        run_plan, args=(plan,), rounds=1, iterations=1
    ).mobility()
    print()
    print(result.to_table())
    for algo in result.series:
        degradation = result.degradation(algo)
        benchmark.extra_info[f"{algo} degradation"] = round(degradation, 4)
        # Allow generous slack over the paper's ~6%: we average far fewer
        # runs, but the qualitative claim is "no collapse over 2 h".
        assert degradation < 0.4, algo
        assert result.series[algo].means[0] > 0.3, algo
