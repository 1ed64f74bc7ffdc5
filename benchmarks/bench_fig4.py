"""Bench: regenerate Fig. 4 (special case, Spec vs Gen vs Independent).

Each panel asserts the paper's shape: hit ratio grows with capacity and
server count, shrinks with user count, and the parameter-sharing
algorithms clearly beat Independent Caching with Spec on top.
"""

from conftest import attach_series  # type: ignore[import-not-found]

from repro.api import run_plan
from repro.sim import experiments
from repro.utils.stats import average_relative_gain


def _ordering_holds(result, slack: float = 0.02) -> None:
    spec = result.mean_of("TrimCaching Spec")
    gen = result.mean_of("TrimCaching Gen")
    independent = result.mean_of("Independent Caching")
    assert spec.mean() >= gen.mean() - slack
    assert gen.mean() > independent.mean()


def test_fig4a_capacity(benchmark, bench_topologies, bench_scale):
    """Fig. 4(a): rising in Q; Spec >= Gen > Independent."""
    plan = experiments.fig4a_plan(
        num_topologies=bench_topologies, seed=0, scale=bench_scale
    )
    result = benchmark.pedantic(
        run_plan, args=(plan,), rounds=1, iterations=1
    )
    attach_series(benchmark, result)
    _ordering_holds(result)
    for algo in result.series:
        means = result.mean_of(algo)
        assert means[-1] >= means[0] - 1e-9, algo
    gain = average_relative_gain(
        result.mean_of("TrimCaching Spec"),
        result.mean_of("Independent Caching"),
    )
    benchmark.extra_info["spec_vs_independent_gain"] = round(gain, 4)
    assert gain > 0.05  # paper: ~34%


def test_fig4b_servers(benchmark, bench_topologies, bench_scale):
    """Fig. 4(b): rising in M; same ordering."""
    plan = experiments.fig4b_plan(
        num_topologies=bench_topologies, seed=0, scale=bench_scale
    )
    result = benchmark.pedantic(
        run_plan, args=(plan,), rounds=1, iterations=1
    )
    attach_series(benchmark, result)
    _ordering_holds(result)
    for algo in ("TrimCaching Spec", "TrimCaching Gen"):
        means = result.mean_of(algo)
        assert means[-1] >= means[0] - 0.03, algo


def test_fig4c_users(benchmark, bench_topologies, bench_scale):
    """Fig. 4(c): falling in K; same ordering."""
    plan = experiments.fig4c_plan(
        num_topologies=bench_topologies, seed=0, scale=bench_scale
    )
    result = benchmark.pedantic(
        run_plan, args=(plan,), rounds=1, iterations=1
    )
    attach_series(benchmark, result)
    _ordering_holds(result)
    for algo in result.series:
        means = result.mean_of(algo)
        assert means[-1] <= means[0] + 0.03, algo
