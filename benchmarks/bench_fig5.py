"""Bench: regenerate Fig. 5 (general case, Gen vs Independent)."""

from conftest import attach_series  # type: ignore[import-not-found]

from repro.api import run_plan
from repro.sim import experiments


def _gen_beats_independent(result) -> None:
    gen = result.mean_of("TrimCaching Gen")
    independent = result.mean_of("Independent Caching")
    assert gen.mean() > independent.mean()
    assert (gen >= independent - 0.02).all()


def test_fig5a_capacity(benchmark, bench_topologies, bench_scale):
    """Fig. 5(a): rising in Q; Gen > Independent."""
    plan = experiments.fig5a_plan(
        num_topologies=bench_topologies, seed=0, scale=bench_scale
    )
    result = benchmark.pedantic(
        run_plan, args=(plan,), rounds=1, iterations=1
    )
    attach_series(benchmark, result)
    _gen_beats_independent(result)
    for algo in result.series:
        means = result.mean_of(algo)
        assert means[-1] >= means[0] - 1e-9, algo


def test_fig5b_servers(benchmark, bench_topologies, bench_scale):
    """Fig. 5(b): rising in M; Gen > Independent."""
    plan = experiments.fig5b_plan(
        num_topologies=bench_topologies, seed=0, scale=bench_scale
    )
    result = benchmark.pedantic(
        run_plan, args=(plan,), rounds=1, iterations=1
    )
    attach_series(benchmark, result)
    _gen_beats_independent(result)


def test_fig5c_users(benchmark, bench_topologies, bench_scale):
    """Fig. 5(c): falling in K; Gen > Independent."""
    plan = experiments.fig5c_plan(
        num_topologies=bench_topologies, seed=0, scale=bench_scale
    )
    result = benchmark.pedantic(
        run_plan, args=(plan,), rounds=1, iterations=1
    )
    attach_series(benchmark, result)
    _gen_beats_independent(result)
    for algo in result.series:
        means = result.mean_of(algo)
        assert means[-1] <= means[0] + 0.03, algo
