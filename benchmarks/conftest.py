"""Benchmark-harness configuration.

Every benchmark regenerates one paper table/figure by running its plan
from :mod:`repro.sim.experiments` and attaches the reproduced series to
``benchmark.extra_info`` so the numbers land in the saved benchmark JSON.

Scale knobs: the environment variable ``REPRO_BENCH_TOPOLOGIES`` overrides
how many random topologies each figure averages over (paper: 100; default
here: small, for wall-clock sanity), and ``REPRO_BENCH_SCALE`` overrides
the library/storage scale of the Fig. 4/5 sweeps (1.0 = the paper's full
300-model setting; see ``repro.sim.experiments.DEFAULT_SCALE``).
"""

import os

import pytest


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, default))
    except ValueError:
        return default


@pytest.fixture(scope="session")
def bench_topologies() -> int:
    """Topologies per figure point (paper: 100)."""
    return _env_int("REPRO_BENCH_TOPOLOGIES", 2)


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """Library/storage scale of the sweep figures (paper: 1.0)."""
    return _env_float("REPRO_BENCH_SCALE", 0.1)


def attach_series(benchmark, result) -> None:
    """Record an ExperimentResult's series in the benchmark JSON."""
    benchmark.extra_info["x_values"] = list(result.x_values)
    for algo, series in result.series.items():
        benchmark.extra_info[f"{algo} (mean)"] = [
            round(float(v), 4) for v in series.means
        ]
    print()
    print(result.to_table())


def attach_comparison(benchmark, result) -> None:
    """Record an AlgorithmComparison in the benchmark JSON."""
    for algo in result.hit_ratios:
        benchmark.extra_info[f"{algo} hit"] = round(result.mean_hit(algo), 4)
        benchmark.extra_info[f"{algo} runtime_s"] = float(
            f"{result.mean_runtime(algo):.3e}"
        )
    print()
    print(result.to_table())
