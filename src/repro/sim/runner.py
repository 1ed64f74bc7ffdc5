"""Plan task functions, seed derivations and experiment results.

The paper's figures sweep one parameter (capacity, server count, user
count), averaging each point over 100 random topologies. Every plan
runs as a task grid in :func:`repro.exec.execute_plan`; this module
holds the pieces its tasks and folds share: the task functions
(:func:`_run_sweep_slice` for sweep and comparison tasks: build the
scenario, run each algorithm, score the placement by expected hit
ratio, Rayleigh Monte Carlo or a stratified user sample;
:func:`_run_mobility_run` and :func:`_run_replacement_run` for one run
of a study), the seed derivations (:func:`scenario_seed`,
:func:`study_seed`, :func:`library_rng_tag`), the sweep metadata, and
the result types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import SolverResult
from repro.sim.evaluator import EvalSpec, PlacementEvaluator
from repro.sim.scenario import Scenario, build_scenario
from repro.utils.stats import RunningStats, SeriesStats
from repro.utils.tables import format_table


def scenario_seed(root_seed: int, x_index: int, topology_index: int) -> int:
    """The scenario seed of one (sweep point, topology) grid cell.

    The single source of truth for the sweep seed derivation: the
    ``repro.exec`` task grid calls this on every backend, so
    cached/resumed tasks can never fold outcomes computed under a
    different stream. (Python hashes of int tuples are
    process-stable; ``PYTHONHASHSEED`` only perturbs str/bytes.)
    """
    return hash((root_seed, x_index, topology_index)) % (2**31)


def study_seed(root_seed: int, index: int) -> int:
    """The scenario seed of one topology or run of a non-sweep plan.

    Comparison plans draw topology ``index`` from it; mobility and
    replacement studies draw run ``index``. Same int-tuple hash as
    :func:`scenario_seed`.
    """
    return hash((root_seed, index)) % (2**31)


def library_rng_tag(x_index: int) -> str:
    """RNG-child tag of sweep point ``x_index``'s shared model library."""
    return f"library-x{x_index}"


def sweep_metadata(
    num_topologies: int, evaluation: str, seed: int, workers: int
) -> Dict[str, Any]:
    """The metadata dict every executed sweep carries.

    Cached artifacts embed this dict verbatim, so its keys are part of
    the pinned result bytes.
    """
    return {
        "num_topologies": num_topologies,
        "evaluation": evaluation,
        "seed": seed,
        "workers": workers,
    }


@dataclass
class ExperimentResult:
    """One reproduced figure/table: x values + one series per algorithm."""

    name: str
    x_label: str
    x_values: Sequence[float]
    series: Dict[str, SeriesStats]
    runtimes: Dict[str, SeriesStats] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def mean_of(self, algorithm: str) -> np.ndarray:
        """Mean hit-ratio series of one algorithm."""
        return self.series[algorithm].means

    def to_table(self, float_format: str = ".4f") -> str:
        """Render the result as a paper-style ASCII table."""
        algorithms = list(self.series)
        headers = [self.x_label]
        for algorithm in algorithms:
            headers.extend([f"{algorithm} (mean)", f"{algorithm} (std)"])
        rows = []
        for index, x_value in enumerate(self.x_values):
            row: List[Any] = [x_value]
            for algorithm in algorithms:
                stats = self.series[algorithm]
                row.extend([float(stats.means[index]), float(stats.stds[index])])
            rows.append(row)
        return format_table(headers, rows, float_format=float_format, title=self.name)


@dataclass
class AlgorithmComparison:
    """Hit ratio + runtime per algorithm at one fixed setting.

    The shape of the Fig. 6 panels and the point ablations: no sweep
    axis, one accumulator pair per algorithm.
    """

    name: str
    hit_ratios: Dict[str, RunningStats]
    runtimes: Dict[str, RunningStats]
    metadata: Dict[str, Any] = field(default_factory=dict)

    def mean_hit(self, algorithm: str) -> float:
        """Mean hit ratio of one algorithm."""
        return self.hit_ratios[algorithm].mean

    def mean_runtime(self, algorithm: str) -> float:
        """Mean wall-clock runtime of one algorithm."""
        return self.runtimes[algorithm].mean

    def speedup(self, fast: str, slow: str) -> float:
        """How many times faster ``fast`` is than ``slow``."""
        fast_time = self.mean_runtime(fast)
        if fast_time == 0:
            return float("inf")
        return self.mean_runtime(slow) / fast_time

    def to_table(self) -> str:
        """Rows: algorithm, mean/std hit ratio, mean runtime."""
        rows = []
        for algorithm in self.hit_ratios:
            rows.append(
                [
                    algorithm,
                    self.hit_ratios[algorithm].mean,
                    self.hit_ratios[algorithm].std,
                    f"{self.runtimes[algorithm].mean:.3e}",
                ]
            )
        return format_table(
            ["algorithm", "hit ratio (mean)", "hit ratio (std)", "runtime (s)"],
            rows,
            title=self.name,
        )


@dataclass
class Fig7Result:
    """Hit-ratio time series per algorithm under user mobility."""

    times_s: np.ndarray
    series: Dict[str, SeriesStats]

    def degradation(self, algorithm: str) -> float:
        """Relative hit-ratio drop from t=0 to the horizon end."""
        means = self.series[algorithm].means
        if means[0] == 0:
            return 0.0
        return float((means[0] - means[-1]) / means[0])

    def to_table(self) -> str:
        """Rows: time (min), one mean column per algorithm."""
        algorithms = list(self.series)
        headers = ["time (min)"] + algorithms
        rows = []
        for index, t in enumerate(self.times_s):
            row: List[Any] = [float(t / 60.0)]
            row.extend(
                float(self.series[algo].means[index]) for algo in algorithms
            )
            rows.append(row)
        return format_table(
            headers, rows, title="Fig. 7 — cache hit ratio over time (mobility)"
        )


@dataclass
class ReplacementAblation:
    """Per-threshold outcome of the §IV-A re-placement loop."""

    thresholds: Sequence[float]
    mean_hit: Dict[float, RunningStats]
    replacements: Dict[float, RunningStats]
    bytes_shipped: Dict[float, RunningStats]

    def to_table(self) -> str:
        """Rows: threshold, time-avg hit ratio, replacements, traffic."""
        rows = []
        for threshold in self.thresholds:
            rows.append(
                [
                    "never" if threshold == 0 else f"{threshold:.2f}",
                    self.mean_hit[threshold].mean,
                    self.replacements[threshold].mean,
                    f"{self.bytes_shipped[threshold].mean / 1e6:.0f} MB",
                ]
            )
        return format_table(
            [
                "replace when below",
                "time-avg hit ratio",
                "replacements",
                "backbone traffic",
            ],
            rows,
            title="Ablation — threshold-triggered re-placement (2 h horizon)",
        )


def _score_result(
    scenario: Scenario,
    result: SolverResult,
    evaluation: str,
    num_realizations: int,
    seed: int,
    sample_users: Optional[int] = None,
    sample_strata: int = 4,
) -> float:
    """Score one solver result by the plan's ``evaluation`` mode."""
    if evaluation == "expected":
        return result.hit_ratio
    evaluator = PlacementEvaluator(scenario)
    if evaluation == "sampled":
        spec = EvalSpec(
            sample_users=int(sample_users),
            strata=sample_strata,
            seed=seed,
        )
        return evaluator.sampled_hit_ratio(result.placement, spec).estimate
    outcome = evaluator.monte_carlo_hit_ratio(
        result.placement, num_realizations, seed
    )
    return outcome.mean


def _run_sweep_slice(
    task: Tuple,
) -> List[Dict[str, Tuple[float, float]]]:
    """Run one sweep task over its list of topology seeds.

    Module-level so every execution backend can pickle it; each backend
    runs literally this code, which is what makes parallel results
    bit-identical to serial ones. Returns, per topology seed in order,
    ``{algo: (score, runtime_s)}``.
    """
    (
        config,
        scenario_seeds,
        algorithms,
        evaluation,
        num_realizations,
        library,
        sample_users,
        sample_strata,
    ) = task
    from repro import obs

    outcomes: List[Dict[str, Tuple[float, float]]] = []
    for scenario_seed in scenario_seeds:
        with obs.span("task.scenario_build"):
            scenario = build_scenario(config, scenario_seed, library=library)
        per_algo: Dict[str, Tuple[float, float]] = {}
        for algo_name, solver in algorithms.items():
            with obs.span("task.solve", algo=algo_name):
                result = solver.solve(scenario.instance)
            with obs.span("task.eval", evaluation=evaluation):
                score = _score_result(
                    scenario,
                    result,
                    evaluation,
                    num_realizations,
                    scenario_seed,
                    sample_users,
                    sample_strata,
                )
            per_algo[algo_name] = (score, result.runtime_s)
        outcomes.append(per_algo)
    return outcomes


#: Series labels of a replacement study, one value per threshold each.
REPLACEMENT_METRICS = ("time-avg hit ratio", "replacements", "backbone traffic (bytes)")


def _run_mobility_run(task: Tuple) -> List[Dict[str, Tuple[float, ...]]]:
    """One mobility run: ``[{label: hit ratio at each sample time}]``."""
    from repro.sim.mobility_eval import MobilityStudy

    config, scenario_seed, mobility_seed, spec, algorithms = task
    scenario = build_scenario(config, scenario_seed)
    # One study per run: every solver walks the same snapshots.
    study = MobilityStudy(scenario, sample_every=spec.sample_every)
    hit_ratios: Dict[str, Tuple[float, ...]] = {}
    for label, solver in algorithms.items():
        result = solver.solve(scenario.instance)
        trace = study.run(
            result.placement, horizon_s=spec.horizon_s, seed=mobility_seed
        )
        hit_ratios[label] = tuple(trace.hit_ratios.tolist())
    return [hit_ratios]


def _run_replacement_run(task: Tuple) -> List[Dict[str, Tuple[float, ...]]]:
    """One replacement run: ``[{metric: value at each threshold}]``."""
    from repro.sim.mobility_eval import MobilityStudy
    from repro.sim.replacement import ReplacementPolicy

    config, scenario_seed, mobility_seed, spec, build_solver = task
    scenario = build_scenario(config, scenario_seed)
    # One study per run: every threshold walks the same snapshots.
    study = MobilityStudy(scenario, sample_every=spec.check_every)
    traces = [
        ReplacementPolicy(study, build_solver(), threshold=threshold).run(
            horizon_s=spec.horizon_s, seed=mobility_seed
        )
        for threshold in spec.thresholds
    ]
    values = (
        tuple(trace.mean_hit_ratio for trace in traces),
        tuple(float(trace.num_replacements) for trace in traces),
        tuple(float(trace.total_bytes_shipped) for trace in traces),
    )
    return [dict(zip(REPLACEMENT_METRICS, values))]
