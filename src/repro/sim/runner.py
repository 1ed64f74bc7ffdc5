"""Multi-topology sweep runner and experiment results.

The paper's figures sweep one parameter (capacity, server count, user
count), averaging each point over 100 random topologies. ``SweepRunner``
reproduces that shape: for every sweep value and topology seed it builds a
scenario (a sparse-primary :class:`~repro.core.placement.
PlacementInstance` — one problem artifact shared from the topology layer
down to the solvers), runs each algorithm, scores the placement (expected
hit ratio by default, Rayleigh Monte Carlo optionally), and aggregates
mean/std series.

Topology seeds are mutually independent, so ``workers=N`` fans the
per-(sweep point, topology-slice) tasks across a process pool. Every
task's scenario seed is fixed up front in the parent (deterministic
seed-per-task scheduling), each worker runs exactly the code the serial
loop runs, and results are folded into the series accumulators in the
serial loop's order — so the resulting ``ExperimentResult`` hit-ratio
series are *bit-identical* to ``workers=1`` (asserted by the test
suite). Only the measured ``runtimes`` vary, as wall-clock always does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import SolverResult
from repro.sim.config import ScenarioConfig
from repro.sim.evaluator import EvalSpec, PlacementEvaluator
from repro.sim.scenario import Scenario, build_scenario
from repro.utils.stats import RunningStats, SeriesStats
from repro.utils.tables import format_table

#: An algorithm is anything with ``solve(instance) -> SolverResult``.
Solver = Any


def scenario_seed(root_seed: int, x_index: int, topology_index: int) -> int:
    """The scenario seed of one (sweep point, topology) grid cell.

    The single source of truth for the sweep seed derivation: the
    serial loop, the process fan-out and the ``repro.exec`` task grid
    all call this, so cached/resumed tasks can never fold outcomes
    computed under a different stream. (Python hashes of int tuples are
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

    Shared by :meth:`SweepRunner.run` and the ``repro.exec`` grid
    executor so their results stay byte-identical — a key added to one
    path cannot silently diverge from the other (cached artifacts
    embed this dict verbatim).
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
    """Score one solver result (shared by the serial and worker paths)."""
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
    """Run one (sweep point, topology-slice) task.

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor` can
    pickle it; the serial path calls it directly, which is what makes the
    parallel results bit-identical — both paths are literally this code.
    Returns, per topology seed in order, ``{algo: (score, runtime_s)}``.
    """
    (
        config,
        scenario_seeds,
        algorithms,
        evaluation,
        num_realizations,
        library,
        feasibility,
        sample_users,
        sample_strata,
    ) = task
    from repro import obs

    outcomes: List[Dict[str, Tuple[float, float]]] = []
    for scenario_seed in scenario_seeds:
        with obs.span("task.scenario_build"):
            scenario = build_scenario(
                config, scenario_seed, library=library, feasibility=feasibility
            )
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


class SweepRunner:
    """Run algorithms over a one-parameter sweep of scenarios.

    Parameters
    ----------
    base_config:
        Scenario configuration shared by all sweep points.
    algorithms:
        Mapping name -> solver. Fresh solver state is the caller's
        responsibility (all built-in solvers are stateless).
    num_topologies:
        Independent topologies per sweep point (paper: 100).
    evaluation:
        ``"expected"`` scores with the objective ``U(X)``;
        ``"monte_carlo"`` additionally averages over Rayleigh fading;
        ``"sampled"`` estimates the expected hit ratio from a
        stratified user sample (``sample_users`` required) — the
        million-user sweeps' evaluator.
    num_realizations:
        Fading draws per topology for Monte-Carlo evaluation.
    seed:
        Root seed; topology ``t`` of sweep point ``v`` derives its own
        stream, so points and repetitions are independent.
    share_library:
        Build the model library once per sweep point and reuse it across
        topologies (the paper fixes the library; topologies vary only in
        geometry/QoS/demand).
    workers:
        Process-pool width for the topology fan-out. ``1`` (default)
        runs in-process; any value yields bit-identical hit-ratio series
        because every task's seed is fixed in the parent and aggregation
        replays the serial order. Tasks are sliced so each worker keeps
        one shared library (and its solver-side caches) warm per slice.
    feasibility:
        Instance representation passed to ``build_scenario``:
        ``"sparse"`` (default, CSR-primary) or ``"dense"`` (the seed's
        up-front tensor; kept for benchmarking the old pipeline).
    backend:
        An explicit :class:`~repro.exec.backends.ExecutionBackend` for
        the task fan-out. ``None`` (default) derives one from
        ``workers``: in-process for ``workers=1``, a process pool
        otherwise — the pre-backend behaviour. Any backend yields
        bit-identical series (seeds are parent-fixed, folding replays
        the serial order).
    sample_users:
        Stratified sample size per topology for ``evaluation="sampled"``
        (sampling seed = the cell's scenario seed, so runs reproduce).
    sample_strata:
        Number of contiguous index strata for the sampled evaluator.
    """

    def __init__(
        self,
        base_config: ScenarioConfig,
        algorithms: Mapping[str, Solver],
        num_topologies: int = 20,
        evaluation: str = "expected",
        num_realizations: int = 200,
        seed: int = 0,
        share_library: bool = True,
        workers: int = 1,
        feasibility: str = "sparse",
        backend: Optional[Any] = None,
        sample_users: Optional[int] = None,
        sample_strata: int = 4,
    ) -> None:
        if not algorithms:
            raise ValueError("at least one algorithm is required")
        if num_topologies < 1:
            raise ValueError("num_topologies must be at least 1")
        if evaluation not in ("expected", "monte_carlo", "sampled"):
            raise ValueError(
                f"evaluation must be 'expected', 'monte_carlo' or "
                f"'sampled', got {evaluation!r}"
            )
        if evaluation == "sampled" and sample_users is None:
            raise ValueError("evaluation='sampled' requires sample_users")
        if sample_users is not None and evaluation != "sampled":
            raise ValueError(
                "sample_users only applies to evaluation='sampled'"
            )
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if feasibility not in ("sparse", "dense"):
            raise ValueError(
                f"feasibility must be 'sparse' or 'dense', got {feasibility!r}"
            )
        self.base_config = base_config
        self.algorithms = dict(algorithms)
        self.num_topologies = num_topologies
        self.evaluation = evaluation
        self.num_realizations = num_realizations
        self.seed = seed
        self.share_library = share_library
        self.workers = workers
        self.feasibility = feasibility
        self.backend = backend
        self.sample_users = sample_users
        self.sample_strata = sample_strata

    # ------------------------------------------------------------------
    def _build_tasks(
        self, x_values: Sequence[float], config_for
    ) -> List[Tuple[int, Tuple]]:
        """Deterministic (x_index, task) list, seeds fixed in the parent.

        Each sweep point's topologies are split into ``workers``
        contiguous slices; a slice carries its shared library once, so
        workers amortise library pickling and per-library solver caches
        across the slice exactly like the serial loop does.
        """
        from repro.sim.scenario import build_library  # local: avoids cycle
        from repro.utils.rng import RngFactory

        slices = max(1, min(self.workers, self.num_topologies))
        per_slice = -(-self.num_topologies // slices)  # ceil division
        tasks: List[Tuple[int, Tuple]] = []
        for x_index, x_value in enumerate(x_values):
            config = config_for(self.base_config, x_value)
            library = None
            if self.share_library:
                factory = RngFactory(self.seed)
                library = build_library(
                    config, factory.child(library_rng_tag(x_index))
                )
            seeds = [
                scenario_seed(self.seed, x_index, topology_index)
                for topology_index in range(self.num_topologies)
            ]
            for start in range(0, self.num_topologies, per_slice):
                tasks.append(
                    (
                        x_index,
                        (
                            config,
                            seeds[start : start + per_slice],
                            self.algorithms,
                            self.evaluation,
                            self.num_realizations,
                            library,
                            self.feasibility,
                            self.sample_users,
                            self.sample_strata,
                        ),
                    )
                )
        return tasks

    def run(
        self,
        name: str,
        x_label: str,
        x_values: Sequence[float],
        config_for: Callable[[ScenarioConfig, float], ScenarioConfig],
    ) -> ExperimentResult:
        """Execute the sweep.

        Parameters
        ----------
        config_for:
            Maps ``(base_config, x_value)`` to the sweep point's config.
        """
        series = {
            algo: SeriesStats(list(x_values)) for algo in self.algorithms
        }
        runtimes = {
            algo: SeriesStats(list(x_values)) for algo in self.algorithms
        }
        # The fan-out lives in the execution-backend layer; the legacy
        # ``workers`` knob maps onto serial / process-pool backends.
        # Local import: repro.exec.executor imports this module.
        from repro.exec.backends import ProcessBackend, SerialBackend

        tasks = self._build_tasks(x_values, config_for)
        payloads = [payload for _, payload in tasks]
        backend = self.backend
        if backend is None:
            backend = (
                ProcessBackend(workers=self.workers)
                if self.workers > 1
                else SerialBackend()
            )
        outcomes = list(backend.map(_run_sweep_slice, payloads))
        # Fold in submission order — exactly the serial nesting, so the
        # accumulated series are bit-identical for any worker count.
        for (x_index, _), slice_outcomes in zip(tasks, outcomes):
            for per_algo in slice_outcomes:
                for algo_name in self.algorithms:
                    score, runtime_s = per_algo[algo_name]
                    series[algo_name].add(x_index, score)
                    runtimes[algo_name].add(x_index, runtime_s)
        return ExperimentResult(
            name=name,
            x_label=x_label,
            x_values=list(x_values),
            series=series,
            runtimes=runtimes,
            metadata=sweep_metadata(
                self.num_topologies, self.evaluation, self.seed, self.workers
            ),
        )
