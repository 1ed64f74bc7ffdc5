"""Gated speed targets: seven ratios, each timed on its own guarded pair.

Each target times two ways of computing one answer, asserts the two
answers ``==`` on the timed pair, and holds the ratio to its bound:

* ``gen`` >= 5x: :class:`TrimCachingGen` vs the seed lazy greedy
  (:class:`ReferenceGen`) on ``gen_paper_tight`` (``M=30, K=200,
  I=120``, 0.06 GB); placements ``==``.
* ``sweep`` >= 2x: a capacity sweep (``M=30, K=500, I=300``, 8
  topologies x 3 points), the ``reference-*`` solvers on dense
  feasibility vs the solvers on sparse feasibility, both serial;
  series ``==``.
* ``spec_kernel`` >= 1.5x: :class:`TrimCachingSpec` at its defaults vs
  ``knapsack_cache=False, prefix_prune=False``; placements ``==``.
* ``scenario`` >= 3x: the RNG-governed scenario stage, ``rng_scheme``
  v1 (the seed's per-user loop) vs v2. The streams differ, so the guard
  is the demand matrix's shape and row sums, not ``==``.
* ``serve`` >= 10x (``--quick``: 2x): median per-event speedup of a
  resident :class:`PlacementService` over :func:`resolve_from_scratch`
  on a seeded trace; every post-event hit ratio ``==``. Not met at
  paper scale; the target stays.
* ``obs_enabled_overhead`` <= 5%: a sweep's slowdown with metrics and
  tracing on; series ``==`` with obs off.
* ``obs_disabled_overhead`` <= 1%: that sweep's span count times the
  cost of one disabled ``obs.span`` call, over the sweep.

Each CPU-bound pair is timed by :func:`alternating_min_cpu` (min-of-N
``time.process_time``, the two sides in turn); serve compares the
per-event latencies both paths measure themselves, best over passes.
Results go to ``--output`` (default ``BENCH_solvers.json``): ``meta``
holds each target and whether it is met, and each section has its own
key. Every other top-level key already in the file (``bench_scale.py``
writes ``scale``) is written back unchanged.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py            # full
    PYTHONPATH=src python benchmarks/bench_perf.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_perf.py --strict   # exit 1 if unmet
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.api import ExperimentPlan, SolverSpec, SweepSpec
from repro.core.gen import TrimCachingGen
from repro.core.reference import ReferenceGen
from repro.core.spec import TrimCachingSpec
from repro.exec import execute_plan
from repro.serve.events import generate_event_trace
from repro.serve.resolver import resolve_from_scratch
from repro.serve.service import PlacementService
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario
from repro.utils.units import GB

# The seven targets, as the module docstring lists them.
GEN_TARGET_SPEEDUP = 5.0
SWEEP_TARGET_SPEEDUP = 2.0
SPEC_KERNEL_TARGET_SPEEDUP = 1.5
SCENARIO_TARGET_SPEEDUP = 3.0
SERVE_TARGET_SPEEDUP = 10.0
SERVE_QUICK_TARGET_SPEEDUP = 2.0  # at smoke scale a stateless rebuild is cheap
OBS_ENABLED_OVERHEAD_TARGET = 0.05
OBS_DISABLED_OVERHEAD_TARGET = 0.01


@dataclass(frozen=True)
class Gate:
    """One target: a measured ``value`` held against its ``bound``."""

    name: str
    label: str
    value: float
    bound: float
    at_most: bool = False  # an overhead fraction; otherwise a speedup

    @property
    def met(self) -> bool:
        if self.at_most:
            return self.value <= self.bound
        return self.value >= self.bound

    def line(self) -> str:
        if self.at_most:
            measured = f"{self.value:.4%} (target <= {self.bound:.0%})"
        else:
            measured = f"{self.value:.2f}x (target >= {self.bound}x)"
        return f"{self.label}: {measured} — {'MET' if self.met else 'NOT MET'}"


def alternating_min_cpu(fns, min_time: float, min_reps: int = 5):
    """Min-of-N CPU time of each callable, sampled in alternation.

    Each round runs every callable once, timed with
    ``time.process_time``; rounds repeat until ``min_time`` CPU seconds
    have passed and ``min_reps`` rounds have run. Alternating spreads a
    slow spell over every callable instead of one, and the minimum keeps
    the sample least disturbed by it. Returns ``(seconds, last result)``
    per callable.
    """
    results = [fn() for fn in fns]  # warm-up (also builds caches)
    best = [float("inf")] * len(fns)
    start = time.process_time()
    rounds = 0
    while rounds < min_reps or time.process_time() - start < min_time:
        for index, fn in enumerate(fns):
            began = time.process_time()
            results[index] = fn()
            best[index] = min(best[index], time.process_time() - began)
        rounds += 1
    return list(zip(best, results))


def instance_params(quick: bool, storage_gb: float, **extra):
    """``M=30, K=200, I=120`` with 30 requests a user (quick: 8/48/30/12)."""
    return dict(
        num_servers=8 if quick else 30,
        num_users=48 if quick else 200,
        num_models=30 if quick else 120,
        requests_per_user=12 if quick else 30,
        storage_bytes=int(storage_gb * GB),
        **extra,
    )


def sweep_params(quick: bool, num_users: int = 500, num_models: int = 300):
    """The special-case sweep base the sweep, scenario and obs pairs use."""
    return dict(
        num_servers=8 if quick else 30,
        num_users=60 if quick else num_users,
        num_models=30 if quick else num_models,
        requests_per_user=12 if quick else 30,
        deadline_range_s=(1.0, 2.0),
        library_case="special",
    )


def sweep_plan(params, points, num_topologies, prefix="", feasibility="sparse"):
    """Gen + Independent over capacity ``points``; ``prefix="reference-"``
    runs the seed solvers under the same labels."""
    return ExperimentPlan(
        name="bench sweep",
        sweep=SweepSpec("capacity", points),
        solvers=(
            SolverSpec(f"{prefix}gen", label="Gen"),
            SolverSpec(f"{prefix}independent", label="Independent"),
        ),
        base=params,
        num_topologies=num_topologies,
        seed=7,
        scale=1.0,
        feasibility=feasibility,
    )


def same_series(left, right) -> bool:
    return all(
        (left.series[a].means == right.series[a].means).all()
        and (left.series[a].stds == right.series[a].stds).all()
        for a in left.series
    )


def gen_section(quick: bool):
    """Vectorised Gen vs the seed lazy greedy; placements ``==``."""
    name, seed = "gen_quick" if quick else "gen_paper_tight", 1
    params = instance_params(quick, 0.06)
    instance = build_scenario(ScenarioConfig(**params), seed=seed).instance
    (seed_s, seed_result), (new_s, new) = alternating_min_cpu(
        [
            lambda: ReferenceGen(accelerated=True).solve(instance),
            lambda: TrimCachingGen(accelerated=True).solve(instance),
        ],
        0.3 if quick else 2.0,
    )
    assert new.placement == seed_result.placement, f"{name}: placements diverge"
    speedup = seed_s / new_s
    record = {name: {
        "instance": {**params, "seed": seed},
        "greedy_steps": new.stats["greedy_steps"],
        "hit_ratio": round(new.hit_ratio, 6),
        "seed_lazy_s": seed_s,
        "new_accelerated_s": new_s,
        "speedup_vs_seed_lazy": speedup,
    }}
    gate = Gate("gen", f"Gen ({name}) vs seed lazy", speedup, GEN_TARGET_SPEEDUP)
    return record, [gate]


def sweep_section(quick: bool):
    """Seed solvers on dense feasibility vs solvers on sparse; serial.

    Both sides run in this process, so ``process_time`` sees all of
    their work; the series are asserted ``==``.
    """
    params = sweep_params(quick)
    num_topologies = 2 if quick else 8
    points = (0.15, 0.3) if quick else (0.15, 0.3, 0.6)

    seed_plan = sweep_plan(params, points, num_topologies, "reference-", "dense")
    plan = sweep_plan(params, points, num_topologies)
    (seed_s, seed_result), (sparse_s, sparse_result) = alternating_min_cpu(
        [lambda: execute_plan(seed_plan)[0], lambda: execute_plan(plan)[0]],
        0.3 if quick else 0.0,
        min_reps=2,
    )
    assert same_series(seed_result, sparse_result), "sweep series diverge"
    speedup = seed_s / sparse_s
    record = {"paper_sweep": {
        "instance": {**params, "seed": 7},
        "num_topologies": num_topologies,
        "sweep_points_gb": list(points),
        "seed_dense_serial_s": seed_s,
        "sparse_serial_s": sparse_s,
        "speedup_end_to_end": speedup,
    }}
    gate = Gate("sweep", "Sweep, seed dense -> sparse", speedup, SWEEP_TARGET_SPEEDUP)
    return record, [gate]


def kernels_section(quick: bool):
    """Spec at its defaults vs the prior traversal; placements ``==``."""
    params = instance_params(quick, 0.12, library_case="special")
    name = "spec_kernel_quick" if quick else "spec_kernel"
    instance = build_scenario(ScenarioConfig(**params), seed=42).instance
    (legacy_s, legacy), (new_s, new) = alternating_min_cpu(
        [
            lambda: TrimCachingSpec(
                epsilon=0.1, knapsack_cache=False, prefix_prune=False
            ).solve(instance),
            lambda: TrimCachingSpec(epsilon=0.1).solve(instance),
        ],
        0.3 if quick else 2.0,
        min_reps=3,
    )
    assert new.placement == legacy.placement, f"{name}: placements diverge"
    speedup = legacy_s / new_s
    record = {name: {
        "instance": {**params, "seed": 42},
        "hit_ratio": round(new.hit_ratio, 6),
        "legacy_traversal_s": legacy_s,
        "pruned_cached_s": new_s,
        "speedup": speedup,
        "knapsack_cache_hits": new.stats["knapsack_cache_hits"],
        "knapsack_cache_misses": new.stats["knapsack_cache_misses"],
    }}
    gate = Gate("spec_kernel", f"Spec kernel ({name}) vs prior traversal",
                speedup, SPEC_KERNEL_TARGET_SPEEDUP)
    return record, [gate]


def scenario_section(quick: bool):
    """The RNG-governed scenario stage, ``rng_scheme`` v1 vs v2.

    The schemes draw different streams, so there is no ``==`` guard;
    both must build a demand matrix of the same shape whose rows sum
    to one.
    """
    from repro.network.geometry import uniform_coords, uniform_points
    from repro.network.users import User, UserBatch
    from repro.sim.scenario import _build_demand
    from repro.utils.rng import RngFactory

    params = sweep_params(quick)

    def rng_stage(config):
        """The draws ``rng_scheme`` governs, in build_scenario's order:
        user positions and QoS vectors, then the demand matrix."""
        factory = RngFactory(7)
        qos_rng = factory.child("qos")
        deadline, inference = (
            config.deadline_range_s, config.inference_latency_range_s
        )
        area, users_rng = config.area_side_m, factory.child("user-positions")
        if config.rng_scheme == "v2":
            shape = (config.num_users, config.num_models)
            users = UserBatch(
                uniform_coords(config.num_users, area, users_rng),
                qos_rng.uniform(*deadline, size=shape),
                qos_rng.uniform(*inference, size=shape),
                config.active_probability,
            )
        else:
            # The seed's per-user loop: the target is defined against it.
            positions = uniform_points(config.num_users, area, users_rng)
            per_user = config.num_models
            users = [
                User(
                    user_id=index,
                    position=position,
                    deadlines_s=qos_rng.uniform(*deadline, size=per_user),
                    inference_latency_s=qos_rng.uniform(
                        *inference, size=per_user
                    ),
                    active_probability=config.active_probability,
                )
                for index, position in enumerate(positions)
            ]
        return users, _build_demand(config, factory.child("demand"))

    v1_config = ScenarioConfig(**params)
    v2_config = ScenarioConfig(**params, rng_scheme="v2")
    (v1_s, (_, v1_demand)), (v2_s, (_, v2_demand)) = alternating_min_cpu(
        [lambda: rng_stage(v1_config), lambda: rng_stage(v2_config)],
        0.6 if quick else 3.0,
    )
    assert v1_demand.shape == v2_demand.shape
    assert np.allclose(v1_demand.sum(axis=1), 1.0)
    assert np.allclose(v2_demand.sum(axis=1), 1.0)
    speedup = v1_s / v2_s
    record = {"scenario_build": {
        "instance": {**params, "seed": 7},
        "v1_rng_stage_s": v1_s,
        "v2_rng_stage_s": v2_s,
        "speedup_rng_stage": speedup,
    }}
    gate = Gate("scenario", "Scenario RNG stage", speedup, SCENARIO_TARGET_SPEEDUP)
    return record, [gate]


def serve_section(quick: bool):
    """Resident service vs stateless re-solve on one seeded trace.

    Both sides process the same mutated-scenario sequence. Every
    post-event hit ratio is asserted ``==`` and the final placements
    equal before the per-event latencies (best over passes, a fresh
    service each pass) are compared.
    """
    if quick:
        key, seed, num_events, passes = "serve_quick", 7, 40, 2
        params = dict(num_servers=6, num_users=40, num_models=24,
                      requests_per_user=8, storage_bytes=int(0.12 * GB))
        target = SERVE_QUICK_TARGET_SPEEDUP
    else:
        key, seed, num_events, passes = "serve_paper", 1, 80, 3
        params = instance_params(False, 0.06)
        target = SERVE_TARGET_SPEEDUP
    scenario = build_scenario(ScenarioConfig(**params), seed=seed)
    events = list(generate_event_trace(scenario, num_events, seed=2))

    scratch_s = np.full(num_events, np.inf)
    resident_s = np.full(num_events, np.inf)
    for _ in range(passes):
        scratch = resolve_from_scratch(scenario, events, solver="gen")
        scratch_s = np.minimum(scratch_s, [r.seconds for r in scratch])
        service = PlacementService(scenario, solver="gen")
        served = service.process_trace(events)
        resident_s = np.minimum(resident_s, [r.latency_s for r in served])
        for record, result in zip(scratch, served):
            assert record.hit_ratio == result.hit_ratio
        assert np.array_equal(
            service.state.placement.matrix, scratch[-1].placement.matrix
        )

    speedup = float(np.median(scratch_s / resident_s))
    record = {key: {
        "instance": {**params, "seed": seed},
        "trace": {"num_events": num_events, "seed": 2, "passes": passes},
        "solver": "gen",
        "counters": dict(service.counters),
        "resident_median_s": float(np.median(resident_s)),
        "resident_p90_s": float(np.percentile(resident_s, 90)),
        "scratch_median_s": float(np.median(scratch_s)),
        "speedup_median_event": speedup,
    }}
    return record, [Gate("serve", f"Serve ({key}) per event", speedup, target)]


def obs_section(quick: bool):
    """A sweep with obs off vs metrics + tracing on; series ``==``.

    The disabled path's cost (~ns per no-op span against a sweep of
    seconds) is below any differential timing, so it is bounded
    instead: the enabled run's span count (the number of ``obs.span``
    calls the disabled run makes) times the CPU cost of one no-op call.
    """
    params = sweep_params(quick, num_users=200, num_models=120)
    num_topologies = 2 if quick else 4
    plan = sweep_plan(params, (0.15, 0.3), num_topologies)
    spans = []

    def enabled():
        obs.enable(metrics=True, tracing=True)
        try:
            result = execute_plan(plan)[0]
            spans[:] = [len(obs.tracer().spans)]
        finally:
            obs.disable()
        return result

    obs.disable()
    (disabled_s, dark), (enabled_s, lit) = alternating_min_cpu(
        [lambda: execute_plan(plan)[0], enabled],
        0.3 if quick else 0.0,
        min_reps=3,
    )
    assert same_series(dark, lit), "obs on/off sweeps diverge"

    reps = 200_000
    began = time.process_time()
    for _ in range(reps):
        with obs.span("obs.bench.noop"):
            pass
    noop_span_s = (time.process_time() - began) / reps
    disabled_overhead = spans[0] * noop_span_s / disabled_s
    enabled_overhead = max(0.0, enabled_s / disabled_s - 1.0)
    record = {"sweep_overhead": {
        "instance": {**params, "seed": 7},
        "num_topologies": num_topologies,
        "sweep_points_gb": [0.15, 0.3],
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "enabled_overhead": enabled_overhead,
        "spans_recorded": spans[0],
        "noop_span_ns": noop_span_s * 1e9,
        "disabled_overhead_est": disabled_overhead,
    }}
    gates = [
        Gate("obs_enabled_overhead", "Obs enabled slowdown",
             enabled_overhead, OBS_ENABLED_OVERHEAD_TARGET, at_most=True),
        Gate("obs_disabled_overhead", "Obs disabled estimate",
             disabled_overhead, OBS_DISABLED_OVERHEAD_TARGET, at_most=True),
    ]
    return record, gates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time the seven speed targets.")
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 if a target is unmet (full mode only)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_solvers.json",
        help="results file; keys this script does not write are kept",
    )
    args = parser.parse_args(argv)

    # Looked up at call time, in run order; each is an output key.
    sections = {
        "gen": gen_section,
        "sweep": sweep_section,
        "kernels": kernels_section,
        "scenario": scenario_section,
        "serve": serve_section,
        "obs": obs_section,
    }
    meta = {
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    results = {"meta": meta}
    gates = []
    for name, section in sections.items():
        results[name], section_gates = section(args.quick)
        for gate in section_gates:
            meta[f"{gate.name}_target"] = gate.bound
            meta[f"{gate.name}_target_met"] = gate.met
            print(gate.line(), flush=True)
        gates.extend(section_gates)

    # Keep every top-level key another script wrote (``scale``).
    if args.output.exists():
        previous = json.loads(args.output.read_text())
        for key, value in previous.items():
            results.setdefault(key, value)
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    if args.strict and not args.quick and not all(g.met for g in gates):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
