"""Benchmark the declarative experiment API's plumbing.

Times one small `run_plan()` sweep for scale, then the plan and result
JSON round-trips that plan files, the artifact store, the CLI and CI
rely on. The plan path's results are pinned by the figure goldens
(`tests/api/test_figure_golden.py`), so nothing is compared here.

Usage::

    PYTHONPATH=src python benchmarks/bench_api.py [--quick] [--output out.json]
"""

from __future__ import annotations

import argparse
import json
import time

from repro.api import ExperimentPlan, SolverSpec, SweepSpec, run_plan
from repro.api.plan import plan_from_json, plan_to_json
from repro.sim.serialization import result_set_from_json, result_set_to_json


def bench(quick: bool) -> dict:
    params = dict(
        library_case="special",
        num_servers=6 if quick else 10,
        num_users=30 if quick else 120,
        num_models=20 if quick else 60,
        requests_per_user=10 if quick else 30,
    )
    points = (0.15, 0.3) if quick else (0.15, 0.3, 0.6)
    num_topologies = 2 if quick else 6

    plan = ExperimentPlan(
        name="bench api sweep",
        sweep=SweepSpec("capacity", points),
        solvers=(
            SolverSpec("gen"),
            SolverSpec("independent"),
        ),
        base=params,
        num_topologies=num_topologies,
        seed=7,
        scale=1.0,
    )

    start = time.perf_counter()
    plan_result = run_plan(plan)
    plan_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(100):
        restored = plan_from_json(plan_to_json(plan))
    plan_json_us = (time.perf_counter() - start) / 100 * 1e6
    assert restored == plan

    start = time.perf_counter()
    for _ in range(100):
        result_set_from_json(result_set_to_json(plan_result))
    result_json_us = (time.perf_counter() - start) / 100 * 1e6

    print(
        f"api sweep (M={params['num_servers']}, K={params['num_users']}, "
        f"I={params['num_models']}, {num_topologies} topologies x "
        f"{len(points)} points): run_plan {plan_s:.3f} s; plan JSON "
        f"round-trip {plan_json_us:.0f} us, result-set JSON round-trip "
        f"{result_json_us:.0f} us"
    )
    return {
        "api_overhead": {
            "instance": {**params, "seed": 7},
            "num_topologies": num_topologies,
            "sweep_points_gb": list(points),
            "run_plan_s": plan_s,
            "plan_json_round_trip_us": plan_json_us,
            "result_set_json_round_trip_us": result_json_us,
        }
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--output", help="write results to this JSON file")
    args = parser.parse_args(argv)
    results = bench(args.quick)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
