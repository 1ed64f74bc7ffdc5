"""The benchmark's four workloads.

A run at seed ``s`` cycles over a fixed set of ``inputs`` inputs; input
``k`` comes from ``pass_seed(s, k)``. One seed always gives the same
inputs, and which inputs a run covers never depends on how fast the
code is: faster code only repeats the whole cycle more often. One run
of one input is a *pass*. A workload splits a pass into three steps:

* ``prepare`` (untimed) builds the pass's inputs: plans, a fresh
  artifact store, or a scenario plus a resident service;
* ``execute`` (timed) is what a user of the repo runs: the figure
  plans, or the event trace with route reads after each event;
* ``finish`` (untimed) cleans up and measures anything reported beside
  the timed section (the warm store re-run).

Outputs are checked by ``digests`` (compared against the recorded
expected values, or against the run's first pass of the same input)
or, for an input seen first, by ``verify``.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Input ``k`` at seed ``s`` comes from ``s * PASS_STRIDE + k``.
PASS_STRIDE = 1000


def pass_seed(seed: int, index: int) -> int:
    """The input seed of input ``index`` of a run at ``seed``."""
    return seed * PASS_STRIDE + index


def _sha(parts: List[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


class Workload:
    """Common shape; subclasses fill in the four steps."""

    name = ""
    why = ""
    #: Distinct inputs per run (one cycle), sized so that one cycle fills
    #: most of a 25 s run on a 2-core VM: inputs differ in cost, so the
    #: more of them a run averages, the less its figure depends on which
    #: inputs its seed drew.
    inputs = 1
    #: How many of those inputs ``verify`` checks at a seed with no
    #: recorded digests (all, unless checking costs far more than a pass).
    verified_inputs = 1 << 30

    def __init__(self, quick: bool, root: Path) -> None:
        self.quick = quick
        self.root = root
        if quick:
            self.inputs = 2

    def sizes(self) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self) -> None:
        """Import what the workload runs (measured by ``setup_s``)."""

    def prepare(self, seed: int, index: int) -> Dict[str, Any]:
        raise NotImplementedError

    def execute(self, state: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def finish(self, state: Dict[str, Any], output: Optional[Dict[str, Any]],
               traced: bool) -> Dict[str, float]:
        return {}

    def operations(self, state: Dict[str, Any]) -> Dict[str, int]:
        raise NotImplementedError

    def digests(self, output: Dict[str, Any]) -> Dict[str, str]:
        raise NotImplementedError

    def verify(self, state: Dict[str, Any], output: Dict[str, Any]) -> Dict[str, int]:
        raise NotImplementedError

    def layer_extras(self, state: Dict[str, Any], output: Dict[str, Any],
                     phases: Dict[str, Dict[str, float]]) -> Dict[str, float]:
        """Per-layer values the outside timers cannot see (traced pass)."""
        return {}

    def samples(self, output: Dict[str, Any]) -> Dict[str, Any]:
        """What ``summary`` needs of a checked pass's output."""
        return {}

    def summary(self, outputs: List[Dict[str, Any]]) -> Dict[str, float]:
        """Latency figures pooled over untraced passes (none by default)."""
        return {}


# ----------------------------------------------------------------------
# Figure workloads: run plans, check canonical result content
# ----------------------------------------------------------------------
class FigureWorkload(Workload):
    """Runs plans with ``run_plan``; one operation is one series point."""

    def plans(self, seed: int) -> List[Any]:
        raise NotImplementedError

    def prepare(self, seed, index):
        return {"plans": self.plans(pass_seed(seed, index))}

    def execute(self, state):
        from repro.api import run as api_run

        return {"results": [api_run.run_plan(plan) for plan in state["plans"]]}

    def operations(self, state):
        return {"content": sum(self._points(plan) for plan in state["plans"])}

    @staticmethod
    def _points(plan) -> int:
        labels = len(plan.solvers)
        if plan.kind == "sweep":
            return labels * len(plan.sweep.points)
        if plan.kind == "mobility":
            spec = plan.study
            # t=0 plus one sample per ``sample_every`` slots, plus the end.
            slots = int(spec.horizon_s / 5.0)
            samples = 1 + slots // spec.sample_every
            if slots % spec.sample_every:
                samples += 1
            return labels * samples
        return labels

    def digests(self, output):
        from repro.sim.serialization import result_set_content_json

        return {
            "content": _sha(
                [result_set_content_json(r).encode() for r in output["results"]]
            )
        }

    def verify(self, state, output):
        """Shape check: every series point present, a ratio in [0, 1]."""
        import math

        failed = 0
        for plan, result in zip(state["plans"], output["results"]):
            labels = plan.labels()
            points = len(result.x_values)
            if list(result.series) != labels:
                failed += self._points(plan)
                continue
            for label in labels:
                means = result.series[label].means
                bad = sum(
                    1 for value in means.tolist()
                    if not (math.isfinite(value) and 0.0 <= value <= 1.0)
                )
                failed += bad + max(0, points - len(means))
            failed += max(0, self._points(plan) - points * len(labels))
        return {"content": failed}


class Fig4aSpec(FigureWorkload):
    name = "fig4a-spec"
    why = ("64 inputs a run, each fig4a_plan(num_topologies=1) at its 0.5 GB "
           "point, serial run_plan. Spec's knapsack DP and combination "
           "enumeration dominate. Recorded seed 0")
    inputs = 64

    #: The smallest paper capacity. A topology's cost varies by ~22% (one
    #: standard deviation) at 0.75 GB and above against ~13% at 0.5 GB,
    #: where it is also a third as long, so a run averages many more
    #: topologies.
    CAPACITY_GB = 0.5

    def sizes(self):
        return {"num_topologies": 1, "capacities_gb": [self.CAPACITY_GB]}

    def setup(self):
        from repro.sim import experiments  # noqa: F401

    def plans(self, seed):
        from repro.sim.experiments import fig4a_plan

        return [fig4a_plan(num_topologies=1, capacities_gb=(self.CAPACITY_GB,),
                           seed=seed)]


class Fig5aGrid(FigureWorkload):
    name = "fig5a-grid"
    why = ("16 inputs a run, each fig5a_plan(num_topologies=2, scale=1.0, "
           "workers=2) via execute_plan on a fresh store. Exec dispatch, store "
           "writes, scenario build, Gen, Independent. Recorded seed 0")
    inputs = 16

    def sizes(self):
        if self.quick:
            return {"num_topologies": 2, "capacities_gb": [0.5, 1.0],
                    "scale": 0.2, "workers": 2}
        return {"num_topologies": 2, "capacities_gb": "paper (5 points)",
                "scale": 1.0, "workers": 2}

    def setup(self):
        from repro.exec import executor, store  # noqa: F401
        from repro.sim import experiments  # noqa: F401

    def plans(self, seed):
        from repro.sim.experiments import fig5a_plan

        if self.quick:
            return [fig5a_plan(num_topologies=2, capacities_gb=(0.5, 1.0),
                               scale=0.2, workers=2, seed=seed)]
        return [fig5a_plan(num_topologies=2, scale=1.0, workers=2, seed=seed)]

    def prepare(self, seed, index):
        state = super().prepare(seed, index)
        scratch = self.root / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        state["store_dir"] = tempfile.mkdtemp(prefix="store-", dir=scratch)
        return state

    def execute(self, state):
        from repro.exec import executor
        from repro.exec.store import ArtifactStore

        (plan,) = state["plans"]
        result, report = executor.execute_plan(
            plan, store=ArtifactStore(state["store_dir"])
        )
        return {"results": [result], "report": report}

    def finish(self, state, output, traced):
        extra: Dict[str, float] = {}
        try:
            if traced and output is not None:
                from repro.exec import executor
                from repro.exec.store import ArtifactStore
                from repro.sim.serialization import result_set_content_json

                (plan,) = state["plans"]
                start = time.perf_counter()
                warm, report = executor.execute_plan(
                    plan, store=ArtifactStore(state["store_dir"])
                )
                extra["store.warm_load_s"] = time.perf_counter() - start
                same = result_set_content_json(warm) == result_set_content_json(
                    output["results"][0]
                )
                extra["warm_mismatch"] = float(report.cache != "hit" or not same)
        finally:
            shutil.rmtree(state["store_dir"], ignore_errors=True)
        return extra

    def layer_extras(self, state, output, phases):
        """Worker-side layers: solver runtimes from the result, the rest
        from the ``repro.obs`` envelopes the workers shipped back.

        Scenario build and feasibility come from the same ``repro.obs``
        phases the ``gap.*`` metrics subtract, so on this workload
        ``gap.scenario_s`` and ``gap.feasibility_s`` are 0 by
        construction and say nothing.
        """
        (plan,) = state["plans"]
        (result,) = output["results"]
        extras: Dict[str, float] = {}
        for spec, label in zip(plan.solvers, plan.labels()):
            stats = result.runtimes[label]
            extras[f"{spec.solver}.solve_s"] = float((stats.means * stats.counts).sum())
            extras[f"{spec.solver}.solves"] = float(stats.counts.sum())
        build = phases.get("task.scenario_build", {})
        extras["scenario.build_s"] = build.get("seconds", 0.0)
        extras["scenario.builds"] = build.get("count", 0)
        feasibility = [v for k, v in phases.items() if k.startswith("feasibility.")]
        extras["feasibility.s"] = sum(v["seconds"] for v in feasibility)
        extras["feasibility.calls"] = sum(v["count"] for v in feasibility)
        return extras

    def verify(self, state, output):
        failures = super().verify(state, output)
        report = output["report"]
        (plan,) = state["plans"]
        tasks = len(plan.sweep.points) * plan.num_topologies
        if report.cache != "miss" or report.tasks_run != tasks:
            failures["content"] = self.operations(state)["content"]
        return failures


class Fig7Mobility(FigureWorkload):
    name = "fig7-mobility"
    why = ("24 inputs a run, each fig7_plan(num_runs=1) over the default 2 h "
           "horizon, serial. A plan kind outside repro.exec: mobility stepping "
           "with Spec and Gen re-solves. Recorded seed 0")
    inputs = 24

    def sizes(self):
        if self.quick:
            return {"num_runs": 1, "horizon_s": 600.0}
        return {"num_runs": 1, "horizon_s": 7200.0}

    def setup(self):
        from repro.sim import experiments  # noqa: F401

    def plans(self, seed):
        from repro.sim.experiments import fig7_plan

        if self.quick:
            return [fig7_plan(num_runs=1, horizon_s=600.0, seed=seed)]
        return [fig7_plan(num_runs=1, seed=seed)]


# ----------------------------------------------------------------------
# Serving: a resident service replaying an event trace, routes between
# ----------------------------------------------------------------------
class ServeChurn(Workload):
    name = "serve-churn"
    why = ("40 inputs a run, each a gen/sparse PlacementService on M=30 K=200 "
           "I=120, 150 seeded mixed events, 20 route() reads after each; one "
           "closed-loop client. Recorded seed 0")
    inputs = 40
    #: ``resolve_from_scratch`` rebuilds feasibility and solves after
    #: every event: ~3 s for one 150-event input on a 2-core VM, ten
    #: times the pass it checks. So one input a run is verified.
    verified_inputs = 1

    def sizes(self):
        if self.quick:
            return {"num_servers": 6, "num_users": 40, "num_models": 24,
                    "events": 40, "routes_per_event": 5}
        return {"num_servers": 30, "num_users": 200, "num_models": 120,
                "events": 150, "routes_per_event": 20}

    def setup(self):
        from repro.serve import service  # noqa: F401
        from repro.sim import scenario  # noqa: F401

    def prepare(self, seed, index):
        import numpy as np

        from repro.serve import PlacementService, generate_event_trace
        from repro.sim.config import ScenarioConfig
        from repro.sim.scenario import build_scenario
        from repro.utils.units import GB

        size = self.sizes()
        if self.quick:
            config = ScenarioConfig(num_servers=6, num_users=40, num_models=24,
                                    requests_per_user=8,
                                    storage_bytes=int(0.12 * GB))
        else:
            config = ScenarioConfig(num_servers=30, num_users=200,
                                    num_models=120, requests_per_user=30,
                                    storage_bytes=int(0.06 * GB))
        input_seed = pass_seed(seed, index)
        scenario = build_scenario(config, seed=input_seed)
        events = list(generate_event_trace(scenario, size["events"], seed=input_seed))
        rng = np.random.default_rng(input_seed)
        shape = (size["events"], size["routes_per_event"])
        users = rng.integers(0, config.num_users, size=shape).tolist()
        models = rng.integers(0, config.num_models, size=shape).tolist()
        routes = [list(zip(u, m)) for u, m in zip(users, models)]
        service = PlacementService(scenario, solver="gen", engine="sparse")
        return {"scenario": scenario, "events": events, "routes": routes,
                "service": service}

    def execute(self, state):
        service = state["service"]
        clock = time.perf_counter
        hits: List[float] = []
        modes: List[str] = []
        answers: List[int] = []
        event_s: List[float] = []
        route_s: List[float] = []
        for event, queries in zip(state["events"], state["routes"]):
            start = clock()
            result = service.process(event)
            middle = clock()
            for user, model in queries:
                answer = service.route(user, model)
                answers.append(answer.server if answer.hit else -1)
            end = clock()
            event_s.append(middle - start)
            route_s.append(end - middle)
            hits.append(result.hit_ratio)
            modes.append(result.mode)
        return {"hits": hits, "modes": modes, "answers": answers,
                "event_s": event_s, "route_s": route_s,
                "placement": service.state.placement.matrix.copy(),
                "counters": dict(service.counters)}

    def layer_extras(self, state, output, phases):
        import numpy as np

        events = max(1, len(output["hits"]))
        modes = np.asarray(output["modes"])
        event_ms = np.asarray(output["event_s"]) * 1e3
        per_route = len(state["routes"][0]) if state["routes"] else 1
        counters = output["counters"]

        def p50(mask):
            return float(np.median(event_ms[mask])) if mask.any() else 0.0

        return {
            "serve.initial_solve_s": state["service"].initial_solve_s,
            "serve.replay_ratio": counters["replay"] / events,
            "serve.fallback": counters["fallback"],
            "serve.full": counters["full"],
            "serve.replay_p50_ms": p50(modes == "replay"),
            "serve.full_p50_ms": p50(modes == "full"),
            "serve.route_p50_us": float(
                np.median(np.asarray(output["route_s"]) / per_route) * 1e6
            ),
        }

    def samples(self, output):
        return {"event_s": output["event_s"], "route_s": output["route_s"],
                "routes": len(output["answers"])}

    def summary(self, outputs):
        import numpy as np

        if not outputs:
            return {}
        event_s = np.concatenate([o["event_s"] for o in outputs])
        route_s = sum(sum(o["route_s"]) for o in outputs)
        routes = sum(o["routes"] for o in outputs)
        return {
            "event_p50_ms": float(np.percentile(event_s, 50) * 1e3),
            "event_p99_ms": float(np.percentile(event_s, 99) * 1e3),
            "event_samples": int(event_s.size),
            "route_qps": routes / route_s if route_s > 0 else 0.0,
        }

    def operations(self, state):
        events = len(state["events"])
        return {"events": events, "routes": sum(len(q) for q in state["routes"])}

    def digests(self, output):
        import numpy as np

        placement = np.ascontiguousarray(output["placement"], dtype=bool)
        return {
            "events": _sha([float(h).hex().encode() for h in output["hits"]]
                           + [repr(placement.shape).encode(), placement.tobytes()]),
            "routes": _sha([str(a).encode() for a in output["answers"]]),
        }

    def verify(self, state, output):
        """``==`` against a from-scratch solve after every event: hit
        ratios, the final placement and every route answer."""
        import numpy as np

        from repro.serve import resolve_from_scratch

        scenario = state["scenario"]
        scratch = resolve_from_scratch(scenario, state["events"], solver="gen",
                                       engine="sparse")
        failed_events = sum(
            1 for record, hit in zip(scratch, output["hits"]) if record.hit_ratio != hit
        )
        if not np.array_equal(scratch[-1].placement.matrix, output["placement"]):
            failed_events = max(failed_events, 1)
        feasible = scenario.instance.feasible
        per_event = len(state["routes"][0]) if state["routes"] else 0
        failed_routes = 0
        for j, (record, queries) in enumerate(zip(scratch, state["routes"])):
            matrix = record.placement.matrix
            for r, (user, model) in enumerate(queries):
                servers = np.flatnonzero(feasible[:, user, model] & matrix[:, model])
                expected = int(servers[0]) if servers.size else -1
                if output["answers"][j * per_event + r] != expected:
                    failed_routes += 1
        return {"events": failed_events, "routes": failed_routes}


WORKLOADS = {cls.name: cls for cls in (Fig4aSpec, Fig5aGrid, Fig7Mobility, ServeChurn)}
