"""Outside timers: per-layer time and counts for the traced run.

The benchmark never adds a span or counter under ``src/``. Instead,
for a traced pass it swaps the public functions named in
``layer_map.json`` for timing wrappers, runs the pass, and puts the
originals back. A wrapper is installed everywhere the original is
reachable from a loaded ``repro`` module: the defining module, every
module that imported the name, and module-level dicts that hold it
(``repro.core.dp.KNAPSACK_BACKENDS``).

Self time is a layer's time minus the time of wrapped calls nested in
it, so the self times of one pass add up to the time spent under the
outermost wrapped call. A layer nested in itself (one knapsack entry
point calling another) is timed once, at the outer call.

Calls made inside worker processes are invisible here; the fig5a-grid
workload reads those from public results and the ``repro.obs`` worker
envelopes instead.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

OnResult = Callable[["OutsideTimers", Any, tuple, dict], None]


class OutsideTimers:
    """Wrap public functions, accumulate inclusive and self time."""

    def __init__(self) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._children: List[float] = []
        self._depth: Counter = Counter()
        self._restore: List[Callable[[], None]] = []

    # -- timing core ----------------------------------------------------
    def _enter(self, name: str) -> float:
        self._depth[name] += 1
        self._children.append(0.0)
        return time.perf_counter()

    def _leave(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        child = self._children.pop()
        self._depth[name] -= 1
        self.inclusive[name] += elapsed
        self.self_time[name] += elapsed - child
        self.calls[name] += 1
        if self._children:
            self._children[-1] += elapsed

    def _timed(
        self, name: str, original: Callable, on_result: Optional[OnResult]
    ) -> Callable:
        def wrapper(*args, **kwargs):
            if self._depth[name]:
                return original(*args, **kwargs)
            start = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._leave(name, start)
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        return wrapper

    def _timed_iterator(self, name: str, iterator: Iterator) -> Iterator:
        """Time every ``next`` on a lazy result (backend ``map``)."""
        while True:
            start = self._enter(name)
            try:
                value = next(iterator)
            except StopIteration:
                self._leave(name, start)
                self.calls[name] -= 1
                return
            except BaseException:
                self._leave(name, start)
                raise
            self._leave(name, start)
            self.calls[name] -= 1
            yield value

    # -- installation ---------------------------------------------------
    def layer(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[OnResult] = None,
    ) -> None:
        """Time ``owner.attr`` as layer ``name``."""
        original = getattr(owner, attr)
        self._install(owner, attr, original, self._timed(name, original, on_result))

    def lazy_layer(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_call: Optional[Callable[[tuple, dict], None]] = None,
    ) -> None:
        """Time a method returning a lazy iterator, through exhaustion."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if on_call is not None:
                # Probe work (payload pickling) is a layer of its own, so
                # it never counts as the caller's self time.
                start = self._enter("bench.probe")
                try:
                    on_call(args, kwargs)
                finally:
                    self._leave("bench.probe", start)
            start = self._enter(name)
            try:
                iterator = iter(original(*args, **kwargs))
            finally:
                self._leave(name, start)
            return self._timed_iterator(name, iterator)

        self._install(owner, attr, original, wrapper)

    def probe(
        self, owner: Any, attr: str, on_call: Callable[[tuple, dict], None]
    ) -> None:
        """Observe the arguments of ``owner.attr`` calls; no timing."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            on_call(args, kwargs)
            return original(*args, **kwargs)

        self._install(owner, attr, original, wrapper)

    def _install(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._restore.append(lambda: setattr(owner, attr, original))
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._restore.append(
                        lambda m=module, k=key: setattr(m, k, original)
                    )
                elif isinstance(value, dict):
                    for dict_key, item in list(value.items()):
                        if item is original:
                            value[dict_key] = wrapper
                            self._restore.append(
                                lambda d=value, k=dict_key: d.__setitem__(
                                    k, original
                                )
                            )

    def close(self) -> None:
        """Put every original back (last installed, first restored)."""
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "OutsideTimers":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# The layer installation every workload's traced pass uses
# ----------------------------------------------------------------------
def _spec_stats(timers: OutsideTimers, result, args, kwargs) -> None:
    stats = getattr(result, "stats", {}) or {}
    timers.counts["dp.table_hits"] += int(stats.get("knapsack_cache_hits", 0))
    timers.counts["dp.table_misses"] += int(stats.get("knapsack_cache_misses", 0))


def _combinations(timers: OutsideTimers, result, args, kwargs) -> None:
    timers.counts["dp.combinations"] += len(result)


def _nnz(timers: OutsideTimers, result, args, kwargs) -> None:
    nnz = getattr(result, "nnz", None)
    timers.counts["feasibility.nnz"] += int(
        nnz if nnz is not None else result.sum()
    )


def _stored_bytes(path_of: Callable) -> OnResult:
    def record(timers: OutsideTimers, result, args, kwargs) -> None:
        timers.counts["store.bytes_written"] += path_of(*args).stat().st_size

    return record


def install_layers(timers: OutsideTimers, exec_probe: Any) -> None:
    """Wrap every layer's public entry points (``layer_map.json``).

    ``exec_probe`` receives backend ``map`` calls and ``obs.absorb``
    envelopes; see :class:`ExecProbe`.
    """
    from repro import obs
    from repro.api import run as api_run
    from repro.core import dp
    from repro.core.gen import TrimCachingGen
    from repro.core.independent import IndependentCaching
    from repro.core.spec import TrimCachingSpec
    from repro.exec import executor
    from repro.exec.backends import ProcessBackend, SerialBackend
    from repro.exec.store import ArtifactStore
    from repro.network.latency import LatencyModel
    from repro.network.mobility import MobilityModel
    from repro.serve.service import PlacementService
    from repro.sim import scenario
    from repro.sim.mobility_eval import MobilityStudy

    timers.layer(api_run, "run_plan", "plan")
    timers.layer(executor, "execute_plan", "plan")
    timers.layer(TrimCachingSpec, "solve", "spec", _spec_stats)
    timers.layer(dp.ValueDpTables, "solve", "dp.knapsack")
    for fn in ("knapsack_value_dp", "knapsack_weight_dp",
               "knapsack_branch_and_bound", "knapsack_best_first"):
        timers.layer(dp, fn, "dp.knapsack")
    timers.layer(dp, "enumerate_shared_combinations", "dp.enumerate", _combinations)
    timers.layer(TrimCachingGen, "solve", "gen")
    timers.layer(IndependentCaching, "solve", "independent")
    timers.layer(scenario, "build_scenario", "scenario")
    timers.layer(scenario, "build_library", "library")
    for method in ("feasibility", "feasibility_sparse", "feasibility_sparse_chunked"):
        timers.layer(LatencyModel, method, "feasibility", _nnz)
    timers.layer(MobilityStudy, "run", "mobility")
    timers.probe(
        MobilityModel, "step", lambda args, kwargs: timers.counts.update(["mobility.steps"])
    )
    for backend in (SerialBackend, ProcessBackend):
        timers.lazy_layer(backend, "map", "exec.map", exec_probe.on_map)
    timers.probe(obs, "absorb", exec_probe.on_absorb)
    timers.layer(
        ArtifactStore, "save_task", "store.save",
        _stored_bytes(lambda store, key, task_id, *rest: store.task_path(key, task_id)),
    )
    timers.layer(
        ArtifactStore, "save_result", "store.save",
        _stored_bytes(lambda store, key, *rest: store.result_path(key)),
    )
    timers.layer(PlacementService, "process", "serve.event")
    timers.layer(PlacementService, "route", "serve.route")


class ExecProbe:
    """What the parent sees of a backend run: payloads and envelopes."""

    def __init__(self) -> None:
        self.backends: List[Any] = []
        self.tasks = 0
        self.payload_bytes = 0
        self.run_s: List[float] = []
        self.queue_wait_s: List[float] = []

    def on_map(self, args: tuple, kwargs: dict) -> None:
        import pickle

        backend, fn, payloads = args[0], args[1], list(args[2])
        self.backends.append(backend)
        self.tasks += len(payloads)
        chunk = getattr(backend, "chunksize", None)
        if chunk is None:  # in-process: nothing is pickled
            return
        # Computed, not observed: the bytes one submission would pickle.
        for start in range(0, len(payloads), chunk):
            self.payload_bytes += len(
                pickle.dumps((fn, start, payloads[start : start + chunk]))
            )

    def on_absorb(self, args: tuple, kwargs: dict) -> None:
        from repro.obs import ObsEnvelope

        value = args[0]
        submitted = args[1] if len(args) > 1 else kwargs.get("submitted_epoch")
        if not isinstance(value, ObsEnvelope):
            return
        self.run_s.append(value.run_s)
        if submitted is not None:
            self.queue_wait_s.append(max(0.0, value.started_epoch - submitted))

    @property
    def retries(self) -> int:
        return sum(
            getattr(getattr(b, "stats", None), "retries", 0) for b in self.backends
        )

    @property
    def workers(self) -> int:
        return max((getattr(b, "workers", 1) for b in self.backends), default=1)


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0 for no samples)."""
    if not values:
        return 0.0
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def layer_rows(timers: OutsideTimers) -> List[Tuple[str, float, float, int]]:
    """``(layer, inclusive_s, self_s, calls)``, largest self time first."""
    return sorted(
        (
            (name, timers.inclusive[name], timers.self_time[name], timers.calls[name])
            for name in timers.inclusive
        ),
        key=lambda row: row[2],
        reverse=True,
    )
