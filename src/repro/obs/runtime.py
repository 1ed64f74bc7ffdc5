"""Global observability state: enable/disable, spans, task envelopes.

One module-level :class:`ObsState` holds the process's registry and
tracer. Everything funnels through three hot functions — :func:`span`,
:func:`instant`, :func:`metrics_enabled` — whose disabled path is a
single attribute check returning a shared no-op object, which is what
keeps observability near-zero-cost when off (the ``obs`` bench section
measures it).

Cross-process collection rides the task path the backends already
have: :func:`wrap_task` turns the picklable task function into a
picklable :class:`ObsTask` that runs the task under a fresh collector
state and returns an :class:`ObsEnvelope` (value + metrics snapshot +
trace snapshot + timing anchors); the parent's :func:`absorb` unwraps
the value, folds the snapshots into the live registry/tracer, and
observes the task's queue-wait and run-time histograms. When
observability is off, ``wrap_task`` returns the function unchanged and
``absorb`` is an identity — the task path is byte-for-byte what it was.

A killed worker never sends its envelope (results ship only on task
completion, and the process backend's first-result-wins fold absorbs at
most one envelope per task index), so partial spans from lost workers
cannot corrupt the merged view.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.trace import NOOP_SPAN, Tracer

__all__ = [
    "enable",
    "disable",
    "is_enabled",
    "metrics_enabled",
    "tracing_enabled",
    "registry",
    "tracer",
    "span",
    "instant",
    "observe",
    "phase_totals",
    "wrap_task",
    "absorb",
    "ObsTask",
    "ObsEnvelope",
]


class ObsState:
    """The process-wide (or per-task, under :class:`ObsTask`) state."""

    __slots__ = ("metrics_on", "tracing_on", "registry", "tracer")

    def __init__(self, metrics_on: bool = False, tracing_on: bool = False):
        self.metrics_on = metrics_on
        self.tracing_on = tracing_on
        self.registry = MetricsRegistry()
        self.tracer = Tracer()


_STATE = ObsState()


def enable(metrics: bool = True, tracing: bool = True) -> None:
    """Turn observability on with a fresh registry and tracer."""
    global _STATE
    _STATE = ObsState(metrics_on=metrics, tracing_on=tracing)


def disable() -> None:
    """Turn observability off (and drop any collected state)."""
    global _STATE
    _STATE = ObsState()


def is_enabled() -> bool:
    """Is any observability facet on?"""
    state = _STATE
    return state.metrics_on or state.tracing_on


def metrics_enabled() -> bool:
    """Is the metrics registry collecting?"""
    return _STATE.metrics_on


def tracing_enabled() -> bool:
    """Is the tracer collecting?"""
    return _STATE.tracing_on


def registry() -> MetricsRegistry:
    """The live registry (empty and inert while disabled)."""
    return _STATE.registry


def tracer() -> Tracer:
    """The live tracer (empty and inert while disabled)."""
    return _STATE.tracer


def span(name: str, **args: Any):
    """A span context manager; the shared no-op when tracing is off.

    >>> with obs.span("solve.gen", engine="sparse") as handle:
    ...     handle["steps"] = steps  # post-hoc annotation
    """
    state = _STATE
    if not state.tracing_on:
        return NOOP_SPAN
    return state.tracer.span(name, args or None)


def traced(name: str) -> Callable:
    """Decorator form of :func:`span` for whole functions."""

    def decorate(fn: Callable) -> Callable:
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def instant(name: str, **args: Any) -> None:
    """Record a point event (retry, lost worker, ...) if tracing."""
    state = _STATE
    if state.tracing_on:
        state.tracer.instant(name, args or None)


def observe(name: str, value: float, **labels: str) -> None:
    """Observe into a latency histogram if metrics are on."""
    state = _STATE
    if state.metrics_on:
        state.registry.histogram(name, **labels).observe(value)


def count(name: str, amount: float = 1, **labels: str) -> None:
    """Increment a counter if metrics are on."""
    state = _STATE
    if state.metrics_on:
        state.registry.counter(name, **labels).inc(amount)


def phase_totals() -> Dict[str, Dict[str, float]]:
    """Summed duration/count per span name from the live tracer."""
    return _STATE.tracer.phase_totals()


# ----------------------------------------------------------------------
# Cross-process task instrumentation
# ----------------------------------------------------------------------
class ObsEnvelope:
    """A task result plus the telemetry collected while computing it."""

    __slots__ = ("value", "metrics", "trace", "started_epoch", "run_s")

    def __init__(self, value, metrics, trace, started_epoch, run_s):
        self.value = value
        self.metrics = metrics
        self.trace = trace
        self.started_epoch = started_epoch
        self.run_s = run_s


class ObsTask:
    """Picklable task-fn wrapper: collect per task, ship an envelope.

    The wrapper swaps in a fresh :class:`ObsState` for the duration of
    the task (workers start with observability off — the wrapper itself
    carries the enablement over the pickle protocol) and restores the
    previous state afterwards, so in-process backends leave the
    parent's own telemetry untouched while a task runs.

    Exceptions pass through untouched: the fault taxonomy
    (task-error reporting, retry classification) must see exactly
    what it would have seen without observability.
    """

    __slots__ = ("fn", "metrics_on", "tracing_on")

    def __init__(self, fn: Callable, metrics_on: bool, tracing_on: bool):
        self.fn = fn
        self.metrics_on = metrics_on
        self.tracing_on = tracing_on

    def __call__(self, payload):
        global _STATE
        previous = _STATE
        state = ObsState(self.metrics_on, self.tracing_on)
        _STATE = state
        started_epoch = time.time()
        start = time.perf_counter()
        try:
            with span("exec.task"):
                value = self.fn(payload)
        finally:
            _STATE = previous
        return ObsEnvelope(
            value,
            state.registry.snapshot() if self.metrics_on else None,
            state.tracer.snapshot() if self.tracing_on else None,
            started_epoch,
            time.perf_counter() - start,
        )


def active() -> bool:
    """Should backends instrument this ``map`` call?"""
    return is_enabled()


def wrap_task(fn: Callable) -> Callable:
    """Wrap a task function for telemetry collection (identity if off)."""
    state = _STATE
    if not (state.metrics_on or state.tracing_on):
        return fn
    return ObsTask(fn, state.metrics_on, state.tracing_on)


def absorb(value, submitted_epoch: Optional[float] = None):
    """Unwrap an :class:`ObsEnvelope`, folding its telemetry in.

    ``submitted_epoch`` (the parent's ``time.time()`` when the task was
    handed to the substrate) turns the envelope's worker-side start
    stamp into the task's queue wait. Non-envelope values pass through
    unchanged, so the call is safe on the disabled path too.
    """
    if not isinstance(value, ObsEnvelope):
        return value
    state = _STATE
    if state.metrics_on:
        if value.metrics is not None:
            state.registry.merge_snapshot(value.metrics)
        reg = state.registry
        reg.histogram("repro_exec_task_run_seconds").observe(value.run_s)
        if submitted_epoch is not None:
            reg.histogram("repro_exec_queue_wait_seconds").observe(
                max(0.0, value.started_epoch - submitted_epoch)
            )
        reg.counter("repro_exec_tasks_total").inc()
    if state.tracing_on and value.trace is not None:
        state.tracer.absorb(value.trace)
    return value.value
