"""``repro.obs`` — the unified observability layer.

One subsystem sees every phase of the stack: solver phases (scenario
build, feasibility, greedy loop, knapsack DP), the execution backends
(per-task queue-wait/run spans, retry/chaos annotations, worker-side
telemetry shipped back over the pickle protocol) and the serving layer
(refresh and re-solve spans, route/event latency histograms, the ``/metrics``
endpoint). Three rules keep it honest:

* **Off by default, near-zero cost when off.** ``obs.span(...)`` on the
  disabled path is one attribute check returning a shared no-op; task
  wrapping and envelope absorption vanish entirely. The ``obs`` bench
  section pins the overhead (≤1% disabled, ≤5% enabled on the sweep
  path).
* **Never in the results.** Telemetry lives beside the result stream
  (like :class:`~repro.exec.faults.FaultStats`): result bytes, artifact
  hashes and hit-ratio series are bit-identical with observability on
  or off, on every backend — a pinned property test enforces it.
* **Mergeable.** Registries and tracers fold across processes like
  :meth:`~repro.utils.stats.RunningStats.merge`: counters add,
  histogram buckets add, spans concatenate on an epoch-anchored clock.

Span naming convention: dotted ``layer.phase[.detail]`` — e.g.
``exec.task``, ``task.solve``, ``solve.gen.greedy``,
``feasibility.sparse``, ``serve.full_solve``. Metrics are
Prometheus-style snake case with a ``repro_`` prefix and base-unit
suffixes (``_seconds``, ``_total``).

Typical use::

    from repro import obs

    obs.enable()
    with obs.span("my.phase"):
        ...
    print(obs.registry().to_prometheus())
    obs.export.write_chrome_trace(obs.tracer(), "trace.json")

The exporters (:mod:`repro.obs.export`: ``export`` and the names it
defines) resolve on first access through a PEP 562 module
``__getattr__``, so a run that writes no trace never imports them.
"""

from importlib import import_module

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.runtime import (
    ObsEnvelope,
    ObsTask,
    absorb,
    active,
    count,
    disable,
    enable,
    instant,
    is_enabled,
    metrics_enabled,
    observe,
    phase_totals,
    registry,
    span,
    traced,
    tracer,
    tracing_enabled,
    wrap_task,
)
from repro.obs.trace import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "Tracer",
    "ObsEnvelope",
    "ObsTask",
    "absorb",
    "active",
    "count",
    "chrome_trace",
    "disable",
    "enable",
    "export",
    "instant",
    "is_enabled",
    "metrics_enabled",
    "observe",
    "parse_prometheus",
    "phase_totals",
    "registry",
    "span",
    "traced",
    "tracer",
    "tracing_enabled",
    "validate_chrome_trace",
    "wrap_task",
    "write_chrome_trace",
]

#: Names of :mod:`repro.obs.export`, imported on first access.
_EXPORT_NAMES = (
    "chrome_trace",
    "parse_prometheus",
    "validate_chrome_trace",
    "write_chrome_trace",
)


def __getattr__(name: str):
    if name == "export" or name in _EXPORT_NAMES:
        export = import_module("repro.obs.export")
        return export if name == "export" else getattr(export, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
