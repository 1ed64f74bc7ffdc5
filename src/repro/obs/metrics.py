"""The metrics half of :mod:`repro.obs`: counters, gauges, histograms.

Design constraints, in order:

* **Out of the results.** Like :class:`~repro.exec.faults.FaultStats`,
  metrics describe *how* a run went, never *what* it computed — nothing
  here is reachable from result serialisation or artifact hashing, so
  enabling observability cannot perturb a single result byte.
* **Mergeable across processes.** A worker ships its registry as a
  plain-data :meth:`MetricsRegistry.snapshot` over the existing pickle
  protocol and the parent folds it in with
  :meth:`MetricsRegistry.merge_snapshot` — the same fold-partials shape
  as :meth:`repro.utils.stats.RunningStats.merge` (Chan's parallel
  update): counters add, gauges keep the latest, histograms add
  per-bucket counts, so any fold order yields the same totals.
* **Fixed bucket schemas.** A histogram's buckets are part of its
  identity: re-registering a name with different buckets is an error,
  not a silent re-bucketing, which is what keeps cross-process merges
  exact (bucket counts only ever add to matching buckets).

Thread safety: each metric carries its own lock (the serve HTTP server
observes from handler threads; the process backend's reader threads
observe heartbeat gaps). The registry's get-or-create is locked too.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
]

#: Default bucket schema for latency-shaped histograms (seconds). Spans
#: from 100 µs to 10 s — wide enough for a route lookup and a full
#: solve alike.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: A metric's labels, normalised: sorted ``(key, value)`` pairs.
LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Optional[Dict[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + body + "}"


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self.value += amount

    def state(self) -> float:
        return self.value

    def merge_state(self, state: float) -> None:
        with self._lock:
            self.value += state


class Gauge:
    """A point-in-time value (merges keep the merged-in reading)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def state(self) -> float:
        return self.value

    def merge_state(self, state: float) -> None:
        # A gauge is a reading, not an accumulation: the merged-in
        # snapshot (the more recent observation) wins.
        with self._lock:
            self.value = float(state)


class Histogram:
    """Fixed-bucket distribution: cumulative-style counts, sum, count.

    ``buckets`` are upper bounds in increasing order; an implicit +Inf
    bucket catches the tail. Counts are stored per-bucket (not
    cumulative) internally and cumulated only at exposition time, which
    makes the cross-process merge a plain vector add.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        buckets: Tuple[float, ...] = LATENCY_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError(
                f"histogram {name} buckets must be strictly increasing, "
                f"got {buckets!r}"
            )
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * (len(buckets) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def state(self) -> Tuple[Tuple[float, ...], List[int], float, int]:
        return (self.buckets, list(self.counts), self.sum, self.count)

    def merge_state(self, state) -> None:
        buckets, counts, total, count = state
        if tuple(buckets) != self.buckets:
            raise ValueError(
                f"histogram {self.name}: cannot merge mismatched bucket "
                f"schemas {tuple(buckets)!r} != {self.buckets!r}"
            )
        with self._lock:
            for index, value in enumerate(counts):
                self.counts[index] += value
            self.sum += total
            self.count += count


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create metric store with snapshot/merge and exposition.

    Metrics are keyed on ``(name, labels)``; registering an existing
    name with a different kind or bucket schema is an error. The
    registry is what travels (as :meth:`snapshot` plain data) from
    worker processes back to the parent, where :meth:`merge_snapshot`
    folds it in — any fold order produces identical totals.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelSet], object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, kind: str, name: str, labels: LabelSet, **kwargs):
        key = (name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = _KINDS[kind](name, labels, **kwargs)
                self._metrics[key] = metric
                return metric
        if metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {kind}"
            )
        if kind == "histogram":
            buckets = kwargs.get("buckets", LATENCY_BUCKETS)
            if tuple(float(b) for b in buckets) != metric.buckets:
                raise ValueError(
                    f"histogram {name!r} already registered with buckets "
                    f"{metric.buckets!r}; bucket schemas are fixed"
                )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create("counter", name, _labelset(labels))

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create("gauge", name, _labelset(labels))

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(
            "histogram", name, _labelset(labels), buckets=buckets
        )

    def __len__(self) -> int:
        return len(self._metrics)

    def metrics(self) -> Iterable[object]:
        """All registered metrics, in registration order."""
        return list(self._metrics.values())

    # -- cross-process fold --------------------------------------------
    def snapshot(self) -> List[Tuple[str, str, LabelSet, object]]:
        """Plain-data (picklable) dump: ``(kind, name, labels, state)``."""
        with self._lock:
            metrics = list(self._metrics.values())
        return [(m.kind, m.name, m.labels, m.state()) for m in metrics]

    def merge_snapshot(
        self, snapshot: List[Tuple[str, str, LabelSet, object]]
    ) -> None:
        """Fold a worker's snapshot in (Chan-style: order-independent)."""
        for kind, name, labels, state in snapshot:
            if kind == "histogram":
                buckets = tuple(state[0])
                metric = self._get_or_create(
                    kind, name, tuple(labels), buckets=buckets
                )
            else:
                metric = self._get_or_create(kind, name, tuple(labels))
            metric.merge_state(state)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (equivalent to its snapshot)."""
        self.merge_snapshot(other.snapshot())

    # -- exposition ----------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []
        seen_types: Dict[str, str] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if metric.name not in seen_types:
                seen_types[metric.name] = metric.kind
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            if metric.kind == "histogram":
                cumulative = 0
                for bound, count in zip(metric.buckets, metric.counts):
                    cumulative += count
                    labels = metric.labels + (("le", _format(bound)),)
                    lines.append(
                        f"{metric.name}_bucket{_render_labels(labels)}"
                        f" {cumulative}"
                    )
                cumulative += metric.counts[-1]
                labels = metric.labels + (("le", "+Inf"),)
                lines.append(
                    f"{metric.name}_bucket{_render_labels(labels)}"
                    f" {cumulative}"
                )
                suffix = _render_labels(metric.labels)
                lines.append(f"{metric.name}_sum{suffix} {_format(metric.sum)}")
                lines.append(f"{metric.name}_count{suffix} {metric.count}")
            else:
                lines.append(
                    f"{metric.name}{_render_labels(metric.labels)}"
                    f" {_format(metric.value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


def _format(value: float) -> str:
    """Render a sample value: integers stay integral."""
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)
