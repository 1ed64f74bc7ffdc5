"""Failure taxonomy and deterministic fault injection for ``repro.exec``.

The execution layer distinguishes two failure classes:

* **Deterministic** — the task function itself raised. Re-running the
  same pure task yields the same exception, so these fail fast:
  :class:`TaskError` surfaces immediately with the failing task's grid
  index, whatever the retry policy says.
* **Transient** — the substrate failed underneath the task (a worker
  process died, a connection dropped, a heartbeat went silent, a task
  out-lived its deadline). The task's inputs are intact, so these are
  retryable: :class:`WorkerLost` and :class:`TaskTimeout` are raised
  only once a :class:`~repro.exec.retry.RetryPolicy` is exhausted and
  in-process degradation is off.

Because every task's seed is fixed in the parent and results fold in
submission order, a retried or re-dispatched task recomputes the exact
same bits — which is what lets the chaos suite assert byte-identical
result JSON under any crash schedule.

:class:`ChaosPolicy` is the deterministic fault-injection harness: a
seeded schedule of worker kills, dropped connections, delayed
heartbeats and stragglers that the process backend's workers execute
on themselves. Chaos is a test and CI instrument — it rides the same
code paths real faults take, so the equivalence suite exercises exactly
the recovery machinery production would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError, ReproError


# ----------------------------------------------------------------------
# Failure taxonomy
# ----------------------------------------------------------------------
class ExecutionError(ReproError, RuntimeError):
    """A task grid failed to execute.

    Carries the failing task's grid index (and id, when the caller
    tracks one) so operators see *which* cell failed instead of a bare
    dropped connection.
    """

    #: Whether retrying can help (overridden per subclass).
    transient = False

    def __init__(
        self,
        message: str,
        *,
        task_index: Optional[int] = None,
        task_id: Optional[str] = None,
    ) -> None:
        detail = message
        if task_index is not None and "task" not in message.split(":")[0]:
            detail = f"{message} (task index {task_index})"
        super().__init__(detail)
        self.task_index = task_index
        self.task_id = task_id


class TaskError(ExecutionError):
    """The task function itself raised — deterministic, never retried."""

    transient = False


class WorkerLost(ExecutionError):
    """A worker died under a task (crash, kill, dropped connection,
    silent heartbeat) — transient, retryable."""

    transient = True


class TaskTimeout(WorkerLost):
    """A task out-lived its deadline on a live worker — transient; the
    straggler is treated like a lost worker and the task re-dispatched."""

    transient = True


# ----------------------------------------------------------------------
# Fault accounting
# ----------------------------------------------------------------------
@dataclass
class FaultStats:
    """What the fault layer did during one ``map`` call.

    Backends expose their latest ``map``'s stats as ``backend.stats``;
    the executor folds them into the :class:`~repro.exec.executor.
    ExecutionReport` so the CLI footer can print them.
    """

    retries: int = 0  #: transient failures recovered by re-running tasks
    workers_lost: int = 0  #: workers declared dead (crash/drop/heartbeat)
    re_dispatched: int = 0  #: straggler tasks speculatively re-dispatched
    degraded: int = 0  #: tasks that fell back to in-process execution

    def any(self) -> bool:
        """Did anything fault-related happen at all?"""
        return bool(
            self.retries or self.workers_lost
            or self.re_dispatched or self.degraded
        )

    def merge(self, other: "FaultStats") -> None:
        """Accumulate another map call's counters into this one."""
        self.retries += other.retries
        self.workers_lost += other.workers_lost
        self.re_dispatched += other.re_dispatched
        self.degraded += other.degraded

# ----------------------------------------------------------------------
# Deterministic chaos
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosPolicy:
    """A seeded, bounded fault-injection schedule for backend workers.

    Facets (each with a grant budget, so chaos terminates):

    * ``kill_after`` — an armed worker exits hard on *receiving* its
      ``kill_after + 1``-th task (after completing ``kill_after``), so
      exactly one in-flight task is lost per kill. ``kill_limit`` caps
      how many workers are armed.
    * ``drop_after`` — an armed worker closes its connection (and
      exits) after *completing* ``drop_after`` tasks; no task is lost,
      but the parent sees a dead connection.
    * ``heartbeat_delay_s`` — an armed worker sleeps this long before
      every heartbeat; set it beyond the liveness timeout and a healthy
      worker is declared dead mid-task.
    * ``straggle_every``/``straggle_s`` — an armed worker sleeps
      ``straggle_s`` before tasks whose index is a multiple of
      ``straggle_every``, exercising timeout re-dispatch.

    Workers are armed deterministically by worker id: ids below the
    facet's limit are armed, replacement workers (fresh, higher ids)
    never are — so a chaos run always converges.
    """

    kill_after: Optional[int] = None
    kill_limit: int = 1
    drop_after: Optional[int] = None
    drop_limit: int = 1
    heartbeat_delay_s: float = 0.0
    heartbeat_delay_limit: int = 1
    straggle_every: Optional[int] = None
    straggle_s: float = 0.0
    straggle_limit: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("kill_after", "drop_after", "straggle_every"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if self.straggle_every == 0:
            raise ConfigurationError("straggle_every must be >= 1")
        for name in ("heartbeat_delay_s", "straggle_s"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        for name in (
            "kill_limit", "drop_limit",
            "heartbeat_delay_limit", "straggle_limit",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")

    # -- worker-side views ---------------------------------------------
    def armed_for(self, worker_id: int) -> "ChaosPolicy":
        """The facets worker ``worker_id`` should execute on itself."""
        return replace(
            self,
            kill_after=(
                self.kill_after if worker_id < self.kill_limit else None
            ),
            drop_after=(
                self.drop_after if worker_id < self.drop_limit else None
            ),
            heartbeat_delay_s=(
                self.heartbeat_delay_s
                if worker_id < self.heartbeat_delay_limit
                else 0.0
            ),
            straggle_every=(
                self.straggle_every
                if worker_id < self.straggle_limit
                else None
            ),
        )

    def straggles(self, task_index: int) -> bool:
        """Should this worker straggle on ``task_index``?"""
        if self.straggle_every is None or self.straggle_s <= 0:
            return False
        return (task_index + self.seed) % self.straggle_every == 0

    # -- CLI spec ------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "ChaosPolicy":
        """Build a policy from a CLI spec string.

        Grammar: comma-separated facets —
        ``kill-worker:N[xLIMIT]``, ``drop-conn:N[xLIMIT]``,
        ``heartbeat-delay:SECONDS``, ``straggle:EVERYxSECONDS``,
        ``seed:S``. Example: ``kill-worker:2,straggle:3x0.5``.
        """
        kwargs: Dict[str, Any] = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            name, _, arg = token.partition(":")
            try:
                if name == "kill-worker":
                    count, _, limit = arg.partition("x")
                    kwargs["kill_after"] = int(count)
                    if limit:
                        kwargs["kill_limit"] = int(limit)
                elif name == "drop-conn":
                    count, _, limit = arg.partition("x")
                    kwargs["drop_after"] = int(count)
                    if limit:
                        kwargs["drop_limit"] = int(limit)
                elif name == "heartbeat-delay":
                    kwargs["heartbeat_delay_s"] = float(arg)
                elif name == "straggle":
                    every, _, seconds = arg.partition("x")
                    kwargs["straggle_every"] = int(every)
                    kwargs["straggle_s"] = float(seconds) if seconds else 0.5
                elif name == "seed":
                    kwargs["seed"] = int(arg)
                else:
                    raise ConfigurationError(
                        f"unknown chaos facet {name!r} in {spec!r} "
                        "(choose from kill-worker, drop-conn, "
                        "heartbeat-delay, straggle, seed)"
                    )
            except ValueError as exc:
                raise ConfigurationError(
                    f"invalid chaos facet {token!r}: {exc}"
                ) from exc
        if not kwargs:
            raise ConfigurationError(f"empty chaos spec {spec!r}")
        return cls(**kwargs)
