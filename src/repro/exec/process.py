"""The process backend: forked, fault-tolerant long-lived workers.

:class:`ProcessBackend` is what a plan with ``workers > 1`` runs on
unless a backend is named (:func:`~repro.exec.executor.default_backend`).
This module holds it with everything only it needs: the length-prefixed
pickle frames (:func:`send_frame`/:func:`recv_frame`), the worker loop
and the parent-side scheduler. It alone imports :mod:`multiprocessing`,
:mod:`socket`, :mod:`repro.exec.faults` and :mod:`repro.exec.retry`, and
it is imported only when a process backend is built, so a serial run
never loads any of them.

:class:`ProcessBackend` forks workers after the payload list is built,
so they inherit the task function and every payload. Over a
:func:`socket.socketpair` made for each worker before the fork (nothing
outside the process tree can reach either end) the parent sends only
task indices, in length-prefixed pickle frames, while the workers
heartbeat and stream results back as they finish. The parent runs a
liveness monitor and a scheduler in the consuming thread:

* a worker whose heartbeat goes silent (or whose connection drops, or
  whose process dies) is declared **lost** — its in-flight task is
  re-queued and retried under the :class:`~repro.exec.retry.
  RetryPolicy`, with deterministic backoff jitter derived from the
  task's grid index;
* a task that out-lives ``task_timeout`` on a live worker is a
  **straggler** — it is speculatively re-dispatched to an idle worker
  (first result wins; results are deterministic, so either copy carries
  the same bits), and past twice the deadline the wedged owner is
  treated as lost;
* lost workers are **replaced** from a bounded restart budget; when
  retries are exhausted under a ``degrade_in_process`` policy, or the
  budget is gone and no worker is left, remaining tasks **degrade** to
  in-process execution — the sweep completes, slower, instead of
  failing;
* a task function that *raises* is deterministic
  (:class:`~repro.exec.faults.TaskError`) and fails fast, whatever the
  retry policy.

The default policy is :data:`~repro.exec.retry.NO_RETRY`: the first
lost worker fails the run with a typed
:class:`~repro.exec.faults.WorkerLost` naming the task index. Any crash
schedule a retrying policy survives — including every
:class:`~repro.exec.faults.ChaosPolicy` the equivalence suite throws at
it — yields series bit-identical to
:class:`~repro.exec.backends.SerialBackend`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import socket
import struct
import threading
import time
import traceback
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Set

from repro import obs
from repro.errors import ConfigurationError
from repro.exec.faults import (
    ChaosPolicy,
    FaultStats,
    TaskError,
    TaskTimeout,
    WorkerLost,
)
from repro.exec.retry import NO_RETRY, RetryPolicy


# ----------------------------------------------------------------------
# Wire protocol: 4-byte big-endian length + pickle payload
# ----------------------------------------------------------------------
_LENGTH = struct.Struct(">I")


def send_frame(sock: socket.socket, message: Any) -> None:
    """Serialise one protocol message onto ``sock``."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            return None
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Any]:
    """Read one protocol message from ``sock`` (``None`` on EOF)."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    payload = _recv_exact(sock, _LENGTH.unpack(header)[0])
    if payload is None:
        return None
    return pickle.loads(payload)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(
    sock: socket.socket,
    inherited: List[socket.socket],
    worker_id: int,
    fn: Callable[[Any], Any],
    payloads: List[Any],
    chaos: Optional[ChaosPolicy],
    heartbeat_interval: float,
) -> None:
    """Long-lived worker: heartbeat, run tasks until told to stop.

    ``sock`` is this worker's end of its socket pair; ``inherited`` are
    the parent's ends the fork copied in, closed here so that the
    parent's death reads as EOF. ``fn`` and ``payloads`` came with the
    fork; frames from the parent are ``("task", index)`` or ``("stop",)``.
    Chaos facets execute *here*, on the worker itself, so injected
    faults ride exactly the code paths real crashes take.
    """
    for other in inherited:
        other.close()
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            send_frame(sock, message)

    def _heartbeat() -> None:
        while True:
            time.sleep(heartbeat_interval)
            if chaos is not None and chaos.heartbeat_delay_s > 0:
                time.sleep(chaos.heartbeat_delay_s)
            try:
                send(("heartbeat", worker_id))
            except OSError:
                return

    threading.Thread(target=_heartbeat, daemon=True).start()

    tasks_done = 0
    while True:
        try:
            message = recv_frame(sock)
        except OSError:
            break
        if message is None or message[0] == "stop":
            break
        if message[0] != "task":
            continue
        task_index = message[1]
        if chaos is not None:
            if chaos.kill_after is not None and tasks_done >= chaos.kill_after:
                # Die *on receipt*, before executing: exactly one
                # in-flight task is lost per granted kill.
                os._exit(17)
            if chaos.straggles(task_index):
                time.sleep(chaos.straggle_s)
        try:
            reply = ("result", task_index, fn(payloads[task_index]))
        except BaseException:
            reply = ("task-error", task_index, traceback.format_exc())
        # Only the reply is this task's own (the payloads are the
        # fork's); it is dropped once sent, before the next frame.
        try:
            send(reply)
        except OSError:
            break
        completed = reply[0] == "result"
        del reply
        if not completed:
            continue
        tasks_done += 1
        if (
            chaos is not None
            and chaos.drop_after is not None
            and tasks_done >= chaos.drop_after
        ):
            # Drop the connection after a completed task: nothing is
            # lost, but the parent sees a dead peer.
            try:
                sock.close()
            finally:
                os._exit(18)
    try:
        sock.close()
    except OSError:
        pass


# ----------------------------------------------------------------------
# Parent-side bookkeeping
# ----------------------------------------------------------------------
class _Worker:
    """Parent-side handle of one worker process."""

    def __init__(self, worker_id: int, proc, conn: socket.socket) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.conn = conn  #: the parent's end of the worker's socket pair
        self.alive = True  #: not yet declared lost
        self.lost_reason: Optional[str] = None
        self.task: Optional[int] = None  #: index currently assigned here
        self.task_started_at: float = 0.0
        self.last_seen = time.monotonic()  #: any frame counts as life

    @property
    def idle(self) -> bool:
        return self.alive and self.task is None


class _ProcessRun:
    """State machine of one ``map`` call (scheduler + monitor + fold)."""

    def __init__(
        self,
        backend: "ProcessBackend",
        fn: Callable[[Any], Any],
        payloads: List[Any],
    ) -> None:
        self.backend = backend
        self.fn = fn
        self.payloads = payloads
        self.stats = backend.stats
        self.retry = backend.retry
        self.chaos = backend.chaos

        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        n = len(payloads)
        #: Epoch stamp of each task's *first* dispatch (or degradation
        #: start): the parent half of the queue-wait measurement.
        self.assigned_epoch: Dict[int, float] = {}
        self.results: Dict[int, Any] = {}
        self.attempts = [0] * n
        self.pending: Deque[int] = deque(range(n))
        self.not_before = [0.0] * n
        self.redispatched: Set[int] = set()
        self.degrade_queue: Deque[int] = deque()
        self.error: Optional[BaseException] = None
        self.closing = False

        self.workers: Dict[int, _Worker] = {}
        self.next_worker_id = 0
        self.restarts_used = 0
        #: When the liveness monitor last ran (see _check_liveness).
        self.last_check = time.monotonic()
        self.ctx = multiprocessing.get_context("fork")

    # -- spawning ------------------------------------------------------
    def _spawn_worker(self) -> None:
        """Fork one worker wired to the parent by a fresh socket pair."""
        worker_id = self.next_worker_id
        self.next_worker_id += 1
        conn, child_end = socket.socketpair()
        armed = (
            self.chaos.armed_for(worker_id) if self.chaos is not None else None
        )
        inherited = [conn] + [w.conn for w in self.workers.values()]
        proc = self.ctx.Process(
            target=_worker_main,
            args=(
                child_end,
                inherited,
                worker_id,
                self.fn,
                self.payloads,
                armed,
                self.backend.heartbeat_interval,
            ),
            daemon=True,
        )
        proc.start()
        child_end.close()
        worker = _Worker(worker_id, proc, conn)
        self.workers[worker_id] = worker
        threading.Thread(
            target=self._reader, args=(worker,), daemon=True
        ).start()

    # -- per-worker reader ---------------------------------------------
    def _reader(self, worker: _Worker) -> None:
        while True:
            try:
                message = recv_frame(worker.conn)
            except OSError:
                message = None
            if message is None:
                with self.cond:
                    self._declare_lost(worker, "connection lost")
                    self.cond.notify_all()
                return
            kind = message[0]
            with self.cond:
                now = time.monotonic()
                if kind == "heartbeat":
                    # The observed gap between consecutive signs of life
                    # is the liveness monitor's actual signal-to-noise:
                    # gaps approaching heartbeat_timeout mean lost
                    # workers are being declared on a hair trigger.
                    obs.observe(
                        "repro_exec_heartbeat_gap_seconds",
                        now - worker.last_seen,
                    )
                worker.last_seen = now
                if kind == "result":
                    _, index, value = message
                    if index not in self.results:
                        self.results[index] = value
                    if worker.task == index:
                        worker.task = None
                    self.cond.notify_all()
                elif kind == "task-error":
                    _, index, description = message
                    if self.error is None:
                        self.error = TaskError(
                            "task function raised on worker "
                            f"{worker.worker_id}:\n{description}",
                            task_index=index,
                        )
                    if worker.task == index:
                        worker.task = None
                    self.cond.notify_all()
                # heartbeats only refresh last_seen

    # -- failure handling (all called under the lock) ------------------
    def _declare_lost(self, worker: _Worker, reason: str) -> None:
        """Idempotently mark a worker dead and recover its task."""
        if not worker.alive:
            return
        worker.alive = False
        worker.lost_reason = reason
        if not self.closing:
            self.stats.workers_lost += 1
            obs.instant(
                "exec.worker_lost", worker=worker.worker_id, reason=reason
            )
        try:
            worker.conn.close()
        except OSError:
            pass
        try:
            worker.proc.terminate()
        except (OSError, ValueError):
            pass
        index, worker.task = worker.task, None
        if self.closing or index is None or index in self.results:
            return
        if any(
            other.alive and other.task == index
            for other in self.workers.values()
        ):
            return  # a re-dispatched copy is still running it
        self._requeue(index, reason)

    def _requeue(self, index: int, reason: str) -> None:
        self.attempts[index] += 1
        if self.retry.exhausted(self.attempts[index]):
            if self.retry.degrade_in_process:
                obs.instant("exec.degraded", task=index, reason=reason)
                self.degrade_queue.append(index)
                return
            if self.error is None:
                exc_type = (
                    TaskTimeout if "straggl" in reason else WorkerLost
                )
                self.error = exc_type(
                    f"task {index} failed {self.attempts[index]} time(s) "
                    f"({reason}); retry budget "
                    f"max_attempts={self.retry.max_attempts} exhausted",
                    task_index=index,
                )
            return
        self.stats.retries += 1
        obs.instant(
            "exec.retry",
            task=index,
            attempt=self.attempts[index],
            reason=reason,
        )
        self.not_before[index] = time.monotonic() + self.retry.delay_s(
            self.attempts[index], index
        )
        self.pending.appendleft(index)

    def _check_liveness(self, now: float) -> None:
        timeout = self.backend.heartbeat_timeout
        stalled = now - self.last_check > timeout
        self.last_check = now
        for worker in list(self.workers.values()):
            if not worker.alive:
                continue
            if stalled:
                # The monitor itself went unscheduled for a whole timeout
                # (the parent was stopped, or busy degrading tasks): the
                # silence is the parent's, not the workers', so restart
                # their clocks instead of declaring them lost.
                worker.last_seen = now
            elif now - worker.last_seen > timeout:
                self._declare_lost(worker, "heartbeat timeout")

    def _check_stragglers(self, now: float) -> None:
        timeout = self.backend.task_timeout
        if timeout is None:
            return
        for worker in list(self.workers.values()):
            if not worker.alive or worker.task is None:
                continue
            age = now - worker.task_started_at
            if age <= timeout:
                continue
            index = worker.task
            if index not in self.redispatched:
                idle = next(
                    (w for w in self.workers.values() if w.idle), None
                )
                if idle is not None:
                    self.redispatched.add(index)
                    self.stats.re_dispatched += 1
                    obs.instant(
                        "exec.redispatch",
                        task=index,
                        owner=worker.worker_id,
                        thief=idle.worker_id,
                    )
                    self._assign(idle, index, now)
                    continue
            if age > 2 * timeout:
                # Both hope and patience exhausted: the owner is wedged.
                self._declare_lost(worker, "straggler past hard deadline")

    def _respawn(self) -> None:
        unfinished = len(self.payloads) - len(self.results)
        live = sum(1 for w in self.workers.values() if w.alive)
        while (
            live < self.backend.workers
            and self.restarts_used < self.backend.max_restarts
            and live < unfinished
        ):
            self.restarts_used += 1
            self._spawn_worker()
            live += 1

    def _pool_exhausted(self) -> bool:
        return (
            not any(w.alive for w in self.workers.values())
            and self.restarts_used >= self.backend.max_restarts
        )

    # -- dispatch ------------------------------------------------------
    def _assign(self, worker: _Worker, index: int, now: float) -> None:
        """Mark + send one task to one worker (send failures = lost)."""
        worker.task = index
        worker.task_started_at = now
        self.assigned_epoch.setdefault(index, time.time())
        try:
            send_frame(worker.conn, ("task", index))
        except OSError:
            self._declare_lost(worker, "send failed")

    def _dispatch(self, now: float) -> None:
        if not self.pending:
            return
        idle = sorted(
            (w for w in self.workers.values() if w.idle),
            key=lambda w: w.worker_id,
        )
        if not idle:
            return
        ready: List[int] = []
        deferred: List[int] = []
        while self.pending and len(ready) < len(idle):
            index = self.pending.popleft()
            if index in self.results:
                continue  # a duplicate already finished it
            if self.not_before[index] > now:
                deferred.append(index)
            else:
                ready.append(index)
        for index in reversed(deferred):
            self.pending.appendleft(index)
        for worker, index in zip(idle, ready):
            self._assign(worker, index, now)

    # -- degradation ---------------------------------------------------
    def _collect_degraded(self) -> List[int]:
        """Indices that must now run in the parent (under the lock)."""
        indices = list(self.degrade_queue)
        self.degrade_queue.clear()
        if self._pool_exhausted():
            # The whole pool is gone: everything still pending comes home.
            while self.pending:
                index = self.pending.popleft()
                if index not in self.results:
                    indices.append(index)
        return indices

    def _run_degraded(self, indices: List[int]) -> None:
        """Execute fallen-back tasks in-process (outside the lock)."""
        for index in indices:
            self.assigned_epoch.setdefault(index, time.time())
            try:
                value = self.fn(self.payloads[index])
            except BaseException:
                description = traceback.format_exc()
                with self.cond:
                    if self.error is None:
                        self.error = TaskError(
                            "task function raised during in-process "
                            f"degradation:\n{description}",
                            task_index=index,
                        )
                    self.cond.notify_all()
                return
            with self.cond:
                if index not in self.results:
                    self.results[index] = value
                self.stats.degraded += 1
                self.cond.notify_all()

    # -- lifecycle -----------------------------------------------------
    def _shutdown(self) -> None:
        with self.cond:
            self.closing = True
            workers = list(self.workers.values())
        for worker in workers:
            try:
                send_frame(worker.conn, ("stop",))
            except OSError:
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
            try:
                worker.proc.terminate()
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.proc.join(timeout=2.0)

    def run(self) -> Iterator[Any]:
        """The generator body of :meth:`ProcessBackend.map`."""
        total = len(self.payloads)
        with self.cond:
            for _ in range(min(self.backend.workers, total)):
                self._spawn_worker()
            self.last_check = time.monotonic()
        tick = self.backend._tick
        next_yield = 0
        try:
            while next_yield < total:
                to_yield: List[Any] = []
                with self.cond:
                    if self.error is not None:
                        raise self.error
                    now = time.monotonic()
                    self._check_liveness(now)
                    self._check_stragglers(now)
                    self._respawn()
                    self._dispatch(now)
                    degraded = self._collect_degraded()
                    while next_yield < total and next_yield in self.results:
                        to_yield.append((next_yield, self.results[next_yield]))
                        next_yield += 1
                    if not to_yield and not degraded:
                        self.cond.wait(tick)
                        if self.error is not None:
                            raise self.error
                if degraded:
                    self._run_degraded(degraded)
                for index, value in to_yield:
                    yield obs.absorb(value, self.assigned_epoch.get(index))
        finally:
            self._shutdown()


class ProcessBackend:
    """Ship tasks to long-lived worker processes; survive their deaths.

    Parameters
    ----------
    workers:
        Target worker-process count (lost workers are replaced from
        ``max_restarts``).
    retry:
        :class:`~repro.exec.retry.RetryPolicy` for transient failures;
        defaults to :data:`~repro.exec.retry.NO_RETRY` (the first lost
        worker fails the run with a typed
        :class:`~repro.exec.faults.WorkerLost`).
    heartbeat_interval / heartbeat_timeout:
        Workers heartbeat every ``heartbeat_interval`` seconds; a
        worker silent for ``heartbeat_timeout`` (default: five
        intervals, at least 1 s) is declared lost.
    task_timeout:
        Straggler deadline in seconds: past it a task is re-dispatched
        to an idle worker, past twice it the wedged owner is lost.
        ``None`` (default) disables straggler handling.
    chaos:
        A :class:`~repro.exec.faults.ChaosPolicy` executed *by the
        workers on themselves* — deterministic fault injection for
        tests, CI and drills.
    max_restarts:
        Replacement-worker budget (default ``2 * workers + 2``); once
        spent, remaining tasks degrade to in-process execution.
    """

    name = "process"
    #: Tasks per frame: each frame names one task by its index.
    chunksize = 1

    def __init__(
        self,
        workers: int = 2,
        retry: Optional[RetryPolicy] = None,
        heartbeat_interval: float = 0.2,
        heartbeat_timeout: Optional[float] = None,
        task_timeout: Optional[float] = None,
        chaos: Optional[ChaosPolicy] = None,
        max_restarts: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"workers must be at least 1, got {workers}"
            )
        if heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be > 0")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ConfigurationError("heartbeat_timeout must be > 0")
        if task_timeout is not None and task_timeout <= 0:
            raise ConfigurationError("task_timeout must be > 0")
        if max_restarts is not None and max_restarts < 0:
            raise ConfigurationError("max_restarts must be >= 0")
        self.workers = workers
        self.retry = retry if retry is not None else NO_RETRY
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout
            if heartbeat_timeout is not None
            else max(1.0, 5.0 * heartbeat_interval)
        )
        self.task_timeout = task_timeout
        self.chaos = chaos
        self.max_restarts = (
            max_restarts if max_restarts is not None else 2 * workers + 2
        )
        #: Monitor wake-up cadence: fine enough to catch timeouts fast.
        self._tick = min(0.25, max(0.01, heartbeat_interval / 2.0))
        self.stats = FaultStats()

    def map(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> Iterator[Any]:
        """Yield ``fn(payload)`` per payload in submission order,
        surviving worker crashes per the retry policy."""
        self.stats = FaultStats()
        payloads = list(payloads)
        if not payloads:
            return iter(())
        # Workers inherit the wrapped fn and the payloads through the
        # fork and ship envelopes (result + telemetry snapshot) back as
        # task results; the fold above absorbs them first-result-wins,
        # so a killed worker's partial telemetry never reaches the parent.
        return _ProcessRun(self, obs.wrap_task(fn), payloads).run()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ProcessBackend(workers={self.workers}, "
            f"retry={self.retry!r}, chaos={self.chaos!r})"
        )
