"""Fault-tolerant remote execution: a socket worker pool with
heartbeats, liveness monitoring and work-stealing re-dispatch.

:class:`RemoteClusterBackend` is the shape of a real sweep-farm
dispatcher, runnable on one machine: tasks ship over a length-prefixed
pickle protocol (TCP on localhost) to long-lived worker *processes*
that connect back to the parent, heartbeat while they compute, and
stream results as they finish. The parent runs a liveness monitor and a
scheduler in the consuming thread:

* a worker whose heartbeat goes silent (or whose connection drops, or
  whose process dies) is declared **lost** — its in-flight task is
  re-queued and retried under the :class:`~repro.exec.retry.
  RetryPolicy`, with deterministic backoff jitter derived from the
  task's grid index;
* a task that out-lives ``task_timeout`` on a live worker is a
  **straggler** — it is speculatively re-dispatched to an idle worker
  (work stealing; first result wins, results are deterministic so
  either copy carries the same bits), and past twice the deadline the
  wedged owner is treated as lost;
* lost workers are **replaced** from a bounded restart budget; when the
  budget is gone and no worker is left, remaining tasks **degrade** to
  in-process execution — the sweep completes, slower, instead of
  hanging;
* a task function that *raises* is deterministic
  (:class:`~repro.exec.faults.TaskError`) and fails fast, whatever the
  retry policy.

Results fold in **submission order** keyed by task index, so any crash
schedule — including every :class:`~repro.exec.faults.ChaosPolicy` the
equivalence suite throws at it — yields series bit-identical to
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
from repro.exec.retry import RetryPolicy

#: Default policy for the remote backend: a fault-tolerant substrate
#: should tolerate faults out of the box (2 retries, then degrade).
REMOTE_DEFAULT_RETRY = RetryPolicy(max_attempts=3, degrade_in_process=True)

_LENGTH = struct.Struct(">I")


# ----------------------------------------------------------------------
# Wire protocol: 4-byte big-endian length + pickle payload
# ----------------------------------------------------------------------
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
def _worker_main(host: str, port: int, worker_id: int) -> None:
    """Long-lived worker: connect back, heartbeat, run tasks forever.

    The first frame from the parent is ``("init", fn, chaos,
    heartbeat_interval)``; everything after is ``("task", index,
    payload)`` or ``("stop",)``. Chaos facets execute *here*, on the
    worker itself, so injected faults ride exactly the code paths real
    crashes take.
    """
    try:
        sock = socket.create_connection((host, port), timeout=10.0)
    except OSError:
        os._exit(11)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            send_frame(sock, message)

    try:
        send(("hello", worker_id))
        init = recv_frame(sock)
        if not init or init[0] != "init":
            os._exit(12)
        _, fn, chaos, heartbeat_interval = init
    except (OSError, pickle.PickleError):
        os._exit(12)

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
        _, task_index, payload = message
        if chaos is not None:
            if chaos.kill_after is not None and tasks_done >= chaos.kill_after:
                # Die *on receipt*, before executing: exactly one
                # in-flight task is lost per granted kill.
                os._exit(17)
            if chaos.straggles(task_index):
                time.sleep(chaos.straggle_s)
        try:
            value = fn(payload)
        except BaseException:
            try:
                send(("task-error", task_index, traceback.format_exc()))
            except OSError:
                break
            continue
        try:
            send(("result", task_index, value))
        except OSError:
            break
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

    def __init__(self, worker_id: int, proc) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.conn: Optional[socket.socket] = None
        self.alive = True  #: not yet declared lost
        self.lost_reason: Optional[str] = None
        self.task: Optional[int] = None  #: index currently assigned here
        self.task_started_at: float = 0.0
        self.last_seen = time.monotonic()  #: any frame counts as life

    @property
    def connected(self) -> bool:
        return self.conn is not None

    @property
    def idle(self) -> bool:
        return self.alive and self.connected and self.task is None


class _RemoteRun:
    """State machine of one ``map`` call (scheduler + monitor + fold)."""

    def __init__(
        self,
        backend: "RemoteClusterBackend",
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
        #: Worker ids below this were spawned up front (set by run()).
        self.initial_workers = 0
        self.first_dispatch_done = False

        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(backend.workers + backend.max_restarts + 1)
        self.host, self.port = self.listener.getsockname()
        try:
            self.ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self.ctx = multiprocessing.get_context()

        self.acceptor = threading.Thread(target=self._accept_loop, daemon=True)

    # -- spawning & handshakes -----------------------------------------
    def _spawn_worker(self) -> None:
        worker_id = self.next_worker_id
        self.next_worker_id += 1
        proc = self.ctx.Process(
            target=_worker_main,
            args=(self.host, self.port, worker_id),
            daemon=True,
        )
        proc.start()
        worker = _Worker(worker_id, proc)
        worker.last_seen = time.monotonic()
        self.workers[worker_id] = worker

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return  # listener closed: run is over
            try:
                conn.settimeout(10.0)
                hello = recv_frame(conn)
                if not hello or hello[0] != "hello":
                    conn.close()
                    continue
                worker_id = hello[1]
                armed = (
                    self.chaos.armed_for(worker_id)
                    if self.chaos is not None
                    else None
                )
                send_frame(
                    conn,
                    ("init", self.fn, armed, self.backend.heartbeat_interval),
                )
                conn.settimeout(None)
            except (OSError, pickle.PickleError):
                conn.close()
                continue
            with self.cond:
                worker = self.workers.get(worker_id)
                if worker is None or self.closing:
                    conn.close()
                    continue
                worker.conn = conn
                worker.last_seen = time.monotonic()
                threading.Thread(
                    target=self._reader, args=(worker,), daemon=True
                ).start()
                self.cond.notify_all()

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
                            "task function raised on remote worker "
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
            if worker.conn is not None:
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
        for worker in list(self.workers.values()):
            if not worker.alive:
                continue
            if not worker.connected:
                # Spawned but never handshook: give it a generous grace.
                if now - worker.last_seen > max(10.0, timeout):
                    self._declare_lost(worker, "never connected")
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
            send_frame(worker.conn, ("task", index, self.payloads[index]))
        except OSError:
            self._declare_lost(worker, "send failed")

    def _dispatch(self, now: float) -> None:
        if not self.pending:
            return
        if not self.first_dispatch_done:
            # Hold the first dispatch until every initially spawned
            # worker has connected or been declared lost (the liveness
            # monitor bounds the wait): chaos facets arm workers by id,
            # so which worker gets task 0 must not depend on which one
            # happened to connect first.
            if any(
                w.alive and not w.connected
                for w in self.workers.values()
                if w.worker_id < self.initial_workers
            ):
                return
            self.first_dispatch_done = True
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
            except BaseException as exc:
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
        try:
            self.listener.close()
        except OSError:
            pass
        for worker in workers:
            if worker.conn is not None:
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
        """The generator body of :meth:`RemoteClusterBackend.map`."""
        total = len(self.payloads)
        self.initial_workers = min(self.backend.workers, total)
        for _ in range(self.initial_workers):
            self._spawn_worker()
        self.acceptor.start()
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


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class RemoteClusterBackend:
    """Ship tasks to long-lived socket workers; survive their deaths.

    Parameters
    ----------
    workers:
        Target worker-process count (lost workers are replaced from
        ``max_restarts``).
    retry:
        :class:`~repro.exec.retry.RetryPolicy` for transient failures;
        defaults to :data:`REMOTE_DEFAULT_RETRY` (2 retries, then
        in-process degradation).
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

    name = "remote"

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
        self.retry = retry if retry is not None else REMOTE_DEFAULT_RETRY
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
        # Workers receive the wrapped fn over the init frame and ship
        # envelopes (result + telemetry snapshot) back as task results;
        # the fold above absorbs them first-result-wins, so a killed
        # worker's partial telemetry never reaches the parent.
        return _RemoteRun(self, obs.wrap_task(fn), payloads).run()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"RemoteClusterBackend(workers={self.workers}, "
            f"retry={self.retry!r}, chaos={self.chaos!r})"
        )
