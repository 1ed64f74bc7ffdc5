"""Pluggable execution backends: *where* a task grid runs.

An :class:`ExecutionBackend` maps a pure, picklable task function over a
list of payloads and yields the results **in submission order**. That
contract is all the executors need: every task's inputs (including its
scenario seed) are fixed in the parent before submission, the task
function is deterministic, and results are folded in submission order —
so any backend produces results bit-identical to
:class:`SerialBackend`'s, whatever the placement of tasks on processes.

Four backends ship:

* :class:`SerialBackend` — in-process, lazily, one task at a time.
* :class:`ProcessBackend` — a :class:`~concurrent.futures.
  ProcessPoolExecutor` fan-out; what a plan with ``workers > 1`` runs
  on unless a backend is named
  (:func:`~repro.exec.executor.default_backend`).
* :class:`LocalClusterBackend` — shards the task grid round-robin into
  ``shards`` groups, runs each shard as one long-lived worker-process
  job, and re-interleaves the shard outputs back into submission order —
  the shape of a cluster dispatcher, runnable on one machine.
* :class:`~repro.exec.remote.RemoteClusterBackend` — long-lived socket
  workers with heartbeats, liveness monitoring and straggler
  re-dispatch (see :mod:`repro.exec.remote`).

All of them speak the fault taxonomy of :mod:`repro.exec.faults`: a
worker death surfaces as a typed
:class:`~repro.exec.faults.ExecutionError` naming the failing task
index (never an opaque ``BrokenProcessPool``), a
:class:`~repro.exec.retry.RetryPolicy` governs transient-failure
retries (pool recreation + resubmission here), and when retries are
exhausted the policy's ``degrade_in_process`` rung can finish the work
in the parent instead of failing the sweep. Task-function exceptions
are deterministic and always fail fast as
:class:`~repro.exec.faults.TaskError`.

Backends are deliberately ignorant of plans, scenarios and stores; they
see only ``(fn, payloads)``. New substrates (a queue consumer, an RPC
fan-out) plug in by implementing :meth:`ExecutionBackend.map`.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

try:  # pragma: no cover - Protocol exists on every supported Python
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


from repro import obs
from repro.errors import ConfigurationError
from repro.exec.faults import FaultStats, TaskError, TaskFailure, WorkerLost
from repro.exec.retry import NO_RETRY, RetryPolicy

#: CLI-facing backend names, in help-text order.
BACKEND_NAMES = ("serial", "process", "cluster", "remote")


@runtime_checkable
class ExecutionBackend(Protocol):
    """The execution-substrate contract.

    ``map(fn, payloads)`` yields ``fn(payload)`` for every payload **in
    submission order**, lazily where the substrate allows it (the
    executors persist each task's result as soon as it is yielded, so a
    killed run resumes from the completed prefix).
    """

    #: Short stable name (``"serial"``, ``"process"``, ...).
    name: str

    def map(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> Iterator[Any]:
        """Yield ``fn(payload)`` per payload, in submission order."""
        ...  # pragma: no cover - protocol body


class SerialBackend:
    """Run every task in-process, one at a time (the reference order)."""

    name = "serial"

    def map(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> Iterator[Any]:
        """Lazily evaluate ``fn`` over ``payloads`` in order."""
        if obs.active():
            wrapped = obs.wrap_task(fn)

            def _instrumented() -> Iterator[Any]:
                for payload in payloads:
                    submitted = time.time()
                    yield obs.absorb(wrapped(payload), submitted)

            return _instrumented()
        return (fn(payload) for payload in payloads)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "SerialBackend()"


def _run_indexed_chunk(
    fn: Callable[[Any], Any], start_index: int, payloads: List[Any]
) -> List[Any]:
    """Run consecutive payloads in a worker (module-level: picklable).

    A task-function exception is re-raised as a picklable
    :class:`~repro.exec.faults.TaskFailure` carrying the exact grid
    index, so the parent can fail fast naming the right task even when
    several tasks share one submission.
    """
    results = []
    for offset, payload in enumerate(payloads):
        try:
            results.append(fn(payload))
        except TaskFailure:
            raise
        except BaseException as exc:
            raise TaskFailure(
                start_index + offset, f"{type(exc).__name__}: {exc}"
            ) from None
    return results


def _future_is_broken(future) -> bool:
    """Does this future need resubmission after a pool breakage?"""
    if not future.done() or future.cancelled():
        return True
    return future.exception() is not None


class ProcessBackend:
    """Fan tasks over a local process pool, results in submission order.

    Parameters
    ----------
    workers:
        Pool width. ``chunksize`` batches consecutive payloads per
        round-trip (larger chunks amortise pickling of shared payload
        parts, e.g. a sweep point's model library).
    retry:
        :class:`~repro.exec.retry.RetryPolicy` for pool breakage (a
        worker process died). Default :data:`~repro.exec.retry.NO_RETRY`
        fails fast with a typed :class:`~repro.exec.faults.WorkerLost`
        naming the failing task index; with retries the pool is
        recreated and unfinished submissions re-dispatched, and the
        policy's ``degrade_in_process`` rung finishes stubborn chunks in
        the parent. Attempt accounting is per awaited chunk.
    """

    name = "process"

    def __init__(
        self,
        workers: int = 2,
        chunksize: int = 1,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"workers must be at least 1, got {workers}"
            )
        if chunksize < 1:
            raise ConfigurationError(
                f"chunksize must be at least 1, got {chunksize}"
            )
        self.workers = workers
        self.chunksize = chunksize
        self.retry = retry if retry is not None else NO_RETRY
        self.stats = FaultStats()

    def map(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> Iterator[Any]:
        """Yield pool results lazily; order follows submission."""
        payloads = list(payloads)
        self.stats = stats = FaultStats()
        retry = self.retry
        if not payloads:
            return iter(())
        # When observability is on, workers run the wrapped fn (per-task
        # envelopes) and the parent absorbs each envelope at yield time;
        # when off, fn is untouched and the path below is unchanged.
        fn = obs.wrap_task(fn)
        chunks: List[Tuple[int, List[Any]]] = [
            (start, payloads[start : start + self.chunksize])
            for start in range(0, len(payloads), self.chunksize)
        ]
        submitted_at: List[float] = [0.0] * len(chunks)

        def _iterate() -> Iterator[Any]:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            futures: dict = {}

            def submit(to_pool, indices) -> None:
                for ci in indices:
                    start, chunk = chunks[ci]
                    submitted_at[ci] = time.time()
                    futures[ci] = to_pool.submit(
                        _run_indexed_chunk, fn, start, chunk
                    )

            def degrade(ci: int) -> List[Any]:
                stats.degraded += len(chunks[ci][1])
                obs.instant("exec.degraded", task=chunks[ci][0])
                submitted_at[ci] = time.time()
                try:
                    return _run_indexed_chunk(fn, chunks[ci][0], chunks[ci][1])
                except TaskFailure as failure:
                    raise TaskError(
                        "task function raised during in-process "
                        f"degradation: {failure.description}",
                        task_index=failure.task_index,
                    ) from failure

            submit(pool, range(len(chunks)))
            attempts = [0] * len(chunks)
            try:
                for ci in range(len(chunks)):
                    while True:
                        try:
                            results = futures[ci].result()
                            break
                        except TaskFailure as failure:
                            raise TaskError(
                                "task function raised in worker: "
                                f"{failure.description}",
                                task_index=failure.task_index,
                            ) from failure
                        except BrokenExecutor as exc:
                            start = chunks[ci][0]
                            stats.workers_lost += 1
                            obs.instant("exec.worker_lost", task=start)
                            attempts[ci] += 1
                            if retry.exhausted(attempts[ci]):
                                if retry.degrade_in_process:
                                    results = degrade(ci)
                                    break
                                raise WorkerLost(
                                    "worker pool broke while running "
                                    f"task {start} (attempt "
                                    f"{attempts[ci]}/{retry.max_attempts})",
                                    task_index=start,
                                ) from exc
                            stats.retries += 1
                            obs.instant(
                                "exec.retry",
                                task=start,
                                attempt=attempts[ci],
                            )
                            time.sleep(retry.delay_s(attempts[ci], start))
                            # The breakage poisoned every unfinished
                            # future: recreate the pool and re-dispatch.
                            pool.shutdown(wait=False, cancel_futures=True)
                            pool = ProcessPoolExecutor(
                                max_workers=self.workers
                            )
                            submit(
                                pool,
                                [
                                    index
                                    for index in range(ci, len(chunks))
                                    if _future_is_broken(futures[index])
                                ],
                            )
                    for value in results:
                        yield obs.absorb(value, submitted_at[ci])
            finally:
                # Normal completion, an error, or the consumer
                # abandoning the iteration (GeneratorExit): cancel
                # queued work so shutdown doesn't grind through the
                # whole remaining grid.
                pool.shutdown(wait=False, cancel_futures=True)

        return _iterate()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ProcessBackend(workers={self.workers})"


def _run_indexed_shard(
    fn: Callable[[Any], Any], indexed_payloads: List[Tuple[int, Any]]
) -> List[Any]:
    """Run one shard's (index, payload) pairs sequentially (picklable)."""
    results = []
    for index, payload in indexed_payloads:
        try:
            results.append(fn(payload))
        except TaskFailure:
            raise
        except BaseException as exc:
            raise TaskFailure(
                index, f"{type(exc).__name__}: {exc}"
            ) from None
    return results


class LocalClusterBackend:
    """Shard the task grid across long-lived worker-process jobs.

    The grid is dealt round-robin into ``shards`` groups; each group runs
    as a single sequential job in the pool (one "node" of the pretend
    cluster), and the outputs are re-interleaved into submission order.
    Because every task's seed travels in its payload and the fold order
    is reconstructed exactly, the results are bit-identical to
    :class:`SerialBackend` — only the placement of work differs.

    Trade-off versus :class:`ProcessBackend`: a shard's outputs become
    available only when the whole shard job completes, so results reach
    the consumer — and therefore the artifact store's per-task
    persistence — at **shard granularity**. A killed cluster-backend
    sweep resumes from completed shards, not completed tasks; prefer
    ``process`` when fine-grained resume matters more than long-lived
    shard jobs.

    Parameters
    ----------
    shards:
        Number of shard jobs to cut the grid into.
    workers:
        Pool width (defaults to ``shards``: every shard gets a process).
    retry:
        :class:`~repro.exec.retry.RetryPolicy` applied at **shard**
        granularity: a shard job that dies with the pool is resubmitted
        whole (its tasks are deterministic, so the re-run folds the same
        bits), and the ``degrade_in_process`` rung runs a stubborn shard
        in the parent. Default: fail fast with a typed
        :class:`~repro.exec.faults.WorkerLost` naming the shard's first
        task index.
    """

    name = "cluster"

    def __init__(
        self,
        shards: int = 2,
        workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be at least 1, got {shards}")
        if workers is not None and workers < 1:
            raise ConfigurationError(
                f"workers must be at least 1, got {workers}"
            )
        self.shards = shards
        self.workers = workers if workers is not None else shards
        self.retry = retry if retry is not None else NO_RETRY
        self.stats = FaultStats()

    def map(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> Iterator[Any]:
        """Yield shard-job results re-interleaved into submission order."""
        payloads = list(payloads)
        self.stats = stats = FaultStats()
        retry = self.retry
        if not payloads:
            return iter(())
        fn = obs.wrap_task(fn)
        shards = min(self.shards, len(payloads))
        assignment = [index % shards for index in range(len(payloads))]
        indexed_shards: List[List[Tuple[int, Any]]] = [
            [] for _ in range(shards)
        ]
        for index, payload in enumerate(payloads):
            indexed_shards[assignment[index]].append((index, payload))
        submitted_at: List[float] = [0.0] * shards

        def _iterate() -> Iterator[Any]:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            futures: dict = {}
            resolved: dict = {}

            def submit(to_pool, shard_ids) -> None:
                for shard in shard_ids:
                    submitted_at[shard] = time.time()
                    futures[shard] = to_pool.submit(
                        _run_indexed_shard, fn, indexed_shards[shard]
                    )

            def resolve(shard: int) -> None:
                nonlocal pool
                attempts = 0
                while shard not in resolved:
                    try:
                        resolved[shard] = futures[shard].result()
                    except TaskFailure as failure:
                        raise TaskError(
                            "task function raised in shard worker: "
                            f"{failure.description}",
                            task_index=failure.task_index,
                        ) from failure
                    except BrokenExecutor as exc:
                        first_index = indexed_shards[shard][0][0]
                        stats.workers_lost += 1
                        obs.instant("exec.worker_lost", task=first_index)
                        attempts += 1
                        if retry.exhausted(attempts):
                            if retry.degrade_in_process:
                                stats.degraded += len(indexed_shards[shard])
                                obs.instant(
                                    "exec.degraded", task=first_index
                                )
                                submitted_at[shard] = time.time()
                                try:
                                    resolved[shard] = _run_indexed_shard(
                                        fn, indexed_shards[shard]
                                    )
                                except TaskFailure as failure:
                                    raise TaskError(
                                        "task function raised during "
                                        "in-process degradation: "
                                        f"{failure.description}",
                                        task_index=failure.task_index,
                                    ) from failure
                                return
                            raise WorkerLost(
                                f"shard job {shard} lost its worker while "
                                f"running task {first_index} (attempt "
                                f"{attempts}/{retry.max_attempts})",
                                task_index=first_index,
                            ) from exc
                        stats.retries += 1
                        obs.instant(
                            "exec.retry", task=first_index, attempt=attempts
                        )
                        time.sleep(retry.delay_s(attempts, first_index))
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = ProcessPoolExecutor(max_workers=self.workers)
                        submit(
                            pool,
                            [
                                other
                                for other in range(shards)
                                if other not in resolved
                                and _future_is_broken(futures[other])
                            ],
                        )

            submit(pool, range(shards))
            try:
                cursors = [0] * shards
                for index in range(len(payloads)):
                    shard = assignment[index]
                    resolve(shard)
                    yield obs.absorb(
                        resolved[shard][cursors[shard]], submitted_at[shard]
                    )
                    cursors[shard] += 1
            finally:
                pool.shutdown(wait=False, cancel_futures=True)

        return _iterate()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"LocalClusterBackend(shards={self.shards}, "
            f"workers={self.workers})"
        )


def make_backend(
    name: str,
    workers: int = 1,
    retry: Optional[RetryPolicy] = None,
    heartbeat_interval: Optional[float] = None,
    task_timeout: Optional[float] = None,
    chaos=None,
) -> ExecutionBackend:
    """Construct a backend from its CLI name.

    ``workers`` is the parallelism knob: pool width for ``process``,
    shard/pool count for ``cluster``, worker count for ``remote``;
    ``serial`` ignores it. The fault knobs apply where they mean
    something — ``retry`` to every failure-capable backend,
    ``heartbeat_interval``/``task_timeout``/``chaos`` to ``remote``
    only (passing them elsewhere is a configuration error, not a
    silent no-op).
    """
    workers = max(1, workers)
    if name != "remote":
        offending = [
            flag
            for flag, value in (
                ("--heartbeat", heartbeat_interval),
                ("--task-timeout", task_timeout),
                ("--chaos", chaos),
            )
            if value is not None
        ]
        if offending:
            raise ConfigurationError(
                f"{', '.join(offending)} require(s) the remote backend, "
                f"not {name!r}"
            )
    if name == "serial":
        if retry is not None:
            raise ConfigurationError(
                "the serial backend has no failure domain; --retries "
                "requires process, cluster or remote"
            )
        return SerialBackend()
    if name == "process":
        return ProcessBackend(workers=workers, retry=retry)
    if name == "cluster":
        return LocalClusterBackend(shards=workers, retry=retry)
    if name == "remote":
        from repro.exec.remote import RemoteClusterBackend

        kwargs = {}
        if heartbeat_interval is not None:
            kwargs["heartbeat_interval"] = heartbeat_interval
        return RemoteClusterBackend(
            workers=workers,
            retry=retry,
            task_timeout=task_timeout,
            chaos=chaos,
            **kwargs,
        )
    raise ConfigurationError(
        f"unknown backend {name!r}; choose from {', '.join(BACKEND_NAMES)}"
    )
