"""Pluggable execution backends: *where* a task grid runs.

An :class:`ExecutionBackend` maps a pure, picklable task function over a
list of payloads and yields the results **in submission order**. That
contract is all the executors need: every task's inputs (including its
scenario seed) are fixed in the parent before submission, the task
function is deterministic, and results are folded in submission order —
so any backend produces results bit-identical to
:class:`SerialBackend`'s, whatever the placement of tasks on processes.

Two backends ship:

* :class:`SerialBackend` — in-process, lazily, one task at a time.
* :class:`~repro.exec.process.ProcessBackend` — long-lived forked worker
  processes fed one task at a time over private socket pairs, with
  heartbeats, retries, straggler re-dispatch and chaos injection; what a
  plan with ``workers > 1`` runs on unless a backend is named
  (:func:`~repro.exec.executor.default_backend`).

This module holds the contract, :class:`SerialBackend` and the name
lookup (:data:`BACKEND_NAMES`, :func:`check_backend_name`,
:func:`make_backend`). The process backend lives in
:mod:`repro.exec.process`, which alone imports :mod:`multiprocessing`,
:mod:`socket` and the fault layer (:mod:`repro.exec.faults`,
:mod:`repro.exec.retry`); :func:`make_backend` imports it only when it
builds a process backend, so a serial run never loads it.

Backends are deliberately ignorant of plans, scenarios and stores; they
see only ``(fn, payloads)``. New substrates (a queue consumer, an RPC
fan-out) plug in by implementing :meth:`ExecutionBackend.map`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence

try:  # pragma: no cover - Protocol exists on every supported Python
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


from repro import obs
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.exec.retry import RetryPolicy


#: CLI-facing backend names, in help-text order.
BACKEND_NAMES = ("serial", "process")

#: Backends that were folded into ``process``; naming one is an error
#: that points at the replacement.
_REMOVED_BACKENDS = ("cluster", "remote")


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


def check_backend_name(name: str) -> str:
    """Return ``name`` if it names a backend; otherwise raise.

    A removed backend name fails with a message naming its replacement.
    """
    if name in _REMOVED_BACKENDS:
        raise ConfigurationError(
            f"the {name!r} backend was removed; use 'process' (the same "
            "long-lived socket workers, heartbeats and retries)"
        )
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown backend {name!r}; choose from {', '.join(BACKEND_NAMES)}"
        )
    return name


def make_backend(
    name: str,
    workers: int = 1,
    retry: Optional[RetryPolicy] = None,
    heartbeat_interval: Optional[float] = None,
    task_timeout: Optional[float] = None,
    chaos=None,
) -> ExecutionBackend:
    """Construct a backend from its CLI name.

    ``workers`` is the worker count of ``process``; ``serial`` ignores
    it. The fault knobs (``retry``, ``heartbeat_interval``,
    ``task_timeout``, ``chaos``) apply to ``process`` only: passing any
    of them to ``serial`` is a configuration error, not a silent no-op.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be at least 1, got {workers}")
    check_backend_name(name)
    if name == "serial":
        offending = [
            flag
            for flag, value in (
                ("--retries", retry),
                ("--heartbeat", heartbeat_interval),
                ("--task-timeout", task_timeout),
                ("--chaos", chaos),
            )
            if value is not None
        ]
        if offending:
            raise ConfigurationError(
                "the serial backend has no failure domain; "
                f"{', '.join(offending)} require(s) the process backend"
            )
        return SerialBackend()
    from repro.exec.process import ProcessBackend

    kwargs = {}
    if heartbeat_interval is not None:
        kwargs["heartbeat_interval"] = heartbeat_interval
    return ProcessBackend(
        workers=workers,
        retry=retry,
        task_timeout=task_timeout,
        chaos=chaos,
        **kwargs,
    )


def __getattr__(name: str):
    # The repo benchmark's layer timers import ProcessBackend by this
    # path; resolving it on access keeps serial runs from loading it.
    if name == "ProcessBackend":
        from repro.exec.process import ProcessBackend

        return ProcessBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
