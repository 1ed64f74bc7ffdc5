"""Tests for the execution backends: ordering, laziness, equivalence,
and the fault layer of the process backend.

The process backend's recovery paths are exercised with deterministic
chaos — worker kills, dropped connections, silent heartbeats,
stragglers, retry exhaustion and in-process degradation — asserting
results stay correct and in submission order under all of them.
"""

import multiprocessing
import os
import pickle
import signal
import socket
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.exec.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    SerialBackend,
    check_backend_name,
    make_backend,
)
from repro.exec.faults import ChaosPolicy, TaskError, WorkerLost
from repro.exec.process import ProcessBackend, recv_frame, send_frame
from repro.exec.retry import NO_RETRY, RetryPolicy

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Fast knobs so chaos runs finish in well under a second each.
FAST = dict(heartbeat_interval=0.05)
#: A fast retry policy for tests: no backoff waits, still retries.
FAST_RETRY = RetryPolicy(
    max_attempts=3, backoff_base_s=0.0, backoff_max_s=0.0, jitter=0.0
)
FAST_DEGRADE = RetryPolicy(
    max_attempts=1,
    backoff_base_s=0.0,
    backoff_max_s=0.0,
    jitter=0.0,
    degrade_in_process=True,
)


def _square(value):
    return value * value


def _slow_square(payload):
    duration, value = payload
    time.sleep(duration)
    return value * value


def _identity(value):
    return value


def _raise_on_three(value):
    if value == 3:
        raise ValueError(f"boom at {value}")
    return value * value


def _die_once_then_square(payload):
    """Kill the worker process the first time any task runs.

    The marker file is created with exclusive-create semantics, so
    exactly one execution dies however the workers race; every later
    execution (retry or degradation) computes normally.
    """
    marker, value = payload
    try:
        with open(marker, "x"):
            pass
    except FileExistsError:
        return value * value
    os._exit(1)


def _die_outside_parent(payload):
    """Kill any worker process; only the parent can run this task."""
    parent_pid, value = payload
    if os.getpid() != parent_pid:
        os._exit(1)
    return value * value


def _die_in_worker_raise_in_parent(payload):
    """Kill workers outright; raise when finally run in the parent."""
    parent_pid, value = payload
    if os.getpid() != parent_pid:
        os._exit(1)
    raise ValueError(f"parent boom at {value}")


#: Indices of the tracked payloads alive in this process that arrived
#: by unpickling (the parent's originals, copied by fork, never count).
_ARRIVED_ALIVE = set()


class _TrackedPayload:
    """A payload whose arrival and finaliser record its index."""

    def __init__(self, index, arrived=False):
        self.index = index
        self.arrived = arrived
        #: Which earlier payloads this process still held on arrival.
        self.held_on_arrival = sorted(_ARRIVED_ALIVE) if arrived else []
        if arrived:
            _ARRIVED_ALIVE.add(index)

    def __reduce__(self):
        return (_TrackedPayload, (self.index, True))

    def __del__(self):
        if self.arrived:
            _ARRIVED_ALIVE.discard(self.index)


def _run_script(source):
    """Run ``source`` in a fresh interpreter; return its stdout words.

    Output goes to a file, not a pipe, so the call returns when the
    interpreter exits even if processes it forked are still running.
    """
    with tempfile.TemporaryFile("w+") as out:
        result = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(source)],
            stdout=out,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=60,
            env={
                "PYTHONPATH": SRC,
                "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            },
        )
        out.seek(0)
        output = out.read()
    assert result.returncode == 0, output
    return output.split()


def _gone(pid):
    """Has process ``pid`` exited (reaped, or a zombie nobody reaped)?"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _arrived(payload):
    return payload.arrived


#: Objects a worker keeps alive, so two of them never share an address.
_KEPT = []


def _id_of_shared(payload):
    shared, _ = payload
    _KEPT.append(shared)
    return id(shared)


def _assert_previous_payload_released(payload):
    assert payload.held_on_arrival == [], (
        f"payload {payload.index} arrived while payloads "
        f"{payload.held_on_arrival} were still held"
    )
    return payload.index


class TestSerialBackend:
    def test_maps_in_order(self):
        assert list(SerialBackend().map(_square, [1, 2, 3])) == [1, 4, 9]

    def test_is_lazy(self):
        calls = []

        def record(value):
            calls.append(value)
            return value

        iterator = SerialBackend().map(record, [1, 2, 3])
        assert calls == []
        assert next(iterator) == 1
        assert calls == [1]  # later payloads untouched until consumed

    def test_empty(self):
        assert list(SerialBackend().map(_square, [])) == []


class TestProcessBackend:
    def test_maps_in_order(self):
        backend = ProcessBackend(workers=2)
        assert list(backend.map(_square, list(range(7)))) == [
            v * v for v in range(7)
        ]
        assert not backend.stats.any()

    def test_single_worker(self):
        backend = ProcessBackend(workers=1, **FAST)
        assert list(backend.map(_square, [3, 1, 2])) == [9, 1, 4]

    def test_empty(self):
        backend = ProcessBackend(workers=2, **FAST)
        assert list(backend.map(_square, [])) == []

    def test_more_workers_than_tasks(self):
        backend = ProcessBackend(workers=4, **FAST)
        assert list(backend.map(_square, [5])) == [25]

    def test_invalid_workers(self):
        for workers in (0, -1):
            with pytest.raises(ConfigurationError, match="at least 1"):
                ProcessBackend(workers=workers)

    def test_accepts_any_iterable_of_payloads(self):
        backend = ProcessBackend(workers=2, **FAST)
        assert list(backend.map(_square, (v for v in range(5)))) == [
            0, 1, 4, 9, 16
        ]

    def test_falsy_results_keep_their_slots(self):
        # Results are tracked by index, so None/0/empty values are
        # yielded in place rather than mistaken for "not done yet".
        values = [0, None, "", False, [], 7]
        backend = ProcessBackend(workers=2, **FAST)
        assert list(backend.map(_identity, values)) == values

    def test_reusable_across_map_calls(self):
        backend = ProcessBackend(workers=2, **FAST)
        assert list(backend.map(_square, [1, 2, 3])) == [1, 4, 9]
        assert list(backend.map(_square, [4, 5])) == [16, 25]

    def test_no_worker_outlives_the_run(self):
        before = set(multiprocessing.active_children())
        backend = ProcessBackend(workers=2, **FAST)
        assert list(backend.map(_square, list(range(6)))) == [
            v * v for v in range(6)
        ]
        assert set(multiprocessing.active_children()) <= before

    def test_abandoned_iterator_stops_its_workers(self):
        # Closing the result iterator early (a consumer that stops
        # reading) must still stop every worker it spawned.
        before = set(multiprocessing.active_children())
        backend = ProcessBackend(workers=2, **FAST)
        results = backend.map(_square, list(range(6)))
        assert next(results) == 0
        results.close()
        assert set(multiprocessing.active_children()) <= before

    def test_opens_no_listening_socket(self, monkeypatch):
        # Each worker is wired to the parent by a socket pair made before
        # the fork. Nothing binds or listens, so no other process on the
        # host can connect and have a frame unpickled by the parent.
        calls = []
        for method in ("bind", "listen", "accept"):
            original = getattr(socket.socket, method)

            def spy(sock, *args, _method=method, _original=original):
                calls.append(_method)
                return _original(sock, *args)

            monkeypatch.setattr(socket.socket, method, spy)
        backend = ProcessBackend(workers=2, **FAST)
        assert list(backend.map(_square, list(range(6)))) == [
            v * v for v in range(6)
        ]
        assert calls == []

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads /proc for process state"
    )
    def test_workers_exit_when_the_parent_dies(self):
        # A parent killed mid-run never sends "stop": its workers must
        # see EOF on their socket and exit, not wait forever. That holds
        # only if no worker keeps a copy of the parent's socket ends.
        pids = _run_script(
            """
            import multiprocessing, os
            from repro.exec.process import ProcessBackend

            def square(value):
                return value * value

            results = ProcessBackend(workers=3).map(square, range(9))
            next(results)
            for child in multiprocessing.active_children():
                print(child.pid, flush=True)
            os._exit(0)
            """
        )
        assert len(pids) == 3
        deadline = time.monotonic() + 10.0
        while not all(_gone(int(pid)) for pid in pids):
            if time.monotonic() > deadline:
                for pid in pids:
                    os.kill(int(pid), signal.SIGKILL)
                pytest.fail("orphaned workers kept running")
            time.sleep(0.05)

    def test_default_retry_fails_fast(self):
        assert ProcessBackend().retry is NO_RETRY

    def test_chunksize_is_a_constant(self):
        # One payload per frame; not a constructor knob.
        assert ProcessBackend.chunksize == 1
        with pytest.raises(TypeError):
            ProcessBackend(workers=2, chunksize=3)

    def test_releases_each_task_before_receiving_the_next(self):
        # One worker runs every task in turn. Each payload records which
        # earlier payloads the worker still held when it arrived; a
        # worker that keeps the previous task alive while it blocks on
        # the next frame holds two payloads (two model libraries) at once.
        backend = ProcessBackend(workers=1, **FAST)
        payloads = [_TrackedPayload(index) for index in range(4)]
        assert list(
            backend.map(_assert_previous_payload_released, payloads)
        ) == [0, 1, 2, 3]

    def test_payloads_arrive_by_fork_not_by_pickle(self):
        backend = ProcessBackend(workers=1, **FAST)
        payloads = [_TrackedPayload(index) for index in range(3)]
        assert list(backend.map(_arrived, payloads)) == [False] * 3

    def test_parent_sends_only_task_indices(self, monkeypatch):
        # Workers fork after the spy is installed, so their own sends
        # land in their copy of `sent`; the parent's list sees only
        # parent-to-worker frames.
        from repro.exec import process

        sent = []
        real_send = process.send_frame

        def spy(sock, message):
            sent.append(message)
            real_send(sock, message)

        monkeypatch.setattr(process, "send_frame", spy)
        library = list(range(100_000))  # would be ~500 KB as a pickle
        payloads = [(library, index) for index in range(4)]
        backend = ProcessBackend(workers=2, **FAST)
        assert list(backend.map(_id_of_shared, payloads))
        assert sent
        for message in sent:
            assert message == ("stop",) or (
                len(message) == 2
                and message[0] == "task"
                and type(message[1]) is int
            ), message
            framed = 4 + len(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
            assert framed < 64, message
        assert sorted(m[1] for m in sent if m[0] == "task") == [0, 1, 2, 3]

    def test_shared_payload_objects_stay_shared_in_a_worker(self):
        # As on SerialBackend: two payloads holding one object (a sweep
        # point's library) hand a worker that very object both times.
        shared = {"library": list(range(1000))}
        payloads = [(shared, 0), (shared, 1)]
        backend = ProcessBackend(workers=1, **FAST)
        first, second = backend.map(_id_of_shared, payloads)
        assert first == second

    def test_task_exception_is_a_typed_task_error(self):
        # A task-function exception must fail fast as TaskError naming
        # the exact grid index — never retried, whatever the policy.
        backend = ProcessBackend(workers=2, retry=FAST_RETRY, **FAST)
        with pytest.raises(TaskError, match="boom at 3") as info:
            list(backend.map(_raise_on_three, list(range(6))))
        assert info.value.task_index == 3
        assert backend.stats.retries == 0

    def test_worker_death_without_retry_is_typed(self, tmp_path):
        backend = ProcessBackend(workers=1)
        payloads = [(str(tmp_path / "marker"), v) for v in range(3)]
        with pytest.raises(WorkerLost) as info:
            list(backend.map(_die_once_then_square, payloads))
        assert info.value.task_index is not None
        assert backend.stats.workers_lost >= 1

    def test_worker_death_is_retried_to_the_right_answer(self, tmp_path):
        backend = ProcessBackend(workers=1, retry=FAST_RETRY)
        payloads = [(str(tmp_path / "marker"), v) for v in range(4)]
        assert list(backend.map(_die_once_then_square, payloads)) == [
            v * v for v in range(4)
        ]
        assert backend.stats.workers_lost >= 1
        assert backend.stats.retries >= 1

    def test_degrades_in_process_when_retries_exhausted(self):
        # Every worker execution dies; the degradation rung finishes the
        # grid in the parent instead of failing the sweep.
        backend = ProcessBackend(workers=1, retry=FAST_DEGRADE)
        payloads = [(os.getpid(), v) for v in range(3)]
        assert list(backend.map(_die_outside_parent, payloads)) == [
            v * v for v in range(3)
        ]
        assert backend.stats.degraded == 3

    def test_degraded_task_exception_is_still_a_task_error(self):
        # Workers die, degradation kicks in, and the task then raises in
        # the parent: still a typed TaskError.
        backend = ProcessBackend(workers=1, retry=FAST_DEGRADE)
        payloads = [(os.getpid(), v) for v in range(2)]
        with pytest.raises(TaskError, match="degradation") as info:
            list(backend.map(_die_in_worker_raise_in_parent, payloads))
        assert info.value.task_index == 0


class TestWireProtocol:
    def test_round_trip(self):
        left, right = socket.socketpair()
        with left, right:
            send_frame(left, ("task", 3, {"q": [1.5, 2]}))
            send_frame(left, ("stop",))
            assert recv_frame(right) == ("task", 3, {"q": [1.5, 2]})
            assert recv_frame(right) == ("stop",)

    def test_frame_larger_than_the_socket_buffer(self):
        # A model library is megabytes: one frame spans many recv calls.
        message = ("result", 0, bytes(range(256)) * 16384)  # 4 MiB
        left, right = socket.socketpair()
        with left, right:
            sender = threading.Thread(target=send_frame, args=(left, message))
            sender.start()
            assert recv_frame(right) == message
            sender.join()

    def test_eof_reads_as_none(self):
        # A clean close and a close mid-frame both read as a dead peer,
        # never as a truncated message.
        left, right = socket.socketpair()
        with right:
            left.close()
            assert recv_frame(right) is None
        left, right = socket.socketpair()
        with right:
            left.sendall(b"\x00\x00\x00\x64" + b"partial")
            left.close()
            assert recv_frame(right) is None


class TestProcessValidation:
    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            ProcessBackend(workers=0)
        with pytest.raises(ConfigurationError):
            ProcessBackend(heartbeat_interval=0.0)
        with pytest.raises(ConfigurationError):
            ProcessBackend(heartbeat_timeout=-1.0)
        with pytest.raises(ConfigurationError):
            ProcessBackend(task_timeout=0.0)
        with pytest.raises(ConfigurationError):
            ProcessBackend(max_restarts=-1)


class TestProcessTransientFailures:
    def test_killed_worker_is_retried(self):
        # Worker 0 dies on receiving its 3rd task: exactly one in-flight
        # task is lost, re-queued and recomputed to the same answer. One
        # worker, so it always gets a 3rd task (with two, the other
        # worker may finish the grid first).
        backend = ProcessBackend(
            workers=1,
            retry=FAST_RETRY,
            chaos=ChaosPolicy(kill_after=2),
            **FAST,
        )
        assert list(backend.map(_square, list(range(8)))) == [
            v * v for v in range(8)
        ]
        assert backend.stats.workers_lost == 1
        assert backend.stats.retries == 1

    def test_dropped_connection_loses_no_completed_work(self):
        # The armed worker closes its connection after *completing* a
        # task: every result it already sent is kept. At most the one
        # task the parent races onto the dying socket is retried. One
        # worker, so the drop always lands mid-run: a worker that drops
        # after the grid's last result is never counted as lost.
        backend = ProcessBackend(
            workers=1,
            retry=FAST_RETRY,
            chaos=ChaosPolicy(drop_after=2),
            **FAST,
        )
        assert list(backend.map(_square, list(range(8)))) == [
            v * v for v in range(8)
        ]
        assert backend.stats.workers_lost == 1
        assert backend.stats.retries <= 1

    def test_silent_heartbeat_declares_the_worker_lost(self):
        # Worker 0's heartbeats arrive ~1s late while its task takes
        # 0.5s: the liveness monitor declares it dead mid-task and a
        # fresh (unarmed) replacement recomputes the task.
        backend = ProcessBackend(
            workers=2,
            retry=FAST_RETRY,
            heartbeat_interval=0.05,
            heartbeat_timeout=0.3,
            chaos=ChaosPolicy(heartbeat_delay_s=1.0),
        )
        payloads = [(0.5, v) for v in range(4)]
        assert list(backend.map(_slow_square, payloads)) == [
            v * v for v in range(4)
        ]
        assert backend.stats.workers_lost >= 1
        assert backend.stats.retries >= 1

    def test_straggler_is_redispatched(self):
        # Task 0 straggles for 2s on worker 0; past task_timeout it is
        # speculatively re-dispatched to an idle worker, whose copy wins.
        backend = ProcessBackend(
            workers=2,
            retry=FAST_RETRY,
            task_timeout=0.3,
            chaos=ChaosPolicy(straggle_every=100, straggle_s=2.0),
            **FAST,
        )
        assert list(backend.map(_square, list(range(6)))) == [
            v * v for v in range(6)
        ]
        assert backend.stats.re_dispatched >= 1

    def test_no_retry_raises_typed_worker_lost(self):
        backend = ProcessBackend(
            workers=1,
            retry=RetryPolicy(max_attempts=1),
            chaos=ChaosPolicy(kill_after=0),
            **FAST,
        )
        with pytest.raises(WorkerLost) as info:
            list(backend.map(_square, list(range(3))))
        assert info.value.task_index is not None

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="stops itself with SIGSTOP"
    )
    def test_stopped_parent_loses_no_worker(self):
        # The parent is stopped (SIGSTOP, as Ctrl-Z does) for longer than
        # the heartbeat timeout, then continued. Its reader threads were
        # stopped too, so every worker looks silent; a healthy run under
        # NO_RETRY must still finish without declaring any worker lost.
        lines = _run_script(
            """
            import os, signal, subprocess, time
            from repro.exec.process import ProcessBackend

            def slow_square(value):
                time.sleep(0.02)
                return value * value

            backend = ProcessBackend(
                workers=2, heartbeat_interval=0.05, heartbeat_timeout=0.3
            )
            results = backend.map(slow_square, range(12))
            first = next(results)
            subprocess.Popen(
                ["sh", "-c", f"sleep 0.9; kill -CONT {os.getpid()}"]
            )
            os.kill(os.getpid(), signal.SIGSTOP)
            print([first] + list(results) == [v * v for v in range(12)])
            print(backend.stats.workers_lost)
            """
        )
        assert lines == ["True", "0"]

    def test_pool_exhaustion_degrades_in_process(self):
        # Every armed worker (and there are more arming grants than
        # restart budget) dies on its first task; the sweep must still
        # complete via the in-process rung.
        backend = ProcessBackend(
            workers=2,
            retry=FAST_DEGRADE,
            chaos=ChaosPolicy(kill_after=0, kill_limit=99),
            max_restarts=1,
            **FAST,
        )
        assert list(backend.map(_square, list(range(4)))) == [
            v * v for v in range(4)
        ]
        assert backend.stats.degraded == 4
        assert backend.stats.workers_lost >= 2

    def test_stats_reset_between_map_calls(self):
        backend = ProcessBackend(
            workers=1,
            retry=FAST_RETRY,
            chaos=ChaosPolicy(kill_after=2),
            **FAST,
        )
        list(backend.map(_square, list(range(8))))
        assert backend.stats.any()
        # Chaos re-arms worker ids 0..kill_limit-1 every map call, but
        # the stats must describe only the latest call.
        list(backend.map(_square, [1]))
        assert backend.stats.workers_lost <= 1


class TestMakeBackend:
    def test_names(self):
        assert BACKEND_NAMES == ("serial", "process")
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process", workers=3), ProcessBackend)

    @pytest.mark.parametrize("name", ["cluster", "remote"])
    def test_removed_names_name_the_replacement(self, name):
        with pytest.raises(
            ConfigurationError, match=f"{name!r} backend was removed; use 'process'"
        ):
            make_backend(name, workers=2)

    def test_workers_knob(self):
        assert make_backend("process", workers=3).workers == 3

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_workers_below_one(self, workers):
        for name in BACKEND_NAMES:
            with pytest.raises(ConfigurationError, match="at least 1"):
                make_backend(name, workers=workers)

    def test_check_backend_name(self):
        for name in BACKEND_NAMES:
            assert check_backend_name(name) == name
        with pytest.raises(ConfigurationError, match="unknown backend"):
            check_backend_name("slurm")

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make_backend("slurm")

    def test_retry_threads_through(self):
        assert make_backend("process", retry=FAST_RETRY).retry is FAST_RETRY
        assert make_backend("process").retry is NO_RETRY

    def test_serial_rejects_retry(self):
        with pytest.raises(ConfigurationError, match="no failure domain"):
            make_backend("serial", retry=FAST_RETRY)

    def test_fault_flags_rejected_on_serial(self):
        with pytest.raises(ConfigurationError, match="--heartbeat"):
            make_backend("serial", heartbeat_interval=0.1)
        with pytest.raises(ConfigurationError, match="--task-timeout"):
            make_backend("serial", task_timeout=1.0)
        with pytest.raises(ConfigurationError, match="--chaos"):
            make_backend("serial", chaos=ChaosPolicy(kill_after=1))

    def test_fault_flags_accepted_on_process(self):
        backend = make_backend(
            "process",
            workers=2,
            heartbeat_interval=0.1,
            task_timeout=5.0,
            chaos=ChaosPolicy(kill_after=1),
        )
        assert backend.heartbeat_interval == 0.1
        assert backend.task_timeout == 5.0
        assert backend.chaos.kill_after == 1

    def test_protocol_conformance(self):
        for name in BACKEND_NAMES:
            assert isinstance(make_backend(name), ExecutionBackend)
