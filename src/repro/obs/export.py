"""Exporters and validators: Chrome trace-event JSON, Prometheus text.

:func:`chrome_trace` renders a :class:`~repro.obs.trace.Tracer` as the
Chrome trace-event format (the ``{"traceEvents": [...]}`` flavour) —
``B``/``E`` duration pairs per span, ``i`` instants, plus ``M``
metadata naming each process track. The file loads directly in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

:func:`validate_chrome_trace` is the strict consumer the tests and the
CI ``obs-smoke`` job share: timestamps monotone per ``(pid, tid)``,
every ``B`` balanced by a matching ``E``, no ``E`` without an open
span. :func:`parse_prometheus` plays the same role for the ``/metrics``
exposition.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple, Union

from repro.obs.trace import Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "parse_prometheus",
]


def _track_events(
    spans: List[tuple], instants: List[tuple], pid: int, tid: int
) -> List[Dict[str, Any]]:
    """One (pid, tid) track's B/E/i events, balanced and ts-monotone.

    B/E pairs are produced by an explicit stack simulation: spans are
    opened in start order and closed LIFO, with a child's end clamped
    to its parent's — so even spans whose timestamps collapsed onto the
    same microsecond come out properly nested, never crossing.
    """
    ordered: List[Tuple[int, int, Dict[str, Any]]] = []
    seq = 0

    def emit(ts: int, event: Dict[str, Any]) -> None:
        nonlocal seq
        ordered.append((ts, seq, event))
        seq += 1

    base = {"cat": "repro", "pid": pid, "tid": tid}
    stack: List[Tuple[int, Dict[str, Any]]] = []
    spans = sorted(spans, key=lambda r: (r[1], -(r[1] + r[2]), r[5]))
    for name, start, dur, _pid, _tid, _depth, args in spans:
        while stack and stack[-1][0] <= start:
            end, event = stack.pop()
            emit(end, event)
        end = start + dur
        if stack:
            end = min(end, stack[-1][0])
        begin = dict(base, name=name, ph="B", ts=start)
        if args:
            begin["args"] = dict(args)
        emit(start, begin)
        stack.append((end, dict(base, name=name, ph="E", ts=end)))
    while stack:
        end, event = stack.pop()
        emit(end, event)
    for name, ts, _pid, _tid, args in instants:
        event = dict(base, name=name, ph="i", ts=ts, s="t")
        if args:
            event["args"] = dict(args)
        emit(ts, event)
    # Stable by ts: span events keep their balanced relative order,
    # instants interleave at their timestamps.
    ordered.sort(key=lambda item: (item[0], item[1]))
    return [event for _ts, _seq, event in ordered]


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """A tracer's records as a Chrome trace-event JSON object."""
    tracks: Dict[Tuple[int, int], Tuple[List[tuple], List[tuple]]] = {}
    for record in tracer.spans:
        track = tracks.setdefault((record[3], record[4]), ([], []))
        track[0].append(record)
    for record in tracer.instants:
        track = tracks.setdefault((record[2], record[3]), ([], []))
        track[1].append(record)
    events: List[Dict[str, Any]] = []
    for (pid, tid), (spans, instants) in sorted(tracks.items()):
        events.extend(_track_events(spans, instants, pid, tid))
    pids = {pid for pid, _tid in tracks}
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {
                "name": "repro parent" if pid == tracer.pid else f"worker {pid}"
            },
        }
        for pid in sorted(pids)
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str) -> int:
    """Write the trace JSON to ``path``; returns the event count."""
    payload = chrome_trace(tracer)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return len(payload["traceEvents"])


def validate_chrome_trace(
    source: Union[str, Dict[str, Any], List[Dict[str, Any]]],
) -> Dict[str, int]:
    """Check a trace file/object against the trace-event contract.

    Accepts a path, a ``{"traceEvents": [...]}`` object or a bare event
    list. Raises :class:`ValueError` naming the first violation;
    returns ``{"spans": ..., "instants": ..., "tracks": ...}`` counts on
    success.
    """
    if isinstance(source, str):
        with open(source) as handle:
            payload = json.load(handle)
    else:
        payload = source
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("trace object has no 'traceEvents' list")
    elif isinstance(payload, list):
        events = payload
    else:
        raise ValueError(f"not a trace payload: {type(payload).__name__}")

    stacks: Dict[Tuple[int, int], List[str]] = {}
    last_ts: Dict[Tuple[int, int], int] = {}
    spans = instants = 0
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event #{position} is not an object")
        phase = event.get("ph")
        if phase == "M":
            continue
        for field in ("name", "pid", "tid", "ts"):
            if field not in event:
                raise ValueError(
                    f"event #{position} ({phase!r}) missing {field!r}"
                )
        track = (event["pid"], event["tid"])
        ts = event["ts"]
        if ts < last_ts.get(track, ts):
            raise ValueError(
                f"event #{position} ({event['name']!r}): ts {ts} goes "
                f"backwards on track pid={track[0]} tid={track[1]} "
                f"(last was {last_ts[track]})"
            )
        last_ts[track] = ts
        if phase == "B":
            stacks.setdefault(track, []).append(event["name"])
            spans += 1
        elif phase == "E":
            stack = stacks.get(track)
            if not stack:
                raise ValueError(
                    f"event #{position}: 'E' for {event['name']!r} with "
                    f"no open span on track {track}"
                )
            opened = stack.pop()
            if opened != event["name"]:
                raise ValueError(
                    f"event #{position}: 'E' for {event['name']!r} "
                    f"crosses open span {opened!r} on track {track}"
                )
        elif phase == "i":
            instants += 1
        else:
            raise ValueError(
                f"event #{position}: unsupported phase {phase!r}"
            )
    unbalanced = {track: stack for track, stack in stacks.items() if stack}
    if unbalanced:
        raise ValueError(
            f"unbalanced 'B' events at end of trace: {unbalanced}"
        )
    return {"spans": spans, "instants": instants, "tracks": len(last_ts)}


def parse_prometheus(text: str) -> Dict[str, Dict[str, float]]:
    """Parse text exposition format into ``{name: {labels: value}}``.

    ``labels`` is the rendered ``{k="v",...}`` string (empty for bare
    metrics) — enough structure for tests and the CI smoke job to
    assert on, while rejecting malformed lines loudly.
    """
    samples: Dict[str, Dict[str, float]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            if line.startswith("# TYPE") and len(line.split()) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE comment")
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"line {lineno}: no sample value in {raw!r}")
        try:
            value = float(value_part)
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value {value_part!r}"
            ) from None
        brace = name_part.find("{")
        if brace >= 0:
            name, labels = name_part[:brace], name_part[brace:]
            if not labels.endswith("}"):
                raise ValueError(f"line {lineno}: unterminated labels")
        else:
            name, labels = name_part, ""
        if not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"line {lineno}: bad metric name {name!r}")
        samples.setdefault(name, {})[labels] = value
    return samples
