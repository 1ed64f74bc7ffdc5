"""The repo benchmark: four paper workloads, timed end to end.

Run from the repository root::

    python3 perfbench/run.py --workload fig4a-spec --seed 0 --seconds 25 --trace 0

A run cycles over the workload's fixed inputs (see ``workloads.py``)
in whole cycles for about ``--seconds``. ``--trace 0`` times those
passes with nothing wrapped and reports the end-to-end metrics of
``BENCHMARK.json``. Pass times are CPU seconds (the pass process plus
its worker processes), rescaled to a fixed machine speed by a reference
loop timed right before and after each pass (see ``reference_cpu``):
on a shared host, wall time mostly measures how long the scheduler kept
the benchmark off a core, and the CPU time of the same code swings by
up to 2x as the host's load changes. Raw CPU and wall times are printed
and kept in the result file. ``--trace 1`` runs each input twice per
cycle, untraced and traced (outside timers from ``layers.py`` plus
``repro.obs``), and reports the per-layer metrics, the tracing overhead
and the gap between outside and in-program timings. The last stdout
line is one JSON object; the lines above it are for people. A full
record, with the environment that makes two records comparable, goes
to ``.perfbench_out/``.

``--quick`` runs tiny sizes (the self-test uses it); ``--record``
writes the expected output digests for a seed into ``expected/``.
Exit code 0 means every output was correct, 1 means some were not,
2 means the benchmark could not run at all (no ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics: name -> unit (every workload emits all of them).
E2E_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics: name -> unit (traced run; 0 where a layer is absent).
LAYER_UNITS = {
    "spec.solve_s": "s", "spec.self_s": "s", "spec.solves": "count",
    "dp.knapsack_s": "s", "dp.knapsack_calls": "count",
    "dp.table_lookups": "count", "dp.table_hit_ratio": "ratio",
    "dp.enumerate_s": "s",
    "dp.combinations": "count",
    "gen.solve_s": "s", "gen.solves": "count",
    "independent.solve_s": "s", "independent.solves": "count",
    "scenario.build_s": "s", "scenario.self_s": "s",
    "scenario.builds": "count", "library.build_s": "s",
    "feasibility.s": "s", "feasibility.calls": "count",
    "feasibility.nnz": "count",
    "mobility.run_s": "s", "mobility.self_s": "s", "mobility.steps": "count",
    "plan.self_s": "s",
    "exec.map_s": "s", "exec.tasks": "count", "exec.retries": "count",
    "exec.queue_wait_p50_s": "s", "exec.payload_bytes": "bytes_computed",
    "exec.parallel_efficiency": "ratio",
    "store.save_s": "s", "store.saves": "count", "store.bytes_written": "bytes",
    "store.warm_load_s": "s",
    "serve.initial_solve_s": "s", "serve.event_s": "s", "serve.route_s": "s",
    "serve.replay_ratio": "ratio", "serve.fallback": "count",
    "serve.full": "count", "serve.replay_p50_ms": "ms",
    "serve.full_p50_ms": "ms", "serve.route_p50_us": "us",
    "serve.event_p50_ms": "ms", "serve.event_p99_ms": "ms",
    "serve.route_qps": "1/s",
    "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
    "gap.spec_s": "s", "gap.gen_s": "s", "gap.independent_s": "s",
    "gap.feasibility_s": "s", "gap.scenario_s": "s", "gap.mobility_s": "s",
    "gap.store_s": "s", "gap.serve_event_s": "s",
}

#: Outside-timed metric -> the in-program ``repro.obs`` spans covering
#: the same calls. An empty list means the layer has no span yet. On
#: fig5a-grid, scenario and feasibility figures are read from those very
#: spans (the outside timers cannot see into workers), so their gaps
#: are 0 there by construction.
GAPS = {
    "gap.spec_s": ("spec.solve_s", ["solve.spec"]),
    "gap.gen_s": ("gen.solve_s", ["solve.gen"]),
    "gap.independent_s": ("independent.solve_s", []),
    "gap.feasibility_s": ("feasibility.s", [
        "feasibility.dense", "feasibility.sparse", "feasibility.sparse_chunked"]),
    "gap.scenario_s": ("scenario.build_s", ["task.scenario_build"]),
    "gap.mobility_s": ("mobility.run_s", []),
    "gap.store_s": ("store.save_s", []),
    "gap.serve_event_s": ("serve.event_s", ["serve.event"]),
}

SETUP_PROBES = 7

#: A round figure near the median CPU time of ``reference_cpu`` on the
#: 2-core x86 VM the baseline was measured on, so that rescaled times
#: stay close to raw CPU seconds there. A pass that ran while the
#: reference took twice as long is reported at half its CPU time.
REFERENCE_NOMINAL_S = 0.02

#: numpy's BLAS would start one thread per core. On these small arrays
#: the extra threads mostly spin: a fig4a pass used 10% more CPU than
#: wall time with them, and they contend with the worker processes. The
#: program's own parallelism (worker processes) is not affected. Set
#: before anything imports numpy; every pass, worker and set-up probe
#: inherits it.
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes (self-test)")
    parser.add_argument("--record", action="store_true",
                        help="write expected digests for --seed")
    parser.add_argument("--expected", type=Path,
                        help="expected-digest file (default: expected/)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def expected_path(workload: str, quick: bool) -> Path:
    return HERE / "expected" / f"{workload}{'-quick' if quick else ''}.json"


def git_rev() -> str:
    """HEAD's commit; ``unknown`` outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args, workload) -> dict:
    """What must match before two result files are compared."""
    import numpy

    from repro.exec.store import CODE_VERSION_SALT

    return {
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "inputs": workload.inputs,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "code_version_salt": CODE_VERSION_SALT,
        "reference_nominal_s": REFERENCE_NOMINAL_S,
    }


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def reference_cpu() -> float:
    """CPU seconds of a fixed mix of interpreter and numpy work.

    It touches nothing of the program, so only the machine's speed at
    the moment moves it. Its mix (dict updates in a Python loop, sorts,
    bincounts and reductions on small arrays) is that of the solvers.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    values, keys = rng.random(20_000), rng.integers(0, 1_000, 20_000)
    start = time.process_time()
    table: dict = {}
    for i in range(50_000):
        table[i % 977] = table.get(i % 977, 0) + i
    for _ in range(50):
        np.sort(values)
        np.bincount(keys)
        (values * 2.0).sum()
    return time.process_time() - start


def run_pass(workload, seed: int, index: int, traced: bool) -> dict:
    """Prepare, time and finish one pass; never raises."""
    record = {"index": index, "traced": traced, "error": None,
              "state": None, "output": None, "wall": None, "cpu": None,
              "extras": {}}
    try:
        state = workload.prepare(seed, index)
        record["state"] = state
    except Exception as exc:  # counted as failed operations
        record["error"] = f"prepare: {exc!r}"
        return record
    timers = probe = None
    output = None
    try:
        if traced:
            from repro import obs

            from layers import ExecProbe, OutsideTimers, install_layers

            obs.enable()
            timers, probe = OutsideTimers(), ExecProbe()
        try:
            if traced:
                install_layers(timers, probe)
            before = reference_cpu()
            workers0 = children_cpu()
            cpu0, start = time.process_time(), time.perf_counter()
            output = workload.execute(state)
            record["wall"] = time.perf_counter() - start
            cpu = time.process_time() - cpu0
            reap_children()
            record["cpu"] = cpu + children_cpu() - workers0
            record["reference"] = (before + reference_cpu()) / 2
            record["scaled_cpu"] = record["cpu"] * REFERENCE_NOMINAL_S / record["reference"]
        finally:
            if traced:
                timers.close()
                record["phases"] = obs.phase_totals()
                obs.disable()
        record["output"] = output
    except Exception as exc:
        record["error"] = f"execute: {exc!r}"
    try:
        record["extras"] = workload.finish(state, output, traced)
    except Exception as exc:
        record["error"] = record["error"] or f"finish: {exc!r}"
    if traced and output is not None:
        record["layers"] = layer_metrics(workload, record, timers, probe)
    return record


def layer_metrics(workload, record, timers, probe) -> dict:
    """One traced pass's per-layer values."""
    from layers import layer_rows, percentile

    inc, own, calls, counts = (
        timers.inclusive, timers.self_time, timers.calls, timers.counts)
    hits, misses = counts["dp.table_hits"], counts["dp.table_misses"]
    workers = probe.workers
    m = {
        "spec.solve_s": inc["spec"], "spec.self_s": own["spec"],
        "spec.solves": calls["spec"],
        "dp.knapsack_s": inc["dp.knapsack"],
        "dp.knapsack_calls": calls["dp.knapsack"],
        "dp.table_lookups": hits + misses,
        "dp.table_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "dp.enumerate_s": inc["dp.enumerate"],
        "dp.combinations": counts["dp.combinations"],
        "gen.solve_s": inc["gen"], "gen.solves": calls["gen"],
        "independent.solve_s": inc["independent"],
        "independent.solves": calls["independent"],
        "scenario.build_s": inc["scenario"], "scenario.self_s": own["scenario"],
        "scenario.builds": calls["scenario"], "library.build_s": inc["library"],
        "feasibility.s": inc["feasibility"],
        "feasibility.calls": calls["feasibility"],
        "feasibility.nnz": counts["feasibility.nnz"],
        "mobility.run_s": inc["mobility"], "mobility.self_s": own["mobility"],
        "mobility.steps": counts["mobility.steps"],
        "plan.self_s": own["plan"],
        "exec.map_s": inc["exec.map"], "exec.tasks": probe.tasks,
        "exec.retries": probe.retries,
        "exec.queue_wait_p50_s": percentile(probe.queue_wait_s, 50),
        "exec.payload_bytes": probe.payload_bytes,
        "exec.parallel_efficiency": (
            sum(probe.run_s) / (record["wall"] * workers) if probe.run_s else 0.0),
        "store.save_s": inc["store.save"], "store.saves": calls["store.save"],
        "store.bytes_written": counts["store.bytes_written"],
        "serve.event_s": inc["serve.event"], "serve.route_s": inc["serve.route"],
    }
    m.update(workload.layer_extras(record["state"], record["output"],
                                   record["phases"]))
    m.update(record["extras"])
    phases = record["phases"]
    for gap, (metric, spans) in GAPS.items():
        inside = sum(phases.get(span, {}).get("seconds", 0.0) for span in spans)
        m[gap] = m.get(metric, 0.0) - inside
    m["_rows"] = [list(row) for row in layer_rows(timers)]
    return m


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check(workload, record, reference) -> None:
    """Set ``attempted``/``failed``/``notes``/``digests`` on a pass record,
    then drop its inputs and outputs (keeping the run's memory flat).

    ``reference`` maps an input index to the digests its output must
    have: the recorded ones at the recorded seed, else those of an
    earlier, checked pass of the same input. An input with no reference
    is checked by ``workload.verify`` if it is among the first
    ``verified_inputs``; otherwise its pass is unchecked and counts in
    neither ``attempted`` nor ``failed`` (unless it raised).
    """
    state, output, index = record["state"], record["output"], record["index"]
    record["notes"] = notes = []
    if state is None:
        notes.append(f"input {index}: {record['error']}")
        record["attempted"] = record["failed"] = 1
        return
    ops = workload.operations(state)
    record["attempted"] = sum(ops.values())
    want = reference.get(index)
    if output is None or record["error"]:
        notes.append(f"input {index}: {record['error']}")
        bad = dict(ops)
    elif record["extras"].get("warm_mismatch"):
        notes.append(f"input {index}: warm re-run differs")
        bad = dict(ops)
    elif want is None and index >= workload.verified_inputs:
        record["attempted"], bad = 0, {}
    else:
        try:
            got = workload.digests(output)
            if want is not None:
                bad = {part: ops[part] for part in ops if got[part] != want.get(part)}
            else:
                bad = workload.verify(state, output)
            if not any(bad.values()):
                record["digests"] = got
        except Exception as exc:
            notes.append(f"input {index}: check raised {exc!r}")
            bad = dict(ops)
    notes.extend(f"input {index}: {count} wrong {part}"
                 for part, count in bad.items() if count)
    record["failed"] = sum(bad.values())
    record["state"] = None
    record["output"] = workload.samples(output) if output is not None else None


# ----------------------------------------------------------------------
# Measurements around the passes
# ----------------------------------------------------------------------
def children_cpu() -> float:
    """CPU seconds of this process's exited and reaped children."""
    import resource

    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait until every worker process a pass started has exited."""
    import multiprocessing

    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)


def isolated_pass(workload, seed: int, index: int, traced: bool,
                  reference: dict) -> dict:
    """Run and check one pass in a forked child; return its record.

    Every pass starts from the same parent state, leaves nothing behind,
    and gets its own peak RSS: the child's, plus that of its largest
    worker process (``rss_mb``).
    """
    import pickle
    import resource

    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            record = run_pass(workload, seed, index, traced)
            check(workload, record, reference)
            reap_children()
            record["worker_rss_kb"] = resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss
            data = pickle.dumps(record)
        except BaseException as exc:  # reported by the parent
            data = pickle.dumps({"crash": repr(exc)})
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, _, usage = os.wait4(pid, 0)
    record = pickle.loads(data) if data else {"crash": "pass process died"}
    if "crash" in record:
        record = {"index": index, "traced": traced, "wall": None, "attempted": 1,
                  "failed": 1, "notes": [f"input {index}: {record['crash']}"],
                  "output": None}
    record["rss_mb"] = (usage.ru_maxrss + record.get("worker_rss_kb", 0)) / 1024.0
    return record


def setup_probe_run(args) -> tuple:
    """One fresh process's set-up: ``(cpu_s, wall_s, reference_s)`` from
    its launch to its first timed operation.

    The probe is a new interpreter that imports the workload, builds
    input 0 (for serve, with the initial solve) and prints its process
    CPU time, which counts every thread from the interpreter's start,
    and ``time.monotonic()``; that clock is system-wide, so its
    difference to the launch stamp spans the interpreter start too.
    Then it times ``reference_cpu``, which rescales its CPU time the way
    it rescales a pass's.
    """
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        command.append("--quick")
    launched = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, env=os.environ.copy())
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
    cpu, stamp, reference = (float(word) for word in done.stdout.split()[-3:])
    return cpu, stamp - launched, reference


def mean(values):
    return sum(values) / len(values) if values else 0.0


def per_input(records, key):
    """Median over a run's cycles of each input's value, then the mean
    over its inputs: every run averages the same inputs, whatever the
    number of cycles its speed allowed."""
    by_input = {}
    for r in records:
        by_input.setdefault(r["index"], []).append(r[key])
    return mean([statistics.median(values) for values in by_input.values()])


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def setup_probe(workload, args) -> int:
    workload.setup()
    state = workload.prepare(args.seed, 0)
    cpu, stamp = time.process_time(), time.monotonic()
    print(repr(cpu), repr(stamp), repr(reference_cpu()), flush=True)
    workload.finish(state, None, False)
    return 0


def record_expected(workload, args) -> int:
    passes = []
    for index in range(workload.inputs):
        record = run_pass(workload, args.seed, index, traced=False)
        if record["error"]:
            print(f"input {index}: {record['error']}", file=sys.stderr)
            return 1
        bad = workload.verify(record["state"], record["output"])
        if any(bad.values()):
            print(f"input {index}: refusing to record, verify found {bad}",
                  file=sys.stderr)
            return 1
        passes.append(workload.digests(record["output"]))
    path = args.expected or expected_path(workload.name, args.quick)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": workload.name, "quick": args.quick, "seed": args.seed,
        "sizes": workload.sizes(), "passes": passes}, indent=1) + "\n")
    print(f"recorded {len(passes)} passes -> {path}")
    return 0


def benchmark(workload, args) -> int:
    path = args.expected or expected_path(workload.name, args.quick)
    expected = json.loads(path.read_text()) if path.is_file() else {}
    reference = (dict(enumerate(expected.get("passes", [])))
                 if expected.get("seed") == args.seed else {})

    workload.setup()
    if args.trace:
        # Import everything the timers wrap before the first pass forks,
        # so traced passes pay no more imports than untraced ones.
        from layers import ExecProbe, OutsideTimers, install_layers

        with OutsideTimers() as timers:
            install_layers(timers, ExecProbe())
    # The first launch writes the bytecode cache and reads the interpreter
    # and modules into the page cache; it is run but not counted.
    setup_probe_run(args)
    wanted_probes = 2 if args.quick else SETUP_PROBES
    records, probes = [], []
    cycles, cycle_s, started = 0, 0.0, time.monotonic()
    # Whole cycles only: another starts while the last one's length still
    # fits in the run, so every run covers all of its inputs.
    while not cycles or time.monotonic() - started + cycle_s <= args.seconds:
        cycle_start = time.monotonic()
        for index in range(workload.inputs):
            # Traced runs time each input untraced and traced, alternating
            # which goes first so neither side always runs on a cold cache.
            order = (((False, True) if (cycles + index) % 2 == 0 else (True, False))
                     if args.trace else (False,))
            for traced in order:
                record = isolated_pass(workload, args.seed, index, traced, reference)
                record["cycle"] = cycles
                records.append(record)
                if record.get("digests"):
                    reference.setdefault(index, record["digests"])
            # Set-up probes are spread over the run, so their median
            # does not hang on the host's load at one moment.
            if len(probes) < wanted_probes:
                probes.append(setup_probe_run(args))
        cycle_s = time.monotonic() - cycle_start
        cycles += 1
    while len(probes) < wanted_probes:
        probes.append(setup_probe_run(args))

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    notes = [note for r in records for note in r["notes"]]
    dark = [r for r in records if not r["traced"] and r["wall"] is not None]
    traced = [r for r in records if r.get("layers")]
    walls = [r["wall"] for r in dark]
    cpus = [r["cpu"] for r in dark]
    references = [r["reference"] for r in dark]
    summary = workload.summary([r["output"] for r in dark if r["output"]])

    end_to_end = {
        "cpu_s": per_input(dark, "scaled_cpu"),
        "setup_s": statistics.median(
            cpu * REFERENCE_NOMINAL_S / reference for cpu, _, reference in probes),
        "peak_rss_mb": per_input(dark, "rss_mb"),
    }
    per_layer = {}
    if args.trace:
        per_layer = {name: mean([r["layers"].get(name, 0.0) for r in traced])
                     for name in LAYER_UNITS}
        # A ratio over passes that had DP tables at all; 0 (with
        # dp.table_lookups 0) means there were none, not that all missed.
        per_layer["dp.table_hit_ratio"] = mean(
            [r["layers"]["dp.table_hit_ratio"] for r in traced
             if r["layers"]["dp.table_lookups"]])
        pairs = {}
        for r in records:
            if r["wall"] is not None:
                pairs.setdefault((r["cycle"], r["index"]), {})[r["traced"]] = r["wall"]
        deltas = [p[True] - p[False] for p in pairs.values() if len(p) == 2]
        per_layer["trace.overhead_s"] = mean(deltas)
        per_layer["trace.overhead_ratio"] = mean(deltas) / mean(walls) if walls else 0.0
        for key, value in summary.items():
            if f"serve.{key}" in LAYER_UNITS:
                per_layer[f"serve.{key}"] = value

    env = environment(args, workload)
    error_rate = failed / attempted if attempted else 1.0
    report(workload, env, end_to_end, per_layer, summary, traced, dark, cycles,
           probes, attempted, failed, notes)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / (f"{workload.name}{'-quick' if args.quick else ''}"
                     f"-seed{args.seed}-trace{args.trace}.json")
    out.write_text(json.dumps({
        "environment": env, "sizes": workload.sizes(), "cycles": cycles,
        "pass_inputs": [r["index"] for r in dark], "pass_walls_s": walls,
        "pass_cpus_s": cpus, "pass_references_s": references,
        "wall_s": per_input(dark, "wall"), "raw_cpu_s": per_input(dark, "cpu"),
        "setup_probes_cpu_s": [cpu for cpu, _, _ in probes],
        "setup_probes_wall_s": [wall for _, wall, _ in probes],
        "setup_probes_reference_s": [reference for _, _, reference in probes],
        "pass_rss_mb": [r["rss_mb"] for r in dark],
        "end_to_end": end_to_end, "per_layer": per_layer, "summary": summary,
        "attempted": attempted, "failed": failed, "error_rate": error_rate,
        "notes": notes}, indent=1) + "\n")

    units = LAYER_UNITS if args.trace else E2E_UNITS
    values = per_layer if args.trace else end_to_end
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


def report(workload, env, end_to_end, per_layer, summary, traced, dark, cycles,
           probes, attempted, failed, notes) -> None:
    """Human-readable lines (everything above the final JSON line)."""
    print(f"# {workload.name}: {workload.why}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# sizes {json.dumps(workload.sizes())}")
    print(f"cpu_s         {end_to_end['cpu_s']:.4f} s   (mean over {workload.inputs} "
          f"inputs of the median over {cycles} cycle(s); {len(dark)} passes)")
    if dark:
        print(f"raw cpu_s     {per_input(dark, 'cpu'):.4f} s   (same rule, not rescaled; "
              f"reference median {statistics.median(r['reference'] for r in dark):.4f} s "
              f"vs nominal {REFERENCE_NOMINAL_S} s)")
        print(f"wall_s        {per_input(dark, 'wall'):.4f} s   (same rule, wall clock)")
    print(f"setup_s       {end_to_end['setup_s']:.4f} s   (rescaled CPU, median of "
          f"{len(probes)} fresh processes; raw CPU "
          f"{statistics.median(c for c, _, _ in probes):.4f} s, wall "
          f"{statistics.median(w for _, w, _ in probes):.4f} s)")
    print(f"peak_rss_mb   {end_to_end['peak_rss_mb']:.1f} MB  (per-input median of the "
          "pass peak, process plus its largest worker)")
    rate = failed / attempted if attempted else 1.0
    print(f"error_rate    {rate:.4f} ratio   ({failed}/{attempted} operations)")
    if "event_p50_ms" in summary:
        print(f"event_p50_ms  {summary['event_p50_ms']:.4f} ms  "
              f"({summary['event_samples']} events)")
        print(f"event_p99_ms  {summary['event_p99_ms']:.4f} ms")
        print(f"route_qps     {summary['route_qps']:.1f} 1/s")
    for note in notes[:20]:
        print(f"! {note}")
    if not per_layer:
        return
    rows = {}
    for r in traced:
        for name, inclusive, own, calls in r["layers"]["_rows"]:
            row = rows.setdefault(name, [0.0, 0.0, 0])
            row[0] += inclusive / len(traced)
            row[1] += own / len(traced)
            row[2] += calls / len(traced)
    print("layer (outside timers, per traced pass)   inclusive_s    self_s   calls")
    for name, (inclusive, own, calls) in sorted(
            rows.items(), key=lambda item: item[1][0], reverse=True):
        print(f"  {name:<40} {inclusive:10.4f} {own:9.4f} {calls:7.1f}")
    print(f"tracing overhead {per_layer['trace.overhead_s']:.4f} s "
          f"({per_layer['trace.overhead_ratio']:.2%} of an untraced pass)")
    uncovered = [gap for gap, (_, spans) in GAPS.items() if not spans]
    print("gap outside - repro.obs: " + ", ".join(
        f"{gap}={per_layer[gap]:.4f}" for gap in GAPS)
        + f"  (no span at all: {', '.join(g[4:-2] for g in uncovered)})")
    for name in LAYER_UNITS:
        absent = name == "dp.table_hit_ratio" and not per_layer["dp.table_lookups"]
        value = "n/a (no DP tables)" if absent else f"{per_layer[name]:.6g}"
        print(f"  {name:<28} {value} {LAYER_UNITS[name]}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({SRC / 'repro'} missing)",
              file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREADED)
    # Set-up probes import from bytecode cached under the checkout, so
    # ``setup_s`` neither depends on whether the environment lets Python
    # write bytecode nor on stale ``__pycache__`` directories in the
    # tree. The uncounted first probe fills the cache.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPYCACHEPREFIX"] = str(ROOT / ".perfbench_pycache")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.quick, ROOT)
    if args.setup_probe:
        return setup_probe(workload, args)
    if args.record:
        return record_expected(workload, args)
    return benchmark(workload, args)


if __name__ == "__main__":
    sys.exit(main())
