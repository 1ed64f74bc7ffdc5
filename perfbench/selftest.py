"""Self-test of the benchmark at quick sizes.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every metric ``BENCHMARK.json`` names is emitted with
its unit on every workload, untraced and traced, with no failed
operation; that ``layer_map.json`` covers exactly the per-layer
metrics; that the correctness gate trips on a deliberately wrong
expected value; and that without ``src/`` the benchmark exits non-zero
without printing a result. Exit code 0 means all checks passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*extra, cwd=ROOT, script=HERE / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), "--quick", "--seed", "0", "--seconds", "1",
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done


def expect(condition, message, failures):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    failures: list = []

    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    mapped = {name for layer in layer_map["layers"].values()
              for name in layer["metrics"]}
    expect(mapped == set(wanted[1]),
           "layer_map.json covers exactly the per-layer metrics", failures)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, done = bench("--workload", workload, "--trace", str(trace))
            label = f"{workload} --trace {trace}"
            if result is None:
                expect(False, f"{label}: prints a JSON result "
                       f"(exit {code}: {done.stderr.strip()[-300:]})", failures)
                continue
            expect(code == 0 and set(result) == {"correct", "attempted", "failed",
                                                 "metrics"},
                   f"{label}: exit 0 and the four result keys", failures)
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label}: error_rate 0 ({result['failed']}/{result['attempted']})",
                   failures)
            got = {name: value["unit"] for name, value in result["metrics"].items()}
            expect(got == wanted[trace],
                   f"{label}: every BENCHMARK.json metric with its unit", failures)
            if trace == 0:
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{label}: end-to-end metrics are non-zero", failures)

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_tmp") as scratch:
        scratch = Path(scratch)
        for workload in ("serve-churn", "fig5a-grid"):
            good = json.loads((HERE / "expected" / f"{workload}-quick.json").read_text())
            part = sorted(good["passes"][0])[0]
            good["passes"][0][part] = "0" * 64
            wrong = scratch / f"{workload}-wrong.json"
            wrong.write_text(json.dumps(good))
            code, result, _ = bench("--workload", workload, "--trace", "0",
                                    "--expected", str(wrong))
            expect(code == 1 and result is not None and not result["correct"]
                   and result["failed"] > 0,
                   f"{workload}: gate trips on a wrong expected {part} digest",
                   failures)

        bare = scratch / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, result, _ = bench("--workload", "serve-churn", "--trace", "0",
                                cwd=bare, script=bare / HERE.name / "run.py")
        expect(code != 0 and result is None,
               "without src/: non-zero exit and no result line", failures)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
