"""Measure the benchmark's baseline and write ``baseline.json``.

Run from the repository root (about 25 minutes on a 2-core VM)::

    python3 perfbench/baseline.py                       # every workload
    python3 perfbench/baseline.py --workloads serve-churn --seeds 101,102,103

For each workload it makes one ``--trace 0`` run per seed and reports
each end-to-end metric's median, quartiles and spread (the distance
between the quartiles over the median, as ``statistics.quantiles``
gives them), then one ``--trace 1`` run at the recorded seed 0 for the
per-layer values. Runs are sequential: two at once would measure each
other. ``--out -`` prints the result instead of writing the file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    """One benchmark run; its full record from ``.perfbench_out/``."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    path = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def cpu_model() -> str:
    """The host CPU's model name, for the record."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "runs": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(101, 111)))
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"]

    workloads, environment = {}, {}
    for name in args.workloads.split(","):
        records = []
        for seed in seeds:
            records.append(run(name, seed, 0, seconds))
            metrics = records[-1]["end_to_end"]
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v:.4f}" for k, v in metrics.items()), flush=True)
        traced = run(name, 0, 1, seconds)
        environment = {k: v for k, v in records[0]["environment"].items()
                       if k not in ("workload", "seed", "inputs")}
        workloads[name] = {
            "seeds": seeds,
            "inputs": records[0]["environment"]["inputs"],
            "end_to_end": {metric: spread([r["end_to_end"][metric] for r in records])
                           for metric in records[0]["end_to_end"]},
            "error_rate": max(r["error_rate"] for r in records),
            "per_layer": {"seed": 0, **traced["per_layer"]},
            "serve_summary": traced["summary"],
        }
        for metric, row in workloads[name]["end_to_end"].items():
            print(f"{name} {metric}: median {row['median']:.4f} "
                  f"spread {row['spread']:.4f}", flush=True)

    baseline = {
        "about": (f"End-to-end medians and quartiles over seeds {seeds[0]}-{seeds[-1]} "
                  "of --trace 0 runs at run_seconds, and one --trace 1 run at the "
                  "recorded seed 0, per workload. Written by perfbench/baseline.py."),
        "environment": {**environment, "cpu": cpu_model()},
        "workloads": workloads,
    }
    text = json.dumps(baseline, indent=1) + "\n"
    if args.out == "-":
        print(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
