"""Diff two benchmark result files, after checking they are comparable.

Usage, from the repository root::

    python3 perfbench/compare.py .perfbench_out/A.json .perfbench_out/B.json

Two records are comparable when they ran the same workload at the same
sizes, input count, run length and trace mode, on the same core count,
interpreter, numpy and ``CODE_VERSION_SALT``, with the same nominal
reference time. The seed and git revision may differ
(that is usually the point). Exit code 0: comparable, diff printed;
1: not comparable, the differing fields printed.
"""

from __future__ import annotations

import json
import sys

MUST_MATCH = ("workload", "quick", "inputs", "seconds", "trace", "nproc",
              "python", "numpy", "code_version_salt", "reference_nominal_s")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a, b = (json.loads(open(path).read()) for path in argv)
    env_a, env_b = a["environment"], b["environment"]
    differ = [key for key in MUST_MATCH if env_a.get(key) != env_b.get(key)]
    if a.get("sizes") != b.get("sizes"):
        differ.append("sizes")
    if differ:
        for key in differ:
            value_a = env_a.get(key, a.get(key))
            value_b = env_b.get(key, b.get(key))
            print(f"not comparable: {key}: {value_a!r} != {value_b!r}")
        return 1
    print(f"comparable: {env_a['workload']} seed {env_a['seed']} @ "
          f"{env_a['git_rev'][:12]} vs seed {env_b['seed']} @ {env_b['git_rev'][:12]}")
    for section in ("end_to_end", "per_layer"):
        for name, value_a in a[section].items():
            value_b = b[section].get(name)
            if value_b is None:
                continue
            change = (value_b - value_a) / value_a if value_a else float("nan")
            print(f"  {name:<28} {value_a:14.6g} {value_b:14.6g} {change:+8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
