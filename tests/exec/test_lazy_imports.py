"""A serial plan run imports only the modules it executes.

The process backend (with :mod:`multiprocessing` and :mod:`socket`), the
fault layer, the artifact store and the trace exporters load on first
use. The import checks run in fresh interpreters, so nothing the test
session imported earlier can hide an eager import.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Modules a serial, store-less plan run must never import.
UNUSED_ON_SERIAL_RUNS = (
    "multiprocessing",
    "socket",
    "repro.exec.faults",
    "repro.exec.retry",
    "repro.exec.store",
    "repro.exec.process",
    "repro.obs.export",
)


def _run(source):
    """Run ``source`` in a fresh interpreter; return its JSON stdout."""
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": SRC, "PATH": os.environ.get("PATH", "/usr/bin:/bin")},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_serial_plan_run_imports_no_process_fault_store_or_export_module():
    loaded = _run(
        """
        import json, sys
        from repro.api import run_plan
        from repro.sim.experiments import fig4a_plan

        result = run_plan(fig4a_plan(num_topologies=1, capacities_gb=(0.5,)))
        assert result.series, "the plan produced no series"
        print(json.dumps(sorted(set(sys.modules))))
        """
    )
    assert [name for name in UNUSED_ON_SERIAL_RUNS if name in loaded] == []
    assert "repro.exec.executor" in loaded


def test_every_public_name_resolves_and_is_listed():
    missing = _run(
        """
        import json
        import repro.exec, repro.obs

        missing = []
        for package in (repro.exec, repro.obs):
            listed = dir(package)
            for name in package.__all__:
                if getattr(package, name, None) is None or name not in listed:
                    missing.append(f"{package.__name__}.{name}")
        print(json.dumps(missing))
        """
    )
    assert missing == []


def test_lazy_names_are_the_defining_modules_objects():
    import repro.exec
    import repro.obs
    from repro.exec import process, store
    from repro.obs import export

    assert repro.exec.ProcessBackend is process.ProcessBackend
    assert repro.exec.ArtifactStore is store.ArtifactStore
    assert repro.obs.export is export
    assert repro.obs.write_chrome_trace is export.write_chrome_trace


def test_unknown_names_still_raise_attribute_error():
    import repro.exec
    import repro.obs

    for package in (repro.exec, repro.obs):
        with pytest.raises(AttributeError):
            package.no_such_name  # noqa: B018
