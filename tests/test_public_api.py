"""Tests that the public API surface stays importable and coherent."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[1]

#: Where a use of a ``src/repro`` name counts: the package itself (a
#: package ``__init__`` re-export is a use), the figure and perf
#: benchmarks, the examples, CI and the README. Tests do not count.
CALLER_PATHS = (
    "src",
    "benchmarks",
    "perfbench",
    "examples",
    ".github/workflows",
    "README.md",
)

#: Defs no caller path names, each kept for a stated reason.
UNCALLED_ALLOWED = {
    "do_GET": "http.server dispatches GET requests to it by name",
    "do_POST": "http.server dispatches POST requests to it by name",
    "is_submodular_exhaustive": "test oracle; moves to the tests with core/reference.py",
    "is_submodular_sampled": "test oracle; moves to the tests with core/reference.py",
    "is_monotone_sampled": "test oracle; moves to the tests with core/reference.py",
    "objective_set_function": "test oracle; moves to the tests with core/reference.py",
    "storage_set_function": "test oracle; moves to the tests with core/reference.py",
    "placement_ground_set": "test oracle; moves to the tests with core/reference.py",
    "confidence_interval": "kept until the per-point error bars decide on it",
}


def _caller_word_counts() -> Counter:
    """Identifier-like words over every text file in ``CALLER_PATHS``."""
    words: Counter = Counter()
    for entry in CALLER_PATHS:
        root = REPO / entry
        files = [root] if root.is_file() else sorted(root.rglob("*"))
        for path in files:
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            words.update(re.findall(r"\w+", text))
    return words


def _src_defs():
    """``(path, line, name)`` of every def and class in ``src/repro``."""
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield path.relative_to(REPO), node.lineno, node.name


class TestPublicApi:
    def test_all_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_docstring_flow(self):
        """The flow advertised in the package docstring must work."""
        from repro import ScenarioConfig, TrimCachingGen, build_scenario

        scenario = build_scenario(
            ScenarioConfig(num_servers=2, num_users=4, num_models=6), seed=0
        )
        result = TrimCachingGen().solve(scenario.instance)
        assert 0.0 <= result.hit_ratio <= 1.0

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.core.placement",
            "repro.core.blockmask",
            "repro.core.objective",
            "repro.core.reference",
            "repro.core.spec",
            "repro.core.gen",
            "repro.core.dp",
            "repro.core.independent",
            "repro.core.exhaustive",
            "repro.core.extras",
            "repro.core.submodular",
            "repro.core.bounds",
            "repro.core.result",
            "repro.core.analysis",
            "repro.models",
            "repro.models.blocks",
            "repro.models.model",
            "repro.models.library",
            "repro.models.finetune",
            "repro.models.generators",
            "repro.models.popularity",
            "repro.models.accuracy",
            "repro.network",
            "repro.network.geometry",
            "repro.network.channel",
            "repro.network.servers",
            "repro.network.users",
            "repro.network.topology",
            "repro.network.backhaul",
            "repro.network.latency",
            "repro.network.mobility",
            "repro.sim",
            "repro.sim.config",
            "repro.sim.scenario",
            "repro.sim.evaluator",
            "repro.sim.mobility_eval",
            "repro.sim.replacement",
            "repro.sim.latency_report",
            "repro.sim.request_sim",
            "repro.sim.serialization",
            "repro.sim.runner",
            "repro.sim.experiments",
            "repro.exec",
            "repro.exec.backends",
            "repro.exec.process",
            "repro.exec.store",
            "repro.exec.executor",
            "repro.utils.charts",
            "repro.data",
            "repro.data.resnet",
            "repro.data.cifar100",
            "repro.data.transformer",
            "repro.utils",
            "repro.cli",
        ],
    )
    def test_every_module_imports(self, module):
        assert importlib.import_module(module) is not None

    @pytest.mark.parametrize(
        "module",
        ["repro.core.spec", "repro.core.gen", "repro.models.library"],
    )
    def test_modules_have_docstrings(self, module):
        assert importlib.import_module(module).__doc__

    def test_solvers_share_interface(self):
        """Every exported solver exposes .name and .solve."""
        from repro import (
            ExhaustiveSearch,
            IndependentCaching,
            RandomPlacement,
            TopPopularityPlacement,
            TrimCachingGen,
            TrimCachingSpec,
        )

        for solver_cls in (
            TrimCachingSpec,
            TrimCachingGen,
            IndependentCaching,
            ExhaustiveSearch,
            RandomPlacement,
            TopPopularityPlacement,
        ):
            solver = solver_cls()
            assert isinstance(solver.name, str) and solver.name
            assert callable(solver.solve)


def test_every_src_def_has_a_caller():
    """No ``src/repro`` def or class is reachable from tests alone.

    A name counts as used when it appears in a caller path anywhere but
    on a ``def``/``class`` line of that name, so two same-named defs
    do not vouch for each other. Dunder methods are called by protocol.
    """
    words = _caller_word_counts()
    defs = [
        (path, line, name)
        for path, line, name in _src_defs()
        if not re.fullmatch(r"__\w+__", name)
    ]
    for _, _, name in defs:
        words[name] -= 1
    uncalled = {name for _, _, name in defs if words[name] <= 0}
    unexpected = sorted(
        f"{path}:{line} {name}"
        for path, line, name in defs
        if name in uncalled - set(UNCALLED_ALLOWED)
    )
    assert not unexpected, "defs with no caller outside the tests:\n" + (
        "\n".join(unexpected)
    )
    stale = sorted(set(UNCALLED_ALLOWED) - uncalled)
    assert not stale, f"allowlisted names that are gone or now called: {stale}"


def test_every_src_import_is_read():
    """Each module-level import in a ``src/repro`` module is read there.

    Package ``__init__`` modules are skipped: their imports are the
    re-exports. ``from __future__`` imports are compiler directives.
    """
    unread = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"{path.relative_to(REPO)}:{node.lineno} {name}")
    assert not unread, "imports never read in their module:\n" + "\n".join(unread)
