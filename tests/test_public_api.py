"""Tests that the public API surface stays importable and coherent."""

import ast
import importlib
import importlib.util
import re
import sys
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
    "log_message": "http.server logs every request through it; the override "
    "prints only in verbose mode",
    "confidence_interval": "kept until the per-point error bars decide on it",
}


#: Every module of ``src/repro``; each must import on its own.
MODULES = [
    "repro.__main__",
    "repro.errors",
    "repro.api",
    "repro.api.plan",
    "repro.api.registry",
    "repro.api.run",
    "repro.core",
    "repro.core.placement",
    "repro.core.blockmask",
    "repro.core.objective",
    "repro.core.spec",
    "repro.core.gen",
    "repro.core.dp",
    "repro.core.independent",
    "repro.core.exhaustive",
    "repro.core.extras",
    "repro.core.bounds",
    "repro.core.result",
    "repro.core.sparse",
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
    "repro.sim.serialization",
    "repro.sim.runner",
    "repro.sim.experiments",
    "repro.exec",
    "repro.exec.backends",
    "repro.exec.process",
    "repro.exec.store",
    "repro.exec.executor",
    "repro.exec.faults",
    "repro.exec.retry",
    "repro.obs",
    "repro.obs.export",
    "repro.obs.metrics",
    "repro.obs.runtime",
    "repro.obs.trace",
    "repro.serve",
    "repro.serve.events",
    "repro.serve.http",
    "repro.serve.resolver",
    "repro.serve.service",
    "repro.utils.charts",
    "repro.data",
    "repro.data.resnet",
    "repro.data.cifar100",
    "repro.data.transformer",
    "repro.utils",
    "repro.utils.rng",
    "repro.utils.stats",
    "repro.utils.tables",
    "repro.utils.units",
    "repro.utils.validation",
    "repro.cli",
]

#: Modules that left the package: the test oracles, now in
#: ``tests/oracles``, and code that no user path ran.
REMOVED_MODULES = [
    "repro.core.analysis",
    "repro.core.reference",
    "repro.core.submodular",
    "repro.sim.latency_report",
    "repro.sim.request_sim",
]

#: Third-party packages the test oracles may import (see ``tests/oracles``).
ORACLE_IMPORTS_ALLOWED = {"numpy", "repro"}


_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _python_uses(tree: ast.AST) -> Counter:
    """The names a module uses: loaded names and attributes, keyword
    arguments, imported names and identifier-like string constants
    (``getattr`` targets, names handed to a wrapper). A use inside a def
    of that name's own body does not count, so recursion is no caller.
    Words in comments and docstrings are not uses.
    """
    uses: Counter = Counter()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.keyword):
            name = node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.fullmatch(node.value):
                name = node.value
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                uses[part] += 1
        if name is not None and name not in enclosing:
            uses[name] += 1
        if isinstance(node, _DEFS):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return uses


def _caller_uses() -> Counter:
    """Uses of each name over ``CALLER_PATHS``: parsed in ``.py`` files,
    identifier-like words in the other text files (README, CI)."""
    uses: Counter = Counter()
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
            if path.suffix == ".py":
                uses.update(_python_uses(ast.parse(text)))
            else:
                uses.update(re.findall(r"\w+", text))
    return uses


def _src_defs():
    """``(path, line, name)`` of every def and class in ``src/repro``."""
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, _DEFS):
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

    @pytest.mark.parametrize("module", MODULES)
    def test_every_module_imports(self, module):
        assert importlib.import_module(module) is not None

    def test_module_list_covers_the_package(self):
        src = REPO / "src"
        found = set()
        for path in src.rglob("*.py"):
            parts = path.relative_to(src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            found.add(".".join(parts))
        assert len(MODULES) == len(set(MODULES))
        assert set(MODULES) == found - {"repro"}

    @pytest.mark.parametrize("module", REMOVED_MODULES)
    def test_removed_module_stays_out_of_the_package(self, module):
        assert importlib.util.find_spec(module) is None

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

    A name counts as used where a caller path reads it (see
    :func:`_python_uses`); a local variable, a docstring word or a
    def's own recursion is no use. Dunder methods are called by
    protocol.
    """
    uses = _caller_uses()
    defs = [
        (path, line, name)
        for path, line, name in _src_defs()
        if not re.fullmatch(r"__\w+__", name)
    ]
    uncalled = {name for _, _, name in defs if uses[name] == 0}
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


@pytest.mark.parametrize(
    "path",
    sorted((REPO / "tests" / "oracles").glob("*.py")),
    ids=lambda path: path.stem,
)
def test_oracle_imports_only_numpy_and_repro(path):
    """``bench_perf.py`` loads the oracles where only numpy is installed."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.append(node.module.split(".")[0])
    outside = sorted(
        root
        for root in set(roots)
        if root not in sys.stdlib_module_names and root not in ORACLE_IMPORTS_ALLOWED
    )
    assert not outside, f"{path.name} imports {outside}"
