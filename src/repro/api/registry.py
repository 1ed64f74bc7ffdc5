"""String-keyed solver registry.

Every placement algorithm in the repo is reachable through one registry,
:data:`SOLVERS`, keyed by a short stable name (``"gen"``, ``"spec"``,
``"independent"``, …). An entry pairs the name with the solver's typed
config dataclass (defined next to the implementation in ``repro.core``)
and a display label — the series name the paper figures use. Declarative
:class:`~repro.api.plan.ExperimentPlan` objects reference solvers by
name + config, so experiments never hard-code solver constructors and
third-party solvers plug in without touching ``repro.sim.experiments``:

>>> from dataclasses import dataclass
>>> from repro.api import SOLVERS
>>> @SOLVERS.register("my-solver", label="My Solver")   # doctest: +SKIP
... @dataclass(frozen=True)
... class MySolverConfig:
...     knob: int = 3
...     def build(self):
...         return MySolver(knob=self.knob)

A config class only needs to be a dataclass with a no-argument
``build()`` returning an object with ``solve(instance) -> SolverResult``.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Type

from repro.core import (
    ExhaustiveConfig,
    GenConfig,
    IndependentConfig,
    RandomConfig,
    SpecConfig,
    TopPopularityConfig,
)
from repro.errors import ConfigurationError

#: Registry names are short kebab-case identifiers.
_NAME_PATTERN = re.compile(r"^[a-z][a-z0-9]*(-[a-z0-9]+)*$")


@dataclass(frozen=True)
class SolverEntry:
    """One registered solver: name, config class, display label.

    ``label`` is ``None`` when the registration did not name one; use
    :meth:`SolverRegistry.label` for the resolved display name.
    """

    name: str
    config_cls: Type[Any]
    label: Optional[str]
    summary: str = ""


class SolverRegistry:
    """Mutable mapping from solver names to config-class entries."""

    def __init__(self) -> None:
        self._entries: Dict[str, SolverEntry] = {}
        self._label_cache: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        config_cls: Optional[Type[Any]] = None,
        *,
        label: Optional[str] = None,
        summary: str = "",
    ):
        """Register ``config_cls`` under ``name``.

        Usable directly (``registry.register("gen", GenConfig)``) or as a
        class decorator (``@registry.register("gen")``). ``label`` is the
        default series/display name; when omitted it is resolved lazily
        (on first :meth:`label` lookup) from the built solver's ``name``
        attribute, falling back to the registry name — registration
        itself never constructs a solver.
        """
        if not _NAME_PATTERN.match(name):
            raise ConfigurationError(
                f"solver name must be kebab-case (got {name!r})"
            )
        if name in self._entries:
            raise ConfigurationError(f"solver {name!r} is already registered")

        def _register(cls: Type[Any]) -> Type[Any]:
            if not dataclasses.is_dataclass(cls):
                raise ConfigurationError(
                    f"solver config for {name!r} must be a dataclass, "
                    f"got {cls!r}"
                )
            if not callable(getattr(cls, "build", None)):
                raise ConfigurationError(
                    f"solver config for {name!r} must define build()"
                )
            doc = (cls.__doc__ or "").strip()
            self._entries[name] = SolverEntry(
                name=name,
                config_cls=cls,
                label=None if label is None else str(label),
                summary=summary or (doc.splitlines()[0] if doc else ""),
            )
            self._label_cache.pop(name, None)
            return cls

        if config_cls is not None:
            return _register(config_cls)
        return _register

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """All registered solver names, sorted."""
        return sorted(self._entries)

    def entry(self, name: str) -> SolverEntry:
        """The entry for ``name``; raises with suggestions when unknown."""
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names())
            raise ConfigurationError(
                f"unknown solver {name!r}; registered solvers: {known}"
            ) from None

    def label(self, name: str) -> str:
        """Default display label of ``name`` (resolved lazily, cached)."""
        entry = self.entry(name)
        if entry.label is not None:
            return entry.label
        if name not in self._label_cache:
            try:
                resolved = getattr(entry.config_cls().build(), "name", name)
            except TypeError:
                # Config has required fields: no default solver to ask.
                resolved = name
            self._label_cache[name] = str(resolved)
        return self._label_cache[name]

    def config(self, name: str, **overrides) -> Any:
        """A config instance for ``name`` with ``overrides`` applied."""
        entry = self.entry(name)
        try:
            return entry.config_cls(**overrides)
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid config for solver {name!r}: {exc}"
            ) from exc

    def create(self, name: str, config: Optional[Any] = None, **overrides):
        """Build a ready-to-run solver.

        ``config`` (a config-dataclass instance) and keyword ``overrides``
        compose: overrides are applied on top of ``config`` when both are
        given, and on top of the defaults otherwise.
        """
        entry = self.entry(name)
        if config is None:
            config = self.config(name, **overrides)
        else:
            if not isinstance(config, entry.config_cls):
                raise ConfigurationError(
                    f"solver {name!r} expects a {entry.config_cls.__name__}, "
                    f"got {type(config).__name__}"
                )
            if overrides:
                config = dataclasses.replace(config, **overrides)
        return config.build()

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[SolverEntry]:
        for name in self.names():
            yield self._entries[name]

    def __len__(self) -> int:
        return len(self._entries)

    def to_table(self) -> str:
        """Human-readable listing (used by ``python -m repro solvers``)."""
        from repro.utils.tables import format_table

        rows = [
            [
                entry.name,
                self.label(entry.name),
                entry.config_cls.__name__,
                entry.summary,
            ]
            for entry in self
        ]
        return format_table(
            ["name", "label", "config", "summary"],
            rows,
            title="Registered solvers",
        )


#: The process-wide default registry with every built-in algorithm.
SOLVERS = SolverRegistry()

SOLVERS.register(
    "spec",
    SpecConfig,
    summary="TrimCaching Spec (Algorithms 1+2, special case)",
)
SOLVERS.register(
    "gen",
    GenConfig,
    summary="TrimCaching Gen (Algorithm 3 greedy, general case)",
)
SOLVERS.register(
    "independent",
    IndependentConfig,
    summary="Independent Caching baseline (ignores parameter sharing)",
)
SOLVERS.register(
    "exhaustive",
    ExhaustiveConfig,
    summary="Exact optimum by pruned enumeration (small instances)",
)
SOLVERS.register(
    "random",
    RandomConfig,
    summary="Random feasible placement baseline",
)
SOLVERS.register(
    "top-popularity",
    TopPopularityConfig,
    summary="Popularity-only top-k placement baseline",
)
