"""Content-addressed artifact store for executed plans.

The cache key of a plan is a SHA-256 over its **canonical** serialised
form (sorted keys, compact separators) plus a code-version salt — so two
plans that mean the same experiment hash identically regardless of dict
insertion order, while any result-affecting edit (a sweep point, a
solver config field, the seed) produces a different key. Fields that
provably do not affect the result are excluded: ``workers`` only moves
work between processes (all backends are bit-identical), so a sweep
cached under ``workers=4`` is a hit for the same plan at ``workers=1``.
A hit always serves the **producing** run's bytes — including its
``workers`` value in the embedded plan/metadata provenance — which is
what keeps a warm re-run byte-identical to the cold run that filled the
cache; the series themselves are identical for every worker count.

Two artifact granularities live under one key:

* ``result.json`` — the full executed :class:`~repro.api.run.ResultSet`
  (series + plan provenance); an unchanged re-run is a pure cache hit.
* ``tasks/<task_id>.json`` — one per task of the plan's grid; a
  killed run resumes from the completed tasks instead of recomputing
  them.

All writes are atomic (same-directory temp file + ``os.replace``), so
concurrent workers — or two sweeps sharing a cache directory — never
expose a torn file; readers treat unreadable or foreign payloads as
cache misses rather than failures.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError

#: Format tag embedded in every per-task artifact.
TASK_FORMAT = "trimcaching-task-v1"

#: Code-version salt folded into every cache key. Bump this whenever a
#: change anywhere in the pipeline can alter executed results (solver
#: behaviour, seed derivation, serialisation layout): old cache entries
#: then miss instead of resurrecting stale numbers.
CODE_VERSION_SALT = "trimcaching-exec-v1"

#: Plan-payload fields excluded from the cache key because they cannot
#: affect the computed result (only how/where it is computed).
_KEY_IRRELEVANT_FIELDS = ("workers",)


def canonical_plan_payload(plan) -> Dict[str, Any]:
    """The plan's serialised form with result-irrelevant fields removed.

    Besides the plan-level ``workers``, any solver config field named
    ``workers`` is stripped too: by repo contract such knobs only widen
    a solver's internal fan-out (``SpecConfig.workers`` is pinned
    byte-identical across widths), so they are execution placement, not
    content.
    """
    from repro.api.plan import plan_to_dict

    payload = plan_to_dict(plan)
    for field in _KEY_IRRELEVANT_FIELDS:
        payload.pop(field, None)
    for solver in payload.get("solvers", ()):
        config = solver.get("config")
        if isinstance(config, dict):
            for field in _KEY_IRRELEVANT_FIELDS:
                config.pop(field, None)
    return payload


def plan_cache_key(plan) -> str:
    """Content address of a plan: SHA-256 hex of salt, seed fingerprint
    and canonical JSON.

    Scenario seeds derive from the interpreter's int-tuple hash, which
    the salt does not cover. The fingerprint (the seeds of cell 0) makes
    an interpreter whose hash differs miss instead of being served
    results for other scenarios.
    """
    from repro.sim.runner import scenario_seed, study_seed

    canonical = json.dumps(
        canonical_plan_payload(plan), sort_keys=True, separators=(",", ":")
    )
    fingerprint = f"{scenario_seed(0, 0, 0)},{study_seed(0, 0)}"
    digest = hashlib.sha256()
    digest.update(CODE_VERSION_SALT.encode("utf-8"))
    digest.update(f"\n{fingerprint}\n".encode("utf-8"))
    digest.update(canonical.encode("utf-8"))
    return digest.hexdigest()


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (visible all-or-nothing).

    The temp file lives in the target directory so ``os.replace`` is a
    same-filesystem rename; concurrent writers race benignly (last
    complete write wins, readers only ever see complete files).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(text)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


class ArtifactStore:
    """Filesystem-backed, content-addressed result cache.

    Layout: ``<root>/<plan_key>/result.json`` for the full result,
    ``<root>/<plan_key>/plan.json`` for human-readable provenance, and
    ``<root>/<plan_key>/tasks/<task_id>.json`` for per-task partials.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def plan_dir(self, key: str) -> Path:
        """Directory holding every artifact of one plan key."""
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ConfigurationError(f"malformed cache key {key!r}")
        return self.root / key

    def result_path(self, key: str) -> Path:
        """Path of the full cached :class:`ResultSet` JSON."""
        return self.plan_dir(key) / "result.json"

    def task_path(self, key: str, task_id: str) -> Path:
        """Path of one task's partial-result JSON."""
        if not task_id or "/" in task_id or task_id.startswith("."):
            raise ConfigurationError(f"malformed task id {task_id!r}")
        return self.plan_dir(key) / "tasks" / f"{task_id}.json"

    # ------------------------------------------------------------------
    # Full results
    # ------------------------------------------------------------------

    def load_result(self, key: str, registry=None):
        """The cached :class:`ResultSet`, or ``None`` on any miss.

        Corrupt or foreign files are treated as misses: a cache must
        degrade to recomputation, never block it.
        """
        from repro.errors import ReproError
        from repro.sim.serialization import result_set_from_json

        path = self.result_path(key)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError):
            # A torn write can leave invalid UTF-8 on disk; that file is
            # as much a miss as a missing one.
            return None
        try:
            return result_set_from_json(text, registry)
        except (ReproError, KeyError, TypeError, ValueError, AttributeError):
            # Foreign-but-parseable payloads (a JSON list, a bare format
            # stub) surface as attribute/key errors, not ReproError.
            return None

    def save_result(self, key: str, result) -> None:
        """Atomically cache a full result (and its plan provenance)."""
        from repro.sim.serialization import result_set_to_json

        _atomic_write_text(self.result_path(key), result_set_to_json(result))
        plan = getattr(result, "plan", None)
        if plan is not None:
            from repro.api.plan import plan_to_json

            _atomic_write_text(
                self.plan_dir(key) / "plan.json", plan_to_json(plan)
            )

    # ------------------------------------------------------------------
    # Per-task partials
    # ------------------------------------------------------------------
    def load_task(
        self, key: str, task_id: str
    ) -> Optional[List[Dict[str, Tuple[float, ...]]]]:
        """One task's cached outcomes, or ``None`` on any miss.

        The payload shape mirrors what a task computes: a list of
        ``{label: float tuple}`` dicts — a sweep task's ``(score,
        runtime_s)`` per solver, a study run's one value per x. Whether
        the shape fits the plan is the executor's check. JSON floats
        round-trip exactly (``repr``-based), so restored values fold
        into series bit-identical to freshly computed ones.
        """
        path = self.task_path(key, task_id)
        try:
            payload = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != TASK_FORMAT
        ):
            return None
        try:
            return [
                {
                    label: tuple(float(value) for value in values)
                    for label, values in per_label.items()
                }
                for per_label in payload["outcomes"]
            ]
        except (KeyError, TypeError, ValueError, IndexError, AttributeError):
            return None

    def save_task(
        self,
        key: str,
        task_id: str,
        outcomes: List[Dict[str, Tuple[float, ...]]],
    ) -> None:
        """Atomically cache one task's outcomes."""
        payload = {
            "format": TASK_FORMAT,
            "task_id": task_id,
            "outcomes": [
                {
                    label: [float(value) for value in values]
                    for label, values in per_label.items()
                }
                for per_label in outcomes
            ],
        }
        _atomic_write_text(
            self.task_path(key, task_id),
            json.dumps(payload, sort_keys=True),
        )

    def completed_tasks(self, key: str) -> Set[str]:
        """Ids of every task with a cached partial under ``key``."""
        tasks_dir = self.plan_dir(key) / "tasks"
        if not tasks_dir.is_dir():
            return set()
        return {path.stem for path in tasks_dir.glob("*.json")}

    def clear_tasks(self, key: str) -> None:
        """Drop the per-task partials (the full result supersedes them)."""
        tasks_dir = self.plan_dir(key) / "tasks"
        if not tasks_dir.is_dir():
            return
        for path in tasks_dir.glob("*.json"):
            try:
                path.unlink()
            except OSError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ArtifactStore({str(self.root)!r})"
