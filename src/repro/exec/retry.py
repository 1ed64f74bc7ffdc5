"""Retry policy for transient execution failures.

One :class:`RetryPolicy` governs the process backend's reaction to a
transient fault (:class:`~repro.exec.faults.WorkerLost`,
:class:`~repro.exec.faults.TaskTimeout`):

* a task gets ``max_attempts`` executions in total — the first run plus
  ``max_attempts - 1`` retries;
* consecutive retries back off exponentially
  (``backoff_base_s * backoff_factor**(attempt-1)``, capped at
  ``backoff_max_s``) with **deterministic jitter** derived from the
  task's seed — retrying the same task at the same attempt always waits
  the same time, so fault-injection runs are reproducible while
  distinct tasks still de-synchronise;
* once attempts are exhausted, ``degrade_in_process`` decides the last
  rung of the ladder: run the task in the parent process (graceful
  degradation — the sweep completes, slower) or raise the typed error.

Deterministic task-function exceptions (:class:`~repro.exec.faults.
TaskError`) are never retried: a pure task that raised once will raise
again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import ConfigurationError


def _stable_fraction(*parts) -> float:
    """A process-stable pseudo-random fraction in ``[0, 1)`` of ``parts``."""
    digest = hashlib.sha256(
        ":".join(repr(part) for part in parts).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """How many times, and how patiently, to re-run a failed task."""

    #: Total executions a task may get (1 = never retry).
    max_attempts: int = 1
    #: First-retry backoff, seconds.
    backoff_base_s: float = 0.05
    #: Exponential growth per further retry.
    backoff_factor: float = 2.0
    #: Backoff ceiling, seconds.
    backoff_max_s: float = 2.0
    #: Jitter amplitude as a fraction of the backoff (0 = none).
    jitter: float = 0.25
    #: After attempts are exhausted: run in the parent process instead
    #: of raising (the bottom rung of the degradation ladder).
    degrade_in_process: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigurationError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter}")

    @property
    def retries(self) -> int:
        """Retries on top of the first execution."""
        return self.max_attempts - 1

    def exhausted(self, attempts: int) -> bool:
        """Have ``attempts`` failed executions used up the budget?"""
        return attempts >= self.max_attempts

    def delay_s(self, attempt: int, jitter_seed: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) of a task.

        The jitter fraction is a stable hash of ``(jitter_seed,
        attempt)`` — derive ``jitter_seed`` from the task (its grid
        index or scenario seed) and the whole retry timeline of a run
        is deterministic.
        """
        if attempt < 1:
            return 0.0
        base = min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.backoff_max_s,
        )
        return base * (1.0 + self.jitter * _stable_fraction(
            jitter_seed, attempt
        ))


#: The process backend's default: fail fast with a typed error on the
#: first transient fault.
NO_RETRY = RetryPolicy()


def default_retry_policy(retries: int) -> RetryPolicy:
    """The policy a CLI ``--retries N`` means: N retries, then degrade
    to in-process execution rather than failing the sweep."""
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    return RetryPolicy(max_attempts=retries + 1, degrade_in_process=True)
