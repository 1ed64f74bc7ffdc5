"""End users: positions, activity, QoS deadlines and inference latency.

Each user ``k`` carries a per-model QoS deadline ``T̄_{k,i}`` (the paper
draws them uniformly from [0.5, 1] s) and a per-model on-device inference
latency ``t_{k,i}``. The deadline covers downloading *plus* inference
(eqs. 4-5).

A population is one :class:`UserBatch`: ``(K, 2)`` positions and the
``(K, I)`` QoS matrices every consumer reads. :class:`User` is the
frozen per-user view a batch materialises on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.network.geometry import Point


@dataclass(frozen=True)
class User:
    """One end user.

    Attributes
    ----------
    user_id:
        Dense index ``k`` of the user.
    position:
        Location in the simulation area (metres).
    deadlines_s:
        ``T̄_{k,i}`` per model: E2E latency budget, shape ``(I,)``.
    inference_latency_s:
        ``t_{k,i}`` per model: on-device inference time, shape ``(I,)``.
    active_probability:
        ``p_A``: probability the user is active in a slot.
    """

    user_id: int
    position: Point
    deadlines_s: np.ndarray
    inference_latency_s: np.ndarray
    active_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.user_id < 0:
            raise ConfigurationError("user_id must be non-negative")
        deadlines = np.asarray(self.deadlines_s, dtype=float)
        inference = np.asarray(self.inference_latency_s, dtype=float)
        _validate_qos(deadlines, inference, self.active_probability, ndim=1)
        object.__setattr__(self, "deadlines_s", deadlines)
        object.__setattr__(self, "inference_latency_s", inference)

    @property
    def num_models(self) -> int:
        """Number of models the QoS vectors cover."""
        return int(self.deadlines_s.shape[0])


def _validate_qos(
    deadlines: np.ndarray,
    inference: np.ndarray,
    active_probability: float,
    ndim: int,
) -> None:
    """The QoS invariants of one user (``ndim=1``) or a batch (``ndim=2``).

    ``min``/``max`` propagate NaN, so one pair of reductions per matrix
    rejects NaN and ±inf entries along with out-of-range ones.
    """
    if deadlines.ndim != ndim or inference.ndim != ndim:
        raise ConfigurationError(
            f"deadlines and inference latency must be {ndim}-D"
        )
    if deadlines.shape != inference.shape:
        raise ConfigurationError(
            "deadlines and inference latency must have equal shape"
        )
    if deadlines.size and not (
        deadlines.min() > 0 and deadlines.max() < np.inf
    ):
        raise ConfigurationError("deadlines must be finite and positive")
    if inference.size and not (
        inference.min() >= 0 and inference.max() < np.inf
    ):
        raise ConfigurationError(
            "inference latency must be finite and non-negative"
        )
    if not 0 < active_probability <= 1:
        raise ConfigurationError("active_probability must be in (0, 1]")


class UserBatch:
    """The user population, array-backed: no per-user Python objects.

    Positions are one ``(K, 2)`` float array, the QoS matrices are the
    ``(K, I)`` draws themselves, and ``active_probability`` is the shared
    scalar the config prescribes. Every invariant ``User.__post_init__``
    enforces is validated once, vectorised over the whole batch, and
    positions must be finite.

    :class:`~repro.network.topology.NetworkTopology` holds one batch and
    derives distances, allocations and rates from its arrays;
    :meth:`user` / :meth:`to_users` materialise frozen :class:`User`
    views for per-user readers.
    """

    def __init__(
        self,
        positions: np.ndarray,
        deadlines_s: np.ndarray,
        inference_latency_s: np.ndarray,
        active_probability: float = 0.5,
    ) -> None:
        positions = np.asarray(positions, dtype=float)
        deadlines = np.asarray(deadlines_s, dtype=float)
        inference = np.asarray(inference_latency_s, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigurationError("positions must be a (K, 2) array")
        if not np.isfinite(positions).all():
            raise ConfigurationError("positions must be finite")
        _validate_qos(deadlines, inference, active_probability, ndim=2)
        if positions.shape[0] != deadlines.shape[0]:
            raise ConfigurationError(
                "positions must list one entry per batched QoS row"
            )
        self.positions = positions
        self.deadlines_s = deadlines
        self.inference_latency_s = inference
        self.active_probability = float(active_probability)

    def __len__(self) -> int:
        return int(self.positions.shape[0])

    @property
    def num_users(self) -> int:
        """``K``."""
        return len(self)

    @property
    def num_models(self) -> int:
        """Number of models the QoS matrices cover."""
        return int(self.deadlines_s.shape[1])

    def user(self, index: int) -> User:
        """Materialise one frozen :class:`User` view (row views, no copy)."""
        if not 0 <= index < len(self):
            raise ConfigurationError(f"user index {index} out of range")
        user = object.__new__(User)
        object.__setattr__(user, "user_id", index)
        object.__setattr__(
            user,
            "position",
            Point(float(self.positions[index, 0]), float(self.positions[index, 1])),
        )
        object.__setattr__(user, "deadlines_s", self.deadlines_s[index])
        object.__setattr__(
            user, "inference_latency_s", self.inference_latency_s[index]
        )
        object.__setattr__(
            user, "active_probability", self.active_probability
        )
        return user

    def to_users(self) -> List[User]:
        """Materialise the whole population as :class:`User` objects."""
        return [self.user(index) for index in range(len(self))]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"UserBatch(K={len(self)}, I={self.num_models})"
