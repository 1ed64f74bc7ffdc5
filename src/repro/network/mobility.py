"""User mobility (paper §VII-E).

Three mobility classes — pedestrians, bikes, vehicles — each drawing an
initial speed and orientation, then re-drawing acceleration and angular
velocity at the start of every time slot (5 s slots in the paper). Users
reflect off the simulation-area boundary so the population density stays
uniform over long horizons.

:class:`MobilityModel` keeps the population as arrays (positions ``(K, 2)``,
speeds, orientations, class bounds); each slot's :meth:`~MobilityModel.step`
is one ``(K, 2)`` uniform draw, in per-user acceleration-then-angle stream
order, and :meth:`~MobilityModel.trajectory` returns ``(slots + 1, K, 2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.network.geometry import reflect_into_square
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class MobilityClass:
    """Parameter ranges of one mobility pattern.

    All ranges are inclusive ``(low, high)`` pairs; speeds in m/s,
    accelerations in m/s², angular velocity in rad/s.
    """

    name: str
    initial_speed: Tuple[float, float]
    acceleration: Tuple[float, float]
    angular_velocity: Tuple[float, float]
    max_speed: float

    def __post_init__(self) -> None:
        for field_name in ("initial_speed", "acceleration", "angular_velocity"):
            low, high = getattr(self, field_name)
            if low > high:
                raise ConfigurationError(
                    f"{field_name} range must be ordered, got ({low}, {high})"
                )
        if self.initial_speed[0] < 0:
            raise ConfigurationError("speeds must be non-negative")
        if self.max_speed <= 0:
            raise ConfigurationError("max_speed must be positive")


#: Paper §VII-E parameters for the three user classes.
PEDESTRIAN = MobilityClass(
    "pedestrian",
    initial_speed=(0.5, 1.8),
    acceleration=(-0.3, 0.3),
    angular_velocity=(-np.pi / 4, np.pi / 4),
    max_speed=2.5,
)
BIKE = MobilityClass(
    "bike",
    initial_speed=(2.0, 8.0),
    acceleration=(-1.0, 1.0),
    angular_velocity=(-np.pi / 3, np.pi / 3),
    max_speed=10.0,
)
VEHICLE = MobilityClass(
    "vehicle",
    initial_speed=(5.5, 20.0),
    acceleration=(-3.0, 3.0),
    angular_velocity=(-np.pi / 2, np.pi / 2),
    max_speed=25.0,
)

DEFAULT_CLASSES = (PEDESTRIAN, BIKE, VEHICLE)


class MobilityModel:
    """Advance a population of users through time slots.

    Parameters
    ----------
    side_length:
        Side of the square simulation area (metres).
    slot_duration_s:
        Length of one time slot (paper: 5 s).
    classes:
        Mobility classes users are assigned to (round-robin by default).

    After :meth:`start`, ``positions`` ``(K, 2)``, ``speed`` ``(K,)`` and
    ``orientation`` ``(K,)`` hold the population's current state.
    """

    def __init__(
        self,
        side_length: float,
        slot_duration_s: float = 5.0,
        classes: Sequence[MobilityClass] = DEFAULT_CLASSES,
    ) -> None:
        if side_length <= 0:
            raise ConfigurationError("side_length must be positive")
        if slot_duration_s <= 0:
            raise ConfigurationError("slot_duration_s must be positive")
        if not classes:
            raise ConfigurationError("at least one mobility class is required")
        self.side_length = side_length
        self.slot_duration_s = slot_duration_s
        self.classes = tuple(classes)

    def start(self, positions: np.ndarray, seed: SeedLike = None) -> None:
        """Place users at ``positions`` ``(K, 2)``, assign classes
        round-robin and draw initial speeds and orientations."""
        positions = np.array(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigurationError(
                f"positions must have shape (K, 2), got {positions.shape}"
            )
        rng = as_generator(seed)
        members = [self.classes[k % len(self.classes)] for k in range(len(positions))]
        # (K, 3, 2): each user's initial-speed, acceleration and
        # angular-velocity (low, high) ranges.
        ranges = np.array(
            [(c.initial_speed, c.acceleration, c.angular_velocity) for c in members],
            dtype=np.float64,
        ).reshape(len(members), 3, 2)
        low, span = ranges[..., 0], ranges[..., 1] - ranges[..., 0]
        self.max_speed = np.array([cls.max_speed for cls in members], dtype=np.float64)
        # Per slot, column 0 draws the acceleration, column 1 the angular velocity.
        self._rate_low, self._rate_span = low[:, 1:], span[:, 1:]
        draws = rng.random((len(positions), 2))
        self.positions = positions
        self.speed = low[:, 0] + span[:, 0] * draws[:, 0]
        self.orientation = 0.0 + np.pi * draws[:, 1]

    def step(self, seed: SeedLike = None) -> np.ndarray:
        """Advance every user by one slot; returns the new ``(K, 2)`` positions.

        At the slot boundary each user draws an acceleration and an angular
        velocity from its class ranges, then moves for the whole slot with
        the updated speed and heading (speed clamped to ``[0, max_speed]``;
        positions reflect off the area boundary).
        """
        rng = as_generator(seed)
        dt = self.slot_duration_s
        rates = self._rate_low + self._rate_span * rng.random(self._rate_low.shape)
        change = rates * dt
        self.speed = np.minimum(np.maximum(self.speed + change[:, 0], 0.0), self.max_speed)
        self.orientation = (self.orientation + change[:, 1]) % (2.0 * np.pi)
        moved = self.positions.copy()
        moved[:, 0] += self.speed * np.cos(self.orientation) * dt
        moved[:, 1] += self.speed * np.sin(self.orientation) * dt
        self.positions = reflect_into_square(moved, self.side_length)
        return self.positions

    def trajectory(
        self,
        positions: np.ndarray,
        num_slots: int,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Positions ``(num_slots + 1, K, 2)`` over ``num_slots`` slots
        (frame 0 = ``positions``)."""
        if num_slots < 0:
            raise ConfigurationError("num_slots must be non-negative")
        rng = as_generator(seed)
        self.start(positions, rng)
        frames = np.empty((num_slots + 1,) + self.positions.shape)
        frames[0] = self.positions
        for slot in range(1, num_slots + 1):
            frames[slot] = self.step(rng)
        return frames
