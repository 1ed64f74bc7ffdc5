"""User mobility (paper §VII-E).

Three mobility classes — pedestrians, bikes, vehicles — each drawing an
initial speed and orientation, then re-drawing acceleration and angular
velocity at the start of every time slot (5 s slots in the paper). Users
reflect off the simulation-area boundary so the population density stays
uniform over long horizons.

:class:`MobilityModel` keeps the population as arrays (positions ``(K, 2)``,
speeds, orientations, class bounds). Each slot consumes one ``(K, 2)``
block of uniform doubles, in per-user acceleration-then-angle stream
order. :meth:`~MobilityModel.trajectory` returns ``(slots + 1, K, 2)``
and walks the slots in blocks: one ``(B, K, 2)`` draw and one cos/sin
pass per block, and per slot only the two true recurrences (speed,
heading) and the reflected position update. PCG64 hands out its doubles
in order, so one ``(B, K, 2)`` draw is the same stream as ``B`` ``(K, 2)``
draws, and every elementwise operation keeps its per-slot order, so the
block walk is bit-identical to stepping slot by slot.
:meth:`~MobilityModel.step` is the same walk with one slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.network.geometry import reflect_into_square
from repro.utils.rng import SeedLike, as_generator

#: User-slots per block of :meth:`MobilityModel._walk`. A block of
#: ``B = _BLOCK_USER_SLOTS // K`` slots holds 5 scratch doubles per
#: user-slot, ~160 KB whatever the horizon (5 K doubles once K > 4096).
#: One block for all of Fig. 7's 1,440 slots at K = 10 was no faster.
_BLOCK_USER_SLOTS = 1 << 12


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
        frames = np.empty((2,) + self.positions.shape)
        frames[0] = self.positions
        self._walk(as_generator(seed), frames)
        return self.positions

    def trajectory(
        self,
        positions: np.ndarray,
        num_slots: int,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Positions ``(num_slots + 1, K, 2)`` over ``num_slots`` slots
        (frame 0 = ``positions``).

        Equal, frame for frame, to :meth:`start` followed by ``num_slots``
        :meth:`step` calls on the same generator: the slots are walked in
        blocks whose single draw is the per-slot draws in stream order.
        """
        if num_slots < 0:
            raise ConfigurationError("num_slots must be non-negative")
        rng = as_generator(seed)
        self.start(positions, rng)
        frames = np.empty((num_slots + 1,) + self.positions.shape)
        frames[0] = self.positions
        self._walk(rng, frames)
        return frames

    def _walk(self, rng: np.random.Generator, frames: np.ndarray) -> None:
        """Fill ``frames[1:]`` slot by slot from ``frames[0]`` and the
        current speeds and headings, then hold the last slot's state."""
        num_slots, num_users = len(frames) - 1, frames.shape[1]
        block = max(1, _BLOCK_USER_SLOTS // max(num_users, 1))
        dt = self.slot_duration_s
        speed, heading = self.speed, self.orientation
        for first in range(1, num_slots + 1, block):
            count = min(block, num_slots + 1 - first)
            # (low + span * u) * dt in place: IEEE + and * commute exactly.
            change = rng.random((count, num_users, 2))
            change *= self._rate_span
            change += self._rate_low
            change *= dt
            speeds = np.empty((count, num_users))
            for rate, out in zip(change[..., 0], speeds):
                speed = np.add(speed, rate, out=out)
                np.maximum(speed, 0.0, out=speed)
                np.minimum(speed, self.max_speed, out=speed)
            headings = np.empty((count, num_users))
            for rate, out in zip(change[..., 1], headings):
                heading = np.add(heading, rate, out=out)
                np.remainder(heading, 2.0 * np.pi, out=heading)
            # The rates are spent; their buffer takes the per-slot moves
            # speed * cos|sin(heading) * dt, the trig on contiguous rows.
            move, trig = change, np.empty_like(speeds)
            for axis, func in enumerate((np.cos, np.sin)):
                func(headings, out=trig)
                trig *= speeds
                trig *= dt
                move[..., axis] = trig
            walked = frames[first - 1 : first + count]
            for before, delta, out in zip(walked, move, walked[1:]):
                out[...] = reflect_into_square(before + delta, self.side_length)
        self.speed, self.orientation = speed.copy(), heading.copy()
        self.positions = frames[-1].copy()
