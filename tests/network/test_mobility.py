"""Tests for the §VII-E mobility model."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network import mobility
from repro.network.geometry import reflect_into_square
from repro.network.mobility import (
    BIKE,
    DEFAULT_CLASSES,
    PEDESTRIAN,
    VEHICLE,
    MobilityClass,
    MobilityModel,
)


class TestPaperParameters:
    def test_speed_ranges(self):
        assert PEDESTRIAN.initial_speed == (0.5, 1.8)
        assert BIKE.initial_speed == (2.0, 8.0)
        assert VEHICLE.initial_speed == (5.5, 20.0)

    def test_acceleration_ranges(self):
        assert PEDESTRIAN.acceleration == (-0.3, 0.3)
        assert BIKE.acceleration == (-1.0, 1.0)
        assert VEHICLE.acceleration == (-3.0, 3.0)

    def test_angular_ranges(self):
        assert PEDESTRIAN.angular_velocity[1] == pytest.approx(np.pi / 4)
        assert BIKE.angular_velocity[1] == pytest.approx(np.pi / 3)
        assert VEHICLE.angular_velocity[1] == pytest.approx(np.pi / 2)


class TestStart:
    def test_round_robin_classes(self):
        model = MobilityModel(1000.0)
        model.start(np.zeros((6, 2)), seed=0)
        assert model.max_speed.tolist() == [2.5, 10.0, 25.0] * 2

    def test_speeds_in_class_ranges(self):
        model = MobilityModel(1000.0)
        model.start(np.zeros((30, 2)), seed=0)
        for k, speed in enumerate(model.speed):
            low, high = DEFAULT_CLASSES[k % 3].initial_speed
            assert low <= speed <= high

    def test_orientation_range(self):
        model = MobilityModel(1000.0)
        model.start(np.zeros((30, 2)), seed=0)
        assert ((0 <= model.orientation) & (model.orientation <= np.pi)).all()

    def test_positions_copied(self):
        positions = np.full((3, 2), 500.0)
        model = MobilityModel(1000.0)
        model.start(positions, seed=0)
        model.step(seed=1)
        assert (positions == 500.0).all()


class TestStep:
    def test_positions_stay_in_area(self):
        model = MobilityModel(1000.0, slot_duration_s=5.0)
        model.start(np.full((9, 2), 500.0), seed=1)
        for _ in range(500):
            positions = model.step(seed=None)
        assert positions.shape == (9, 2)
        assert ((0 <= positions) & (positions <= 1000)).all()

    def test_speed_clamped(self):
        model = MobilityModel(1000.0)
        model.start(np.full((9, 2), 500.0), seed=2)
        for _ in range(200):
            model.step()
        assert ((0 <= model.speed) & (model.speed <= model.max_speed)).all()

    def test_users_actually_move(self):
        model = MobilityModel(1000.0, slot_duration_s=5.0)
        model.start(np.full((3, 2), 500.0), seed=3)
        before = model.positions
        moved = model.step(seed=4)
        assert (before != moved).any(axis=1).all()


class TestTrajectory:
    def test_shape(self):
        model = MobilityModel(1000.0)
        positions = np.array([[1.0, 1.0], [2.0, 2.0]])
        frames = model.trajectory(positions, num_slots=10, seed=0)
        assert frames.shape == (11, 2, 2)
        assert frames.dtype == np.float64
        assert frames[0].tolist() == [[1.0, 1.0], [2.0, 2.0]]

    def test_reproducible(self):
        model = MobilityModel(1000.0)
        a = model.trajectory(np.array([[1.0, 1.0]]), num_slots=5, seed=7)
        b = model.trajectory(np.array([[1.0, 1.0]]), num_slots=5, seed=7)
        assert np.array_equal(a, b)

    def test_negative_slots_rejected(self):
        with pytest.raises(ConfigurationError):
            MobilityModel(1000.0).trajectory(np.zeros((1, 2)), num_slots=-1)

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (2, 2, 2)])
    def test_positions_shape_rejected(self, shape):
        with pytest.raises(ConfigurationError, match=r"shape \(K, 2\)"):
            MobilityModel(1000.0).trajectory(np.zeros(shape), num_slots=1)


def reference_step(model, rng):
    """The per-slot step the block walk replaced, kept as its reference."""
    dt = model.slot_duration_s
    rates = model._rate_low + model._rate_span * rng.random(model._rate_low.shape)
    change = rates * dt
    model.speed = np.minimum(np.maximum(model.speed + change[:, 0], 0.0), model.max_speed)
    model.orientation = (model.orientation + change[:, 1]) % (2.0 * np.pi)
    moved = model.positions.copy()
    moved[:, 0] += model.speed * np.cos(model.orientation) * dt
    moved[:, 1] += model.speed * np.sin(model.orientation) * dt
    model.positions = reflect_into_square(moved, model.side_length)
    return model.positions


class TestBlockWalk:
    """``trajectory`` walks slots in blocks; ``step`` walks one slot."""

    BLOCK = 4

    @pytest.mark.parametrize("num_users", [1, 10, 37])
    @pytest.mark.parametrize("num_slots", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_trajectory_equals_start_then_steps(self, monkeypatch, num_users, num_slots):
        # A block of exactly BLOCK slots at this K, so the seams fall inside
        # these short walks; the 200 m side makes users reflect early.
        monkeypatch.setattr(mobility, "_BLOCK_USER_SLOTS", self.BLOCK * num_users)
        positions = np.random.default_rng(num_users).uniform(0.0, 200.0, (num_users, 2))
        walked, walked_rng = MobilityModel(200.0), np.random.default_rng(11)
        frames = walked.trajectory(positions, num_slots, walked_rng)
        assert frames.shape == (num_slots + 1, num_users, 2)
        for advance in (MobilityModel.step, reference_step):
            stepped, rng = MobilityModel(200.0), np.random.default_rng(11)
            stepped.start(positions, rng)
            expected = [stepped.positions.copy()]
            expected += [advance(stepped, rng).copy() for _ in range(num_slots)]
            for frame, want in zip(frames, expected):
                assert frame.tobytes() == want.tobytes()
            assert walked.speed.tobytes() == stepped.speed.tobytes()
            assert walked.orientation.tobytes() == stepped.orientation.tobytes()
            assert walked_rng.bit_generator.state == rng.bit_generator.state


class TestGoldenTrajectory:
    """Absolute pins of whole trajectories.

    ``tests/golden/mobility_trajectory.json`` was captured from the
    per-user scalar implementation this array model replaced: a sha256
    of each ``(slots + 1, K, 2)`` float64 trajectory plus its last
    frame. The array model must reproduce it bit for bit.
    """

    GOLDEN = json.loads(
        (
            Path(__file__).resolve().parent.parent
            / "golden"
            / "mobility_trajectory.json"
        ).read_text()
    )

    @pytest.mark.parametrize("name", sorted(GOLDEN["cases"]))
    def test_matches_golden(self, name):
        golden = self.GOLDEN
        case = golden["cases"][name]
        by_name = {cls.name: cls for cls in (PEDESTRIAN, BIKE, VEHICLE)}
        positions = np.random.default_rng(case["positions_seed"]).uniform(
            0.0, golden["side_length_m"], size=(case["num_users"], 2)
        )
        model = MobilityModel(
            golden["side_length_m"],
            slot_duration_s=golden["slot_duration_s"],
            classes=[by_name[cls] for cls in case["classes"]],
        )
        frames = model.trajectory(positions, golden["num_slots"], seed=case["seed"])
        assert frames.shape == (golden["num_slots"] + 1, case["num_users"], 2)
        assert frames[-1].tolist() == case["last_frame"]
        assert hashlib.sha256(frames.tobytes()).hexdigest() == case["sha256"]


class TestValidation:
    def test_bad_model_params(self):
        with pytest.raises(ConfigurationError):
            MobilityModel(0.0)
        with pytest.raises(ConfigurationError):
            MobilityModel(100.0, slot_duration_s=0)
        with pytest.raises(ConfigurationError):
            MobilityModel(100.0, classes=())

    def test_bad_class_params(self):
        with pytest.raises(ConfigurationError):
            MobilityClass("x", (2.0, 1.0), (-1, 1), (-1, 1), 5.0)
        with pytest.raises(ConfigurationError):
            MobilityClass("x", (-1.0, 1.0), (-1, 1), (-1, 1), 5.0)
        with pytest.raises(ConfigurationError):
            MobilityClass("x", (0.5, 1.0), (-1, 1), (-1, 1), 0.0)
