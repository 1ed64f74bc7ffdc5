"""Tests for planar geometry helpers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network.geometry import (
    Point,
    coverage_sets,
    pairwise_distances,
    reflect_into_square,
    uniform_points,
)


class TestPoint:
    def test_as_array(self):
        assert (Point(1.5, 2.5).as_array() == np.array([1.5, 2.5])).all()


class TestUniformPoints:
    def test_inside_square(self):
        points = uniform_points(100, 1000.0, seed=0)
        assert len(points) == 100
        for point in points:
            assert 0 <= point.x <= 1000
            assert 0 <= point.y <= 1000

    def test_reproducible(self):
        a = uniform_points(5, 100.0, seed=3)
        b = uniform_points(5, 100.0, seed=3)
        assert a == b

    def test_zero_count(self):
        assert uniform_points(0, 10.0, seed=0) == []

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            uniform_points(-1, 10.0)
        with pytest.raises(ConfigurationError):
            uniform_points(1, 0.0)


class TestPairwiseDistances:
    def test_matrix_values(self):
        sources = [Point(0, 0), Point(0, 10)]
        targets = [Point(3, 4)]
        dist = pairwise_distances(sources, targets)
        assert dist.shape == (2, 1)
        assert dist[0, 0] == pytest.approx(5.0)
        assert dist[1, 0] == pytest.approx(np.hypot(3, 6))

    def test_empty_inputs(self):
        assert pairwise_distances([], [Point(0, 0)]).shape == (0, 1)


class TestCoverageSets:
    def test_coverage_relation(self):
        distances = np.array([[100.0, 300.0], [50.0, 200.0]])
        servers_of_user, users_of_server = coverage_sets(distances, radius=250.0)
        assert servers_of_user == [[0, 1], [1]]
        assert users_of_server == [[0], [0, 1]]

    def test_invalid_radius(self):
        with pytest.raises(ConfigurationError):
            coverage_sets(np.zeros((1, 1)), radius=0.0)


class TestReflectIntoSquare:
    def test_inside_unchanged(self):
        assert reflect_into_square(np.array([3.0, 4.0]), 10.0).tolist() == [3.0, 4.0]

    def test_reflects_over_edge(self):
        reflected = reflect_into_square(np.array([[12.0, -2.0]]), 10.0)
        assert reflected.tolist() == [[8.0, 2.0]]

    def test_always_inside(self):
        rng = np.random.default_rng(0)
        coords = reflect_into_square(rng.uniform(-50, 50, size=(200, 2)), 10.0)
        assert coords.shape == (200, 2)
        assert ((0 <= coords) & (coords <= 10)).all()
