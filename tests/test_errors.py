"""Tests for the exception hierarchy and the SolverResult type."""

import pytest

from repro.core.placement import Placement
from repro.core.result import SolverResult
from repro.errors import (
    ConfigurationError,
    LibraryError,
    PlacementError,
    ReproError,
    SolverError,
    TopologyError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError,
            LibraryError,
            TopologyError,
            PlacementError,
            SolverError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_value_errors_catchable_as_valueerror(self):
        for exc in (ConfigurationError, LibraryError, TopologyError, PlacementError):
            assert issubclass(exc, ValueError)

    def test_runtime_errors(self):
        assert issubclass(SolverError, RuntimeError)

    def test_catch_all(self):
        with pytest.raises(ReproError):
            raise LibraryError("x")


class TestSolverResult:
    def test_fields_and_repr(self):
        import numpy as np

        result = SolverResult(
            placement=Placement(np.zeros((1, 1), dtype=bool)),
            hit_ratio=0.5,
            runtime_s=0.01,
            solver="Test",
            stats={"steps": 3},
        )
        assert result.stats["steps"] == 3
        assert "Test" in repr(result)
        assert "0.5" in repr(result)

    def test_default_stats(self):
        import numpy as np

        result = SolverResult(
            placement=Placement(np.zeros((1, 1), dtype=bool)),
            hit_ratio=0.0,
            runtime_s=0.0,
            solver="Test",
        )
        assert result.stats == {}
