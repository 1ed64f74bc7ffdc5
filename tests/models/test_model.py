"""Tests for the Model type."""

import pytest

from repro.errors import LibraryError
from repro.models.model import Model


class TestModel:
    def test_construction(self):
        model = Model(1, (3, 1, 2), name="m", root="resnet18")
        assert model.num_blocks == 3
        assert model.block_ids == (3, 1, 2)  # order preserved
        assert model.block_set == frozenset({1, 2, 3})

    def test_negative_id_rejected(self):
        with pytest.raises(LibraryError):
            Model(-1, (0,))

    def test_negative_block_id_rejected(self):
        with pytest.raises(LibraryError, match="negative block id"):
            Model(0, (0, -1))

    def test_empty_blocks_rejected(self):
        with pytest.raises(LibraryError):
            Model(0, ())

    def test_duplicate_blocks_rejected(self):
        with pytest.raises(LibraryError):
            Model(0, (1, 1))

    def test_str(self):
        assert "2 blocks" in str(Model(0, (1, 2), name="x"))
