"""Tests for ModelLibrary: indexes, sharing structure, storage accounting."""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.placement import PlacementInstance
from repro.errors import LibraryError
from repro.models.blocks import ParameterBlock
from repro.models.library import ModelLibrary
from repro.models.model import Model
from repro.utils.units import MB


def library_from(spec):
    """Build a library from {model_id: {block_id: size}} shorthand."""
    sizes = {}
    models = []
    for model_id, blocks in spec.items():
        for block_id, size in blocks.items():
            if block_id in sizes and sizes[block_id] != size:
                raise AssertionError("inconsistent test spec")
            sizes[block_id] = size
        models.append(Model(model_id, tuple(blocks)))
    return ModelLibrary(
        [ParameterBlock(b, s) for b, s in sizes.items()], models
    )


class TestConstruction:
    def test_duplicate_block_id(self):
        with pytest.raises(LibraryError, match="duplicate block"):
            ModelLibrary(
                [ParameterBlock(0, 1), ParameterBlock(0, 2)],
                [Model(0, (0,))],
            )

    def test_duplicate_model_id(self):
        with pytest.raises(LibraryError, match="duplicate model"):
            ModelLibrary(
                [ParameterBlock(0, 1)],
                [Model(0, (0,)), Model(0, (0,))],
            )

    def test_unknown_block_reference(self):
        with pytest.raises(LibraryError, match="unknown blocks"):
            ModelLibrary([ParameterBlock(0, 1)], [Model(0, (0, 9))])

    def test_empty_models_rejected(self):
        with pytest.raises(LibraryError):
            ModelLibrary([ParameterBlock(0, 1)], [])

    def test_unknown_blocks_listed_sorted(self):
        message = r"model 1 references unknown blocks \[7, 9\]"
        with pytest.raises(LibraryError, match=message):
            ModelLibrary(
                [ParameterBlock(0, 1)], [Model(0, (0,)), Model(1, (9, 0, 7))]
            )


class TestFromArrays:
    """The array constructor runs the same checks as ``ModelLibrary(...)``."""

    def test_same_library_as_object_constructor(self, tiny_library):
        blocks = tiny_library.blocks()
        rebuilt = ModelLibrary.from_arrays(
            [b.block_id for b in reversed(blocks)],
            [b.size_bytes for b in reversed(blocks)],
            [b.name for b in reversed(blocks)],
            [b.origin for b in reversed(blocks)],
            reversed(tiny_library.models()),
        )
        assert rebuilt.blocks() == blocks
        assert rebuilt.models() == tiny_library.models()
        for ours, theirs in zip(rebuilt.membership, tiny_library.membership):
            assert np.array_equal(ours, theirs)

    def test_duplicate_block_id(self):
        with pytest.raises(LibraryError, match="duplicate block"):
            ModelLibrary.from_arrays(
                [3, 3], [1, 2], ["", ""], ["", ""], [Model(0, (3,))]
            )

    def test_non_positive_size(self):
        with pytest.raises(LibraryError, match="size must be positive"):
            ModelLibrary.from_arrays(
                [0, 1], [4, 0], ["", ""], ["", ""], [Model(0, (0,))]
            )

    def test_negative_block_id(self):
        with pytest.raises(LibraryError, match="non-negative"):
            ModelLibrary.from_arrays(
                [-2, 1], [4, 4], ["", ""], ["", ""], [Model(0, (1,))]
            )

    def test_unequal_columns(self):
        with pytest.raises(LibraryError, match="equal lengths"):
            ModelLibrary.from_arrays(
                [0, 1], [4], ["", ""], ["", ""], [Model(0, (1,))]
            )

    def test_unknown_block_reference(self):
        with pytest.raises(LibraryError, match="unknown blocks"):
            ModelLibrary.from_arrays([0], [4], [""], [""], [Model(0, (0, 5))])


class TestArrays:
    def test_arrays_are_read_only(self, tiny_library):
        indptr, positions = tiny_library.membership
        for array in (
            tiny_library.block_id_array,
            tiny_library.block_size_array,
            tiny_library.model_size_array,
            indptr,
            positions,
        ):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_arrays_match_objects(self, tiny_library):
        blocks = tiny_library.blocks()
        assert tiny_library.block_id_array.tolist() == [
            b.block_id for b in blocks
        ]
        assert tiny_library.block_size_array.tolist() == [
            b.size_bytes for b in blocks
        ]
        assert tiny_library.model_size_array.tolist() == [
            tiny_library.model_size(i) for i in tiny_library.model_ids
        ]
        indptr, positions = tiny_library.membership
        for row, model in enumerate(tiny_library.models()):
            span = positions[indptr[row] : indptr[row + 1]]
            assert tuple(tiny_library.block_id_array[span].tolist()) == (
                model.block_ids
            )

    def test_pickle_round_trip(self, tiny_library):
        tiny_library.models_with_block(0)  # build a lazy table first
        clone = pickle.loads(pickle.dumps(tiny_library))
        assert clone.blocks() == tiny_library.blocks()
        assert clone.models() == tiny_library.models()
        assert clone.shared_block_ids == tiny_library.shared_block_ids
        assert clone.models_with_block(0) == frozenset({0, 1})
        with pytest.raises(ValueError):
            clone.block_size_array[0] = 1


class TestSharingStructure:
    def test_shared_vs_specific(self, tiny_library):
        assert tiny_library.shared_block_ids == frozenset({0})
        assert tiny_library.specific_block_ids == frozenset({1, 2, 3, 4})

    def test_models_with_block(self, tiny_library):
        assert tiny_library.models_with_block(0) == frozenset({0, 1})
        assert tiny_library.models_with_block(3) == frozenset({2})

    def test_models_with_unknown_block(self, tiny_library):
        with pytest.raises(LibraryError):
            tiny_library.models_with_block(99)

    def test_shared_blocks_of(self, tiny_library):
        assert tiny_library.shared_blocks_of(0) == frozenset({0})
        assert tiny_library.shared_blocks_of(2) == frozenset()

    def test_specific_blocks_are_exclusive(self, tiny_library):
        assert tiny_library.specific_blocks_are_exclusive()


class TestStorageAccounting:
    def test_model_size(self, tiny_library):
        assert tiny_library.model_size(0) == 15 * MB
        assert tiny_library.model_size(2) == 10 * MB

    def test_dedup_never_exceeds_independent(self, tiny_instance):
        for subset in ([0], [1], [2], [0, 1], [0, 2], [0, 1, 2]):
            assert tiny_instance.dedup_storage(subset) <= int(
                tiny_instance.model_sizes[subset].sum()
            )

    def test_sharing_stats(self, tiny_library):
        stats = tiny_library.sharing_stats()
        assert stats.num_models == 3
        assert stats.num_shared_blocks == 1
        assert stats.total_size_independent == 40 * MB
        assert stats.total_size_deduplicated == 30 * MB
        assert stats.savings_ratio == pytest.approx(0.25)


class TestSubset:
    def test_subset_prunes_blocks(self, tiny_library):
        sub = tiny_library.subset([2])
        assert sub.num_models == 1
        assert set(sub.block_ids) == {3, 4}

    def test_shared_becomes_specific_in_subset(self, tiny_library):
        sub = tiny_library.subset([0, 2])
        # Block 0 was shared between models 0 and 1; with model 1 gone it
        # is specific.
        assert sub.shared_block_ids == frozenset()

    def test_subset_keeps_original_ids(self, tiny_library):
        sub = tiny_library.subset([1, 2])
        assert sub.model_ids == [1, 2]

    def test_empty_subset_rejected(self, tiny_library):
        with pytest.raises(LibraryError):
            tiny_library.subset([])


class TestDunder:
    def test_contains_and_len(self, tiny_library):
        assert 0 in tiny_library
        assert 99 not in tiny_library
        assert len(tiny_library) == 3


@given(
    shared_size=st.integers(1, 100),
    specific_sizes=st.lists(st.integers(1, 100), min_size=2, max_size=6),
)
def test_dedup_savings_equals_shared_size(shared_size, specific_sizes):
    """With one shared block, dedup saves (n-1) copies of it exactly."""
    blocks = [ParameterBlock(0, shared_size)]
    models = []
    for index, size in enumerate(specific_sizes, start=1):
        blocks.append(ParameterBlock(index, size))
        models.append(Model(index - 1, (0, index)))
    library = ModelLibrary(blocks, models)
    num_models = len(models)
    instance = PlacementInstance(
        library,
        np.full((1, num_models), 0.1),
        np.ones((1, 1, num_models), dtype=bool),
        [0],
    )
    indices = range(num_models)
    saved = int(instance.model_sizes.sum()) - instance.dedup_storage(indices)
    assert saved == (len(specific_sizes) - 1) * shared_size
