"""Tests for the simulated fine-tuning operations."""

import pytest

from repro.data.resnet import RESNET18, RESNET50
from repro.data.transformer import TINY_LLM
from repro.errors import LibraryError
from repro.models.model import Model
from repro.models.finetune import (
    FineTuner,
    PretrainedRoot,
    make_resnet_root,
    make_transformer_root,
)


@pytest.fixture
def root18() -> PretrainedRoot:
    return make_resnet_root(RESNET18)


class TestPretrainedRoot:
    def test_resnet_root_layer_count(self, root18):
        assert root18.num_layers == 41

    def test_total_size(self, root18):
        # ~11.2M params fp32 -> ~45 MB.
        assert 40e6 < root18.total_size_bytes < 50e6

    def test_transformer_root(self):
        root = make_transformer_root(TINY_LLM)
        assert root.num_layers == 2 + 4 * TINY_LLM.num_layers

    def test_empty_layers_rejected(self):
        with pytest.raises(LibraryError):
            PretrainedRoot("bad", ())


class TestFreezeBottom:
    def test_prefix_shared_across_siblings(self, root18):
        tuner = FineTuner()
        a = tuner.freeze_bottom(root18, 30, name="a")
        b = tuner.freeze_bottom(root18, 30, name="b")
        assert a.block_ids[:30] == b.block_ids[:30]
        assert set(a.block_ids[30:]).isdisjoint(b.block_ids[30:])

    def test_different_depths_share_common_prefix(self, root18):
        tuner = FineTuner()
        deep = tuner.freeze_bottom(root18, 35, name="deep")
        shallow = tuner.freeze_bottom(root18, 30, name="shallow")
        assert deep.block_ids[:30] == shallow.block_ids[:30]
        # Frozen layers 30-34 of "deep" are shared root blocks that
        # "shallow" retrains as fresh specific blocks.
        assert set(deep.block_ids[30:35]).isdisjoint(shallow.block_ids[30:])

    def test_model_size_preserved_without_head_change(self, root18):
        tuner = FineTuner()
        model = tuner.freeze_bottom(root18, 30, name="m")
        library = tuner.build()
        assert library.model_size(model.model_id) == root18.total_size_bytes

    def test_head_replacement(self, root18):
        tuner = FineTuner()
        model = tuner.freeze_bottom(root18, 30, name="m", head_params=512 * 2 + 2)
        library = tuner.build()
        head_block = library.block(model.block_ids[-1])
        assert head_block.size_bytes == (512 * 2 + 2) * 4

    def test_invalid_depths_rejected(self, root18):
        tuner = FineTuner()
        with pytest.raises(LibraryError):
            tuner.freeze_bottom(root18, 41, name="m")  # head must stay
        with pytest.raises(LibraryError):
            tuner.freeze_bottom(root18, -1, name="m")

    def test_freeze_from_model_parent(self, root18):
        """Second-round fine-tuning (general case) reuses parent blocks."""
        tuner = FineTuner()
        parent = tuner.full_finetune(root18, name="parent")
        child = tuner.freeze_bottom(parent, 20, name="child")
        assert child.block_ids[:20] == parent.block_ids[:20]
        assert set(child.block_ids[20:]).isdisjoint(parent.block_ids)

    def test_foreign_parent_block_rejected_before_allocating(self, root18):
        tuner = FineTuner()
        parent = tuner.full_finetune(root18, name="parent")
        stranger = Model(7, parent.block_ids[:-1] + (tuner.num_blocks,))
        blocks_before = tuner.num_blocks
        with pytest.raises(LibraryError, match="not allocated by this tuner"):
            tuner.freeze_bottom(stranger, 10, name="child")
        assert tuner.num_blocks == blocks_before
        assert tuner.num_models == 1
        assert tuner.build().num_blocks == blocks_before

    def test_rejected_head_params_leave_tuner_unchanged(self, root18):
        tuner = FineTuner()
        tuner.freeze_bottom(root18, 20, name="first")
        blocks_before = tuner.num_blocks
        with pytest.raises(LibraryError, match="head_params"):
            tuner.freeze_bottom(root18, 20, name="bad", head_params=0)
        assert tuner.num_blocks == blocks_before
        assert tuner.num_models == 1
        assert tuner.build().num_blocks == blocks_before

    def test_two_roots_never_share(self):
        tuner = FineTuner()
        a = tuner.freeze_bottom(make_resnet_root(RESNET18), 30, name="a")
        b = tuner.freeze_bottom(make_resnet_root(RESNET50), 90, name="b")
        assert set(a.block_ids).isdisjoint(b.block_ids)

    def test_conflicting_root_names_rejected(self, root18):
        tuner = FineTuner()
        tuner.freeze_bottom(root18, 30, name="a")
        other = PretrainedRoot("resnet18", make_resnet_root(RESNET50).layers)
        with pytest.raises(LibraryError):
            tuner.freeze_bottom(other, 30, name="b")


class TestFullFinetune:
    def test_shares_nothing(self, root18):
        tuner = FineTuner()
        frozen = tuner.freeze_bottom(root18, 30, name="frozen")
        full = tuner.full_finetune(root18, name="full")
        assert set(full.block_ids).isdisjoint(frozen.block_ids)

    def test_size_matches_root(self, root18):
        tuner = FineTuner()
        model = tuner.full_finetune(root18, name="full")
        library = tuner.build()
        assert library.model_size(model.model_id) == root18.total_size_bytes


class TestLora:
    def test_shares_whole_backbone(self):
        root = make_transformer_root(TINY_LLM)
        tuner = FineTuner()
        a = tuner.lora_for_transformer(root, TINY_LLM, name="a", rank=8)
        b = tuner.lora_for_transformer(root, TINY_LLM, name="b", rank=8)
        assert a.block_ids[:-1] == b.block_ids[:-1]
        assert a.block_ids[-1] != b.block_ids[-1]

    def test_library_savings_are_extreme(self):
        root = make_transformer_root(TINY_LLM)
        tuner = FineTuner()
        for index in range(5):
            tuner.lora_for_transformer(root, TINY_LLM, name=f"m{index}", rank=8)
        stats = tuner.build().sharing_stats()
        # Five LoRA models cost barely more than one backbone.
        assert stats.savings_ratio > 0.75

    def test_invalid_adapter_params(self, root18):
        with pytest.raises(LibraryError):
            FineTuner().lora(root18, name="x", adapter_params=0)


class TestBuild:
    def test_empty_build_rejected(self):
        with pytest.raises(LibraryError):
            FineTuner().build()

    def test_num_models_counter(self, root18):
        tuner = FineTuner()
        assert tuner.num_models == 0
        tuner.freeze_bottom(root18, 30, name="a")
        assert tuner.num_models == 1
