"""Tests for the special/general library generators (paper §VII-A)."""

import pytest

from repro.data.resnet import RESNET18, RESNET34
from repro.errors import ConfigurationError
from repro.models.generators import (
    PAPER_FROZEN_RANGES,
    GeneralCaseConfig,
    SpecialCaseConfig,
    build_general_case_library,
    build_special_case_library,
)

from tests.oracles.reference import specific_blocks_are_exclusive


class TestSpecialCase:
    def test_default_paper_scale(self):
        library = build_special_case_library(SpecialCaseConfig(num_models=30), seed=0)
        assert library.num_models == 30

    def test_shared_blocks_scale_independent(self):
        """The defining property: shared blocks do not grow with |I|."""
        small = build_special_case_library(SpecialCaseConfig(num_models=12), seed=0)
        large = build_special_case_library(SpecialCaseConfig(num_models=60), seed=0)
        # Shared blocks are bounded by the roots' maximal frozen prefixes
        # (40 + 72 + 106), regardless of library size.
        bound = sum(high for _, high in PAPER_FROZEN_RANGES.values())
        assert len(small.shared_block_ids) <= bound
        assert len(large.shared_block_ids) <= bound
        # And the large library is within the same bound, not 5x bigger.
        assert len(large.shared_block_ids) <= len(small.shared_block_ids) * 2

    def test_roots_balanced(self):
        library = build_special_case_library(SpecialCaseConfig(num_models=30), seed=0)
        roots = [library.model(i).root for i in library.model_ids]
        for root in ("resnet18", "resnet34", "resnet50"):
            assert roots.count(root) == 10

    def test_deterministic_given_seed(self):
        a = build_special_case_library(SpecialCaseConfig(num_models=9), seed=5)
        b = build_special_case_library(SpecialCaseConfig(num_models=9), seed=5)
        assert [m.block_ids for m in a.models()] == [
            m.block_ids for m in b.models()
        ]

    def test_seeds_change_frozen_depths(self):
        a = build_special_case_library(SpecialCaseConfig(num_models=9), seed=1)
        b = build_special_case_library(SpecialCaseConfig(num_models=9), seed=2)
        assert [m.block_ids for m in a.models()] != [
            m.block_ids for m in b.models()
        ]

    def test_specific_blocks_exclusive(self):
        library = build_special_case_library(SpecialCaseConfig(num_models=30), seed=0)
        assert specific_blocks_are_exclusive(library)

    def test_substantial_savings(self):
        library = build_special_case_library(SpecialCaseConfig(num_models=30), seed=0)
        # Freezing 70%+ of layers must produce large dedup savings; the
        # exact number depends on where the parameters sit (top layers are
        # biggest in ResNets), so just require a meaningful fraction.
        assert library.sharing_stats().savings_ratio > 0.10

    def test_custom_roots(self):
        config = SpecialCaseConfig(num_models=6, roots=(RESNET18, RESNET34))
        library = build_special_case_library(config, seed=0)
        roots = {library.model(i).root for i in library.model_ids}
        assert roots == {"resnet18", "resnet34"}

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            SpecialCaseConfig(num_models=0)
        with pytest.raises(ConfigurationError):
            SpecialCaseConfig(roots=())

    def test_names_follow_taxonomy(self):
        library = build_special_case_library(SpecialCaseConfig(num_models=6), seed=0)
        names = [library.model(i).name for i in library.model_ids]
        assert all("/" in name for name in names)


class TestGeneralCase:
    def test_requested_size(self):
        library = build_general_case_library(GeneralCaseConfig(num_models=30), seed=0)
        assert library.num_models == 30

    def test_shared_blocks_grow_with_scale(self):
        """The defining property: sharing grows with the library size."""
        small = build_general_case_library(GeneralCaseConfig(num_models=20), seed=0)
        large = build_general_case_library(GeneralCaseConfig(num_models=120), seed=0)
        assert len(large.shared_block_ids) > len(small.shared_block_ids)

    def test_first_round_models_share_nothing_with_each_other(self):
        library = build_general_case_library(GeneralCaseConfig(num_models=18), seed=0)
        first_round = [
            library.model(i)
            for i in library.model_ids
            if "round 1" in library.model(i).name
        ]
        assert len(first_round) >= 2
        for a in first_round:
            for b in first_round:
                if a.model_id != b.model_id:
                    assert a.block_set.isdisjoint(b.block_set)

    def test_second_round_children_share_with_parent(self):
        library = build_general_case_library(GeneralCaseConfig(num_models=18), seed=0)
        by_name = {library.model(i).name: library.model(i) for i in library.model_ids}
        parents = {n: m for n, m in by_name.items() if "round 1" in n}
        children = {n: m for n, m in by_name.items() if "round 1" not in n}
        assert children
        for name, child in children.items():
            # Child "root/superclass/class" belongs to parent
            # "root/superclass (round 1)".
            family = name.rsplit("/", 1)[0]
            parent = parents[f"{family} (round 1)"]
            assert child.block_set & parent.block_set

    def test_exclude_first_round(self):
        library = build_general_case_library(
            GeneralCaseConfig(num_models=12, include_first_round=False), seed=0
        )
        assert library.num_models == 12
        names = [library.model(i).name for i in library.model_ids]
        assert all("round 1" not in name for name in names)
        # Siblings still share the parent's bottom blocks.
        assert library.shared_block_ids

    def test_too_many_models_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot produce"):
            build_general_case_library(GeneralCaseConfig(num_models=10_000), seed=0)

    def test_unknown_superclass_rejected(self):
        with pytest.raises(ConfigurationError):
            GeneralCaseConfig(finetune_groups={"fish": ("not a superclass",)})

    def test_deterministic(self):
        a = build_general_case_library(GeneralCaseConfig(num_models=15), seed=3)
        b = build_general_case_library(GeneralCaseConfig(num_models=15), seed=3)
        assert [m.block_ids for m in a.models()] == [
            m.block_ids for m in b.models()
        ]
