"""Tests for the CIFAR-100 taxonomy data."""

import pytest

from repro.data.cifar100 import (
    CIFAR100_TAXONOMY,
    TABLE1_FINETUNE_GROUPS,
    all_classes,
    classes_of,
    superclasses,
)


class TestTaxonomy:
    def test_twenty_superclasses(self):
        assert len(superclasses()) == 20

    def test_five_classes_each(self):
        for superclass in superclasses():
            assert len(classes_of(superclass)) == 5

    def test_hundred_unique_classes(self):
        classes = all_classes()
        assert len(classes) == 100
        assert len(set(classes)) == 100

    def test_paper_example_fish(self):
        # The paper quotes the "fish" superclass membership verbatim.
        assert classes_of("fish") == [
            "aquarium fish",
            "flatfish",
            "ray",
            "shark",
            "trout",
        ]

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            classes_of("mammoths")


class TestTable1Groups:
    def test_matches_paper_table(self):
        assert TABLE1_FINETUNE_GROUPS["fruit and vegetables"] == ("flowers", "trees")
        assert TABLE1_FINETUNE_GROUPS["vehicles 2"] == (
            "large man-made outdoor things",
            "vehicles 1",
        )
        assert len(TABLE1_FINETUNE_GROUPS["medium-sized mammals"]) == 5

    def test_all_groups_are_real_superclasses(self):
        for first, seconds in TABLE1_FINETUNE_GROUPS.items():
            assert first in CIFAR100_TAXONOMY
            for second in seconds:
                assert second in CIFAR100_TAXONOMY
