"""CIFAR-100 superclass taxonomy.

The paper builds its model library from CIFAR-100: 20 superclasses of 5
classes each, one downstream classifier per class (100 per pre-trained
root). Table I additionally groups superclasses for the two-round
fine-tuning that creates the general-case library. This module carries the
standard taxonomy so generated models get meaningful names and Table I can
be reproduced verbatim.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Superclass -> its five member classes, per the CIFAR-100 definition.
CIFAR100_TAXONOMY: Dict[str, Tuple[str, str, str, str, str]] = {
    "aquatic mammals": ("beaver", "dolphin", "otter", "seal", "whale"),
    "fish": ("aquarium fish", "flatfish", "ray", "shark", "trout"),
    "flowers": ("orchid", "poppy", "rose", "sunflower", "tulip"),
    "food containers": ("bottle", "bowl", "can", "cup", "plate"),
    "fruit and vegetables": ("apple", "mushroom", "orange", "pear", "sweet pepper"),
    "household electrical devices": (
        "clock",
        "keyboard",
        "lamp",
        "telephone",
        "television",
    ),
    "household furniture": ("bed", "chair", "couch", "table", "wardrobe"),
    "insects": ("bee", "beetle", "butterfly", "caterpillar", "cockroach"),
    "large carnivores": ("bear", "leopard", "lion", "tiger", "wolf"),
    "large man-made outdoor things": (
        "bridge",
        "castle",
        "house",
        "road",
        "skyscraper",
    ),
    "large natural outdoor scenes": ("cloud", "forest", "mountain", "plain", "sea"),
    "large omnivores and herbivores": (
        "camel",
        "cattle",
        "chimpanzee",
        "elephant",
        "kangaroo",
    ),
    "medium-sized mammals": ("fox", "porcupine", "possum", "raccoon", "skunk"),
    "non-insect invertebrates": ("crab", "lobster", "snail", "spider", "worm"),
    "people": ("baby", "boy", "girl", "man", "woman"),
    "reptiles": ("crocodile", "dinosaur", "lizard", "snake", "turtle"),
    "small mammals": ("hamster", "mouse", "rabbit", "shrew", "squirrel"),
    "trees": ("maple tree", "oak tree", "palm tree", "pine tree", "willow tree"),
    "vehicles 1": ("bicycle", "bus", "motorcycle", "pickup truck", "train"),
    "vehicles 2": ("lawn mower", "rocket", "streetcar", "tank", "tractor"),
}

#: Table I of the paper: first-round fine-tuning superclass -> the
#: superclasses whose second-round models reuse its parameter blocks.
TABLE1_FINETUNE_GROUPS: Dict[str, Tuple[str, ...]] = {
    "fruit and vegetables": ("flowers", "trees"),
    "medium-sized mammals": (
        "large carnivores",
        "large omnivores and herbivores",
        "people",
        "reptiles",
        "small mammals",
    ),
    "vehicles 2": ("large man-made outdoor things", "vehicles 1"),
}


def superclasses() -> List[str]:
    """All 20 superclass names in deterministic (alphabetical) order."""
    return sorted(CIFAR100_TAXONOMY)


def classes_of(superclass: str) -> List[str]:
    """The five classes of ``superclass``.

    Raises
    ------
    KeyError
        If ``superclass`` is not a CIFAR-100 superclass.
    """
    if superclass not in CIFAR100_TAXONOMY:
        raise KeyError(f"unknown CIFAR-100 superclass: {superclass!r}")
    return list(CIFAR100_TAXONOMY[superclass])


def all_classes() -> List[str]:
    """All 100 class names, ordered by superclass then class."""
    return [
        cls for superclass in superclasses() for cls in CIFAR100_TAXONOMY[superclass]
    ]
