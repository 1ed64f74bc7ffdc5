"""Synthetic model-library builders matching the paper's §VII-A setup.

Two constructions are provided:

* **Special case** (:func:`build_special_case_library`) — every model is
  fine-tuned directly from one of a few pre-trained roots (ResNet-18/34/50
  by default) with bottom-layer freezing, so all shared blocks come from
  the roots' frozen prefixes and their number is *independent of the
  library scale* — exactly the condition TrimCaching Spec requires.

* **General case** (:func:`build_general_case_library`) — the paper's
  two-round construction (Table I): first-round models are *fully*
  fine-tuned per selected superclass (sharing nothing with the original
  roots), then class-level models are frozen-prefix fine-tuned from those
  first-round models. The number of shared blocks now grows with the
  library scale.

Both builders are deterministic given an RNG and truncate to a requested
``num_models`` by interleaving roots so small libraries stay balanced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.data.cifar100 import (
    CIFAR100_TAXONOMY,
    TABLE1_FINETUNE_GROUPS,
    all_classes,
    classes_of,
)
from repro.data.resnet import RESNET18, RESNET34, RESNET50, ResNetSpec
from repro.errors import ConfigurationError
from repro.models.finetune import FineTuner, PretrainedRoot, make_resnet_root
from repro.models.library import ModelLibrary
from repro.utils.rng import SeedLike, as_generator

#: Paper §VII-A: admissible frozen-bottom-layer counts per root.
PAPER_FROZEN_RANGES: Dict[str, Tuple[int, int]] = {
    "resnet18": (29, 40),
    "resnet34": (49, 72),
    "resnet50": (87, 106),
}

#: Head size of a downstream task classifier (binary one-vs-rest head).
_TASK_CLASSES = 2


def _default_roots() -> Tuple[ResNetSpec, ...]:
    return (RESNET18, RESNET34, RESNET50)


@dataclass(frozen=True)
class SpecialCaseConfig:
    """Parameters of the special-case library construction.

    Attributes
    ----------
    num_models:
        Total library size ``|I|`` (paper: 300 full-scale, 30 in Fig. 4).
    roots:
        Pre-trained architectures models are fine-tuned from.
    frozen_ranges:
        Per-root inclusive ``(low, high)`` range the frozen-layer count is
        drawn from (paper's measured ranges by default).
    pretrain_classes:
        Class count of the roots' original heads (CIFAR-100).
    """

    num_models: int = 300
    roots: Tuple[ResNetSpec, ...] = field(default_factory=_default_roots)
    frozen_ranges: Optional[Mapping[str, Tuple[int, int]]] = None
    pretrain_classes: int = 100

    def __post_init__(self) -> None:
        if self.num_models < 1:
            raise ConfigurationError("num_models must be at least 1")
        if not self.roots:
            raise ConfigurationError("at least one root architecture is required")

    def frozen_range(self, root: PretrainedRoot) -> Tuple[int, int]:
        """Resolve the frozen-layer range for ``root``."""
        ranges = self.frozen_ranges or PAPER_FROZEN_RANGES
        if root.name in ranges:
            low, high = ranges[root.name]
        else:
            # Unknown architecture: freeze 70-97% of its tensors, the same
            # relative span as the paper's ResNet ranges.
            low = int(0.70 * root.num_layers)
            high = min(root.num_layers - 1, int(0.97 * root.num_layers))
        if not 0 <= low <= high < root.num_layers:
            raise ConfigurationError(
                f"invalid frozen range ({low}, {high}) for root {root.name!r} "
                f"with {root.num_layers} layers"
            )
        return low, high


def _interleaved_tasks(num_roots: int, num_models: int) -> List[Tuple[int, int]]:
    """(root_index, task_index) pairs interleaving roots round-robin."""
    tasks: List[Tuple[int, int]] = []
    per_root = [0] * num_roots
    for counter in range(num_models):
        root_index = counter % num_roots
        tasks.append((root_index, per_root[root_index]))
        per_root[root_index] += 1
    return tasks


def build_special_case_library(
    config: SpecialCaseConfig = SpecialCaseConfig(),
    seed: SeedLike = 0,
) -> ModelLibrary:
    """Build a special-case library (fixed shared blocks from few roots).

    Each model is a CIFAR-100 class-level classifier fine-tuned from one
    root with a frozen bottom prefix drawn from the root's admissible
    range. Shared blocks are exactly the union of the deepest materialised
    prefix per root — a count independent of ``num_models``.
    """
    rng = as_generator(seed)
    roots = [
        make_resnet_root(spec, config.pretrain_classes) for spec in config.roots
    ]
    class_names = all_classes()
    tuner = FineTuner()
    for root_index, task_index in _interleaved_tasks(len(roots), config.num_models):
        root = roots[root_index]
        low, high = config.frozen_range(root)
        n_frozen = int(rng.integers(low, high + 1))
        class_name = class_names[task_index % len(class_names)]
        suffix = task_index // len(class_names)
        label = class_name if suffix == 0 else f"{class_name}#{suffix}"
        feature_dim = config.roots[root_index].feature_dim
        tuner.freeze_bottom(
            root,
            n_frozen=n_frozen,
            name=f"{root.name}/{label}",
            head_params=feature_dim * _TASK_CLASSES + _TASK_CLASSES,
        )
    return tuner.build()


@dataclass(frozen=True)
class GeneralCaseConfig:
    """Parameters of the general-case (two-round, Table I) construction.

    Attributes
    ----------
    num_models:
        Total library size after truncation.
    roots:
        Pre-trained architectures (first round starts from these).
    finetune_groups:
        First-round superclass -> second-round superclasses (Table I).
    include_first_round:
        Whether the first-round superclass models themselves are
        downloadable library members (default True).
    pretrain_classes:
        Class count of the roots' original heads.
    """

    num_models: int = 300
    roots: Tuple[ResNetSpec, ...] = field(default_factory=_default_roots)
    finetune_groups: Optional[Mapping[str, Tuple[str, ...]]] = None
    include_first_round: bool = True
    pretrain_classes: int = 100

    def __post_init__(self) -> None:
        if self.num_models < 1:
            raise ConfigurationError("num_models must be at least 1")
        if not self.roots:
            raise ConfigurationError("at least one root architecture is required")
        groups = self.groups
        for first, seconds in groups.items():
            unknown = [s for s in (first, *seconds) if s not in CIFAR100_TAXONOMY]
            if unknown:
                raise ConfigurationError(
                    f"unknown CIFAR-100 superclasses in finetune groups: {unknown}"
                )

    @property
    def groups(self) -> Mapping[str, Tuple[str, ...]]:
        """The effective first-round -> second-round superclass mapping."""
        return self.finetune_groups or TABLE1_FINETUNE_GROUPS


def build_general_case_library(
    config: GeneralCaseConfig = GeneralCaseConfig(),
    seed: SeedLike = 0,
) -> ModelLibrary:
    """Build a general-case library via the paper's two-round fine-tuning.

    Round 1: for every (root, first-round superclass) pair, fully fine-tune
    the root — producing a parent model that shares nothing with other
    parents. Round 2: for every class of the associated superclasses,
    freeze a bottom prefix of the parent. Sharing therefore happens *within
    each parent's family*, and the shared-block count grows with the number
    of families — the general case.
    """
    rng = as_generator(seed)
    roots = [
        make_resnet_root(spec, config.pretrain_classes) for spec in config.roots
    ]
    frozen_cfg = SpecialCaseConfig(
        num_models=1, roots=config.roots, pretrain_classes=config.pretrain_classes
    )

    # Families are (root, first-round superclass) pairs. We interleave model
    # production across families round-robin so truncated libraries keep
    # several independent families, preserving the "many shared blocks"
    # character of the general case.
    families: List[Tuple[PretrainedRoot, str, List[str]]] = []
    for root in roots:
        for first, seconds in config.groups.items():
            # Second-round classes: the first-round superclass's own classes
            # plus every class of its associated superclasses.
            class_pool = classes_of(first)
            for superclass in seconds:
                class_pool.extend(classes_of(superclass))
            families.append((root, first, class_pool))

    # A family's class pool can be cycled (suffix #2, #3, ...) so the
    # paper's 300-model scale is reachable from Table I's 189 natural
    # slots; the cap below only guards against absurd requests.
    max_cycles = 50
    tuner = FineTuner()
    produced = 0
    library_model_ids: List[int] = []
    parents: Dict[int, object] = {}
    cursor = [0] * len(families)
    while produced < config.num_models:
        capacity_left = any(
            cursor[index] < max_cycles * len(family[2])
            for index, family in enumerate(families)
        )
        if not capacity_left:
            raise ConfigurationError(
                f"cannot produce {config.num_models} models from "
                f"{len(families)} families ({produced} available)"
            )
        for family_index, (root, first, class_pool) in enumerate(families):
            if produced >= config.num_models:
                break
            if cursor[family_index] >= max_cycles * len(class_pool):
                continue
            if family_index not in parents:
                parent = tuner.full_finetune(
                    root, name=f"{root.name}/{first} (round 1)"
                )
                parents[family_index] = parent
                if config.include_first_round:
                    library_model_ids.append(parent.model_id)
                    produced += 1
                    continue
            position = cursor[family_index]
            class_name = class_pool[position % len(class_pool)]
            cycle = position // len(class_pool)
            if cycle:
                class_name = f"{class_name}#{cycle + 1}"
            parent = parents[family_index]
            low, high = frozen_cfg.frozen_range(root)
            n_frozen = int(rng.integers(low, high + 1))
            child = tuner.freeze_bottom(
                parent,  # type: ignore[arg-type]
                n_frozen=n_frozen,
                name=f"{root.name}/{first}/{class_name}",
            )
            library_model_ids.append(child.model_id)
            produced += 1
            cursor[family_index] = position + 1
    library = tuner.build()
    if len(library_model_ids) != library.num_models:
        library = library.subset(sorted(library_model_ids))
    return library
