"""Absolute pins of the generated libraries' block structure.

``tests/golden/library_structure.json`` holds, for both library
constructions (special and general case) at 30 and 300 models and three
seeds, sha256 digests of the block sizes in id order, the model ->
block-id membership, the model names and roots, and the block names and
origins, plus the block and shared-block counts. Every solver starts
from this structure, so any
change to how a library is assembled must reproduce it bit for bit.

Regenerate (only when a library construction changes on purpose)::

    PYTHONPATH=src python tests/models/test_library_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.models.generators import (
    GeneralCaseConfig,
    SpecialCaseConfig,
    build_general_case_library,
    build_special_case_library,
)

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "golden" / "library_structure.json"
)

BUILDERS = {
    "special": (SpecialCaseConfig, build_special_case_library),
    "general": (GeneralCaseConfig, build_general_case_library),
}
CASES = [
    f"{kind}-I{num_models}-seed{seed}"
    for kind in BUILDERS
    for num_models in (30, 300)
    for seed in (0, 1, 2)
]


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def library_structure(name: str) -> dict:
    """The digests of one golden case, named ``<kind>-I<models>-seed<seed>``."""
    kind, models, seed = name.split("-")
    config_cls, builder = BUILDERS[kind]
    library = builder(config_cls(num_models=int(models[1:])), seed=int(seed[4:]))
    blocks = library.blocks()
    return {
        "num_models": library.num_models,
        "num_blocks": library.num_blocks,
        "num_shared_blocks": len(library.shared_block_ids),
        "block_sizes_sha256": _sha256(
            [[block.block_id, block.size_bytes] for block in blocks]
        ),
        "membership_sha256": _sha256(
            [[model.model_id, list(model.block_ids)] for model in library.models()]
        ),
        "model_names_sha256": _sha256(
            [[model.name, model.root] for model in library.models()]
        ),
        "block_names_sha256": _sha256([block.name for block in blocks]),
        "block_origins_sha256": _sha256([block.origin for block in blocks]),
    }


@pytest.mark.parametrize("name", CASES)
def test_library_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert library_structure(name) == golden[name]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: library_structure(name) for name in CASES}, indent=1)
        + "\n"
    )
