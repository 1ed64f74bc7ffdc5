"""Absolute pins for Gen and Independent: committed placements.

The same idea as ``test_spec_golden.py``: the greedy solvers' placements
on seeded instances are committed as plain ``(server, model)`` pairs in
``tests/golden/greedy_placements.json``, so a drift in anything the
solvers share with their equivalence oracles (the block index, the
coverage tracker, numpy itself) shows up as a changed placement.

Gen and Independent run on special- and general-case libraries. The
case keys still name the coverage engine each case was captured with
(``gen-dense``, ``gen-sparse``): the tracker has one kernel now, and
both keys pin it, so the committed file stays byte-identical. The ``exact`` cases give server
``m`` a capacity of exactly model ``m``'s size, so the ``<=`` fit test
is exercised at equality.

Regenerate (only for a deliberate result change, with a
``CODE_VERSION_SALT`` bump) by running this file as a script from the
repo root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.gen import TrimCachingGen
from repro.core.independent import IndependentCaching
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario
from repro.utils.units import GB

GOLDEN = (
    Path(__file__).resolve().parent.parent / "golden" / "greedy_placements.json"
)

#: name -> (scenario config, scenario seed, exact-fit capacities?).
CASES = {
    "special-m4-i30-q0.5": (
        ScenarioConfig(num_servers=4, num_users=20, num_models=30,
                       storage_bytes=int(0.5 * GB)),
        101,
        False,
    ),
    "special-m3-i12-exact": (
        ScenarioConfig(num_servers=3, num_users=10, num_models=12),
        303,
        True,
    ),
    "general-m5-i300-q1.0": (
        ScenarioConfig(num_servers=5, num_users=30, num_models=300,
                       requests_per_user=30, library_case="general",
                       storage_bytes=int(1.0 * GB)),
        404,
        False,
    ),
    "general-m4-i300-exact": (
        ScenarioConfig(num_servers=4, num_users=30, num_models=300,
                       requests_per_user=30, library_case="general"),
        505,
        True,
    ),
}

#: name -> solver factory (the engine in a key is where it was captured).
SOLVERS = {
    "gen-dense": TrimCachingGen,
    "gen-sparse": TrimCachingGen,
    "independent": IndependentCaching,
}


def case_instance(case):
    config, seed, exact = CASES[case]
    instance = build_scenario(config, seed=seed).instance
    if exact:
        for server in range(instance.num_servers):
            instance.set_capacity(server, int(instance.model_sizes[server]))
    return instance


def greedy_placement(case, solver):
    placement = SOLVERS[solver]().solve(case_instance(case)).placement
    return sorted(
        [int(server), int(model)] for server, model in zip(*placement.matrix.nonzero())
    )


KEYS = sorted(f"{case}/{solver}" for case in CASES for solver in SOLVERS)


@pytest.mark.parametrize("key", KEYS)
def test_greedy_placement_matches_golden(key):
    golden = json.loads(GOLDEN.read_text())
    assert greedy_placement(*key.split("/")) == golden[key]


def test_exact_fit_cases_fill_a_server_to_the_byte():
    # The exact cases are only worth pinning if some server ends up
    # holding exactly its capacity.
    for case in (name for name in CASES if CASES[name][2]):
        instance = case_instance(case)
        placement = TrimCachingGen().solve(instance).placement
        used = [
            instance.dedup_storage(placement.models_on(server))
            for server in range(instance.num_servers)
        ]
        assert any(
            u == int(c) for u, c in zip(used, instance.capacities)
        ), case


if __name__ == "__main__":
    GOLDEN.write_text(
        "{\n"
        + ",\n".join(
            f" {json.dumps(key)}: {json.dumps(greedy_placement(*key.split('/')))}"
            for key in KEYS
        )
        + "\n}\n"
    )
