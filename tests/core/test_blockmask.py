"""Tests for the dense block-membership index and server block cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blockmask import BlockMaskIndex, ServerBlockCache
from repro.core.dp import enumerate_shared_combinations
from repro.core.gen import greedy_place
from repro.core.objective import CoverageTracker
from repro.core.placement import PlacementInstance
from repro.core.spec import _SubproblemContext
from repro.models.blocks import ParameterBlock
from repro.models.generators import (
    GeneralCaseConfig,
    SpecialCaseConfig,
    build_general_case_library,
    build_special_case_library,
)
from repro.models.library import ModelLibrary
from repro.models.model import Model
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import build_scenario
from repro.utils.units import MB


def random_instance(rng, num_models=8, num_blocks=20, num_servers=3):
    blocks = [
        ParameterBlock(b, int(rng.integers(1, 64))) for b in range(num_blocks)
    ]
    models = []
    for i in range(num_models):
        count = int(rng.integers(1, 6))
        chosen = sorted(
            set(int(x) for x in rng.integers(0, num_blocks, size=count))
        )
        models.append(Model(i, tuple(chosen)))
    library = ModelLibrary(blocks, models)
    demand = rng.random((4, num_models)) + 0.01
    feasible = rng.random((num_servers, 4, num_models)) < 0.6
    capacities = [int(rng.integers(0, 400)) for _ in range(num_servers)]
    return PlacementInstance(library, demand, feasible, capacities)


def marginal_sizes(index, cached_mask):
    """``(I,)`` marginal bytes of every model on top of ``cached_mask``."""
    return (index.member & ~cached_mask) @ index.sizes


def union_size(index, model_indices):
    """Deduplicated footprint of a set of models (``g_m``)."""
    indices = list(model_indices)
    if not indices:
        return 0
    return int(index.sizes[index.member[indices].any(axis=0)].sum())


def block_membership(library):
    """``(I, B)`` bool model -> block membership, scattered from the
    library's CSR."""
    indptr, positions = library.membership
    member = np.zeros((library.num_models, library.num_blocks), dtype=bool)
    rows = np.repeat(np.arange(library.num_models), np.diff(indptr))
    member[rows, positions] = True
    return member


def assert_classes_expand_to_blocks(index, library):
    """The class index is a lossless grouping of the library's blocks:
    expanding every class to its blocks gives the CSR membership back,
    each class is non-empty and weighs its blocks' exact byte sum, and
    no two classes have the same owners (blocks with equal owner sets
    share one class)."""
    assert index.block_class.shape == (library.num_blocks,)
    assert np.array_equal(
        index.member[:, index.block_class], block_membership(library)
    )
    counts = np.bincount(index.block_class, minlength=index.num_classes)
    assert counts.size == index.num_classes and (counts > 0).all()
    block_sizes = library.block_size_array.tolist()
    block_class = index.block_class.tolist()
    assert index.sizes.dtype == np.int64
    assert index.sizes.tolist() == [
        sum(size for size, c in zip(block_sizes, block_class) if c == cls)
        for cls in range(index.num_classes)
    ]
    assert int(index.sizes.sum()) == sum(block_sizes)
    owner_sets = {row.tobytes() for row in index.member_t}
    assert len(owner_sets) == index.num_classes


class TestBlockMaskIndex:
    def test_membership_matches_model_blocks(self, tiny_instance):
        index = tiny_instance.block_index
        library = tiny_instance.library
        block_ids = np.array(library.block_ids)
        for model_index in range(tiny_instance.num_models):
            owned = np.flatnonzero(index.member[model_index])
            blocks = block_ids[np.isin(index.block_class, owned)]
            assert frozenset(blocks.tolist()) == (
                tiny_instance.model_blocks[model_index]
            )
        # Block 0 is shared by models 0 and 1, blocks 1 and 2 are their
        # heads, and blocks 3 and 4 (model 2 alone) form one class.
        block_class = index.block_class.tolist()
        assert index.num_classes == len(set(block_class[:4])) == 4
        assert block_class[3] == block_class[4]
        assert index.sizes[index.block_class].tolist() == [
            10 * MB, 5 * MB, 5 * MB, 10 * MB, 10 * MB
        ]
        assert_classes_expand_to_blocks(index, library)

    def test_model_sizes_match_library(self, tiny_instance):
        index = tiny_instance.block_index
        assert np.array_equal(index.model_sizes, tiny_instance.model_sizes)

    def test_marginal_sizes_match_set_walk(self):
        # A cache holds whole models, so the cached sets a marginal is
        # ever taken against are unions of model block sets.
        rng = np.random.default_rng(0)
        for _ in range(25):
            instance = random_instance(rng)
            index = instance.block_index
            assert_classes_expand_to_blocks(index, instance.library)
            cached_models = rng.choice(
                instance.num_models,
                size=rng.integers(0, instance.num_models + 1),
                replace=False,
            )
            cached_ids = set()
            for model_index in cached_models:
                cached_ids |= instance.model_blocks[model_index]
            cached_mask = index.member[cached_models].any(axis=0)
            vectorised = marginal_sizes(index, cached_mask)
            for model_index in range(instance.num_models):
                expected = instance.marginal_storage(model_index, cached_ids)
                assert vectorised[model_index] == expected

    def test_union_size_matches_dedup(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            instance = random_instance(rng)
            index = instance.block_index
            subset = [
                int(i)
                for i in rng.choice(
                    instance.num_models,
                    size=rng.integers(0, instance.num_models + 1),
                    replace=False,
                )
            ]
            assert union_size(index, subset) == instance.dedup_storage(subset)

    def test_block_index_cached_on_instance(self, tiny_instance):
        assert tiny_instance.block_index is tiny_instance.block_index


class TestServerBlockCache:
    def test_incremental_matches_set_walk(self):
        """A random placement sequence keeps masks/used/extras exact."""
        rng = np.random.default_rng(2)
        for _ in range(20):
            instance = random_instance(rng)
            index = instance.block_index
            cache = ServerBlockCache(index, instance.num_servers)
            reference_blocks = [set() for _ in range(instance.num_servers)]
            placed = [[] for _ in range(instance.num_servers)]
            for _ in range(12):
                server = int(rng.integers(0, instance.num_servers))
                model_index = int(rng.integers(0, instance.num_models))
                expected_extra = instance.marginal_storage(
                    model_index, reference_blocks[server]
                )
                assert cache.marginal(server, model_index) == expected_extra
                added = cache.add(server, model_index)
                assert added == expected_extra
                reference_blocks[server] |= instance.model_blocks[model_index]
                placed[server].append(model_index)
                assert cache.used[server] == instance.dedup_storage(
                    placed[server]
                )
                row = cache.marginal_row(server)
                for other in range(instance.num_models):
                    assert row[other] == instance.marginal_storage(
                        other, reference_blocks[server]
                    )

    def test_add_is_idempotent(self, tiny_instance):
        cache = ServerBlockCache(tiny_instance.block_index, 2)
        first = cache.add(0, 0)
        assert first == 15 * MB
        assert cache.add(0, 0) == 0
        assert cache.used[0] == 15 * MB

    def test_shared_block_discount(self, tiny_instance):
        # Models 0 and 1 share the 10 MB base block.
        cache = ServerBlockCache(tiny_instance.block_index, 2)
        cache.add(0, 0)
        assert cache.marginal(0, 1) == 5 * MB
        assert cache.add(0, 1) == 5 * MB
        assert cache.used[0] == 20 * MB


class TestPaperScaleCache:
    """The incremental cache on the paper's 300-model general-case library.

    ~3,444 blocks in sibling families that share frozen prefixes, so adds
    hit the partial-overlap path (some of a model's blocks already cached)
    as well as re-adds and the fully fresh path.
    """

    def test_incremental_cache_matches_recompute(self):
        library = build_general_case_library(
            GeneralCaseConfig(num_models=300), seed=0
        )
        index = BlockMaskIndex(library)
        num_servers = 3
        cache = ServerBlockCache(index, num_servers)
        placed = np.zeros((num_servers, library.num_models), dtype=bool)
        rng = np.random.default_rng(17)
        partial = readds = 0
        for step in range(120):
            server = int(rng.integers(num_servers))
            if step % 6 == 5 and placed[server].any():
                model_index = int(rng.choice(np.flatnonzero(placed[server])))
                readds += 1
            else:
                model_index = int(rng.integers(library.num_models))
            expected = int(cache.extras[server, model_index])
            added = cache.add(server, model_index)
            assert added == expected
            partial += 0 < added < index.model_sizes[model_index]
            placed[server, model_index] = True
            assert np.array_equal(
                cache.extras[server], marginal_sizes(index, cache.masks[server])
            )
            assert cache.used[server] == union_size(
                index, np.flatnonzero(placed[server])
            )
        assert partial > 0 and readds > 0
        rebuilt = ServerBlockCache.from_placement(index, placed)
        assert np.array_equal(rebuilt.masks, cache.masks)
        assert np.array_equal(rebuilt.used, cache.used)
        assert np.array_equal(rebuilt.extras, cache.extras)


class TestCompactIndex:
    """``member_t`` is bool; its products stay exact int64.

    Checked against set arithmetic on the instance's ``model_blocks``
    frozensets, on the general case at I=300 (families sharing frozen
    prefixes) and on a server whose capacity is exactly one model's
    block sum.
    """

    @pytest.fixture
    def instance(self):
        config = ScenarioConfig(
            num_servers=3, num_users=20, num_models=300,
            requests_per_user=30, library_case="general",
        )
        return build_scenario(config, seed=7).instance

    @staticmethod
    def overlap_reference(instance, model_index, cached=frozenset()):
        """Bytes each model shares with ``model_index``'s blocks that
        are not already in ``cached`` (the set-walk drop in marginals)."""
        fresh = instance.model_blocks[model_index] - cached
        sizes = instance.block_sizes
        return [
            sum(sizes[b] for b in fresh & blocks)
            for blocks in instance.model_blocks
        ]

    def test_member_t_is_bool_and_compact(self, instance):
        index = instance.block_index
        member_t = index.member_t
        assert member_t.dtype == bool
        assert member_t.nbytes == index.num_classes * index.num_models
        assert index.num_classes < instance.library.num_blocks
        assert member_t.flags.c_contiguous
        assert np.array_equal(member_t, index.member.T)

    def test_full_overlap_matches_set_reference(self, instance):
        index = instance.block_index
        for model_index in range(0, instance.num_models, 7):
            overlap = index.full_overlap(model_index)
            assert overlap.dtype == np.int64
            assert overlap.tolist() == self.overlap_reference(
                instance, model_index
            )

    def test_cache_extras_match_set_reference(self, instance):
        index = instance.block_index
        cache = ServerBlockCache(index, 1)
        cached = frozenset()
        rng = np.random.default_rng(3)
        for model_index in rng.choice(instance.num_models, 25, replace=False):
            before = cache.extras[0].copy()
            drop = self.overlap_reference(instance, int(model_index), cached)
            cache.add(0, int(model_index))
            cached |= instance.model_blocks[model_index]
            assert cache.extras.dtype == np.int64
            assert (before - cache.extras[0]).tolist() == drop
            assert cache.extras[0].tolist() == [
                instance.marginal_storage(i, cached)
                for i in range(instance.num_models)
            ]

    def test_exact_fit_capacity(self, instance):
        index = instance.block_index
        model_index = int(np.argmax(instance.model_sizes))
        instance.set_capacity(0, int(instance.model_sizes[model_index]))
        cache = ServerBlockCache(index, instance.num_servers)
        assert cache.marginal(0, model_index) == instance.capacities[0]
        added = cache.add(0, model_index)
        assert added == cache.used[0] == instance.capacities[0]
        cached = instance.model_blocks[model_index]
        assert cache.extras[0].tolist() == [
            instance.marginal_storage(i, cached)
            for i in range(instance.num_models)
        ]
        # Exactly the models inside the cached blocks still fit.
        fits = cache.extras[0] <= instance.capacities[0] - cache.used[0]
        assert np.flatnonzero(fits).tolist() == [
            i for i, blocks in enumerate(instance.model_blocks)
            if blocks <= cached
        ]


def _shuffled_library(seed=5, num_models=12, num_blocks=40):
    """A library whose models list their blocks out of position order."""
    rng = np.random.default_rng(seed)
    blocks = [
        ParameterBlock(b, int(rng.integers(1, 64))) for b in range(num_blocks)
    ]
    models = [
        Model(i, tuple(int(b) for b in rng.permutation(num_blocks)[: 2 + i % 7]))
        for i in range(num_models)
    ]
    return ModelLibrary(blocks, models)


class TestIndexStructure:
    """The class index equals its definition on real libraries."""

    LIBRARIES = {
        "general-I300": lambda: build_general_case_library(
            GeneralCaseConfig(num_models=300), seed=0
        ),
        "special-I30": lambda: build_special_case_library(
            SpecialCaseConfig(num_models=30), seed=1
        ),
        "shuffled": _shuffled_library,
    }

    @pytest.mark.parametrize("name", sorted(LIBRARIES))
    def test_member_t_and_model_positions(self, name):
        library = self.LIBRARIES[name]()
        index = BlockMaskIndex(library)
        member = index.member
        assert member.dtype == bool
        assert member.shape == (library.num_models, index.num_classes)
        assert index.member_t.dtype == bool
        assert np.array_equal(index.member_t, member.T)
        assert_classes_expand_to_blocks(index, library)
        pos_of = {block_id: pos for pos, block_id in enumerate(library.block_ids)}
        block_class = index.block_class.tolist()
        for i, model in enumerate(library.models()):
            expected = sorted(
                {block_class[pos_of[block_id]] for block_id in model.block_ids}
            )
            assert index.model_positions[i].tolist() == expected
            assert np.flatnonzero(member[i]).tolist() == expected


class _ArrayLibrary:
    """The arrays :class:`BlockMaskIndex` reads from a library, built
    directly, so blocks may have size 0 (``ParameterBlock`` refuses it)."""

    def __init__(self, sizes, models):
        self.block_size_array = np.asarray(sizes, dtype=np.int64)
        self.num_blocks = len(sizes)
        self.num_models = len(models)
        indptr = np.zeros(len(models) + 1, dtype=np.int64)
        np.cumsum([len(m) for m in models], out=indptr[1:])
        positions = np.asarray([b for m in models for b in m], dtype=np.int64)
        self.membership = (indptr, positions)
        self.model_size_array = np.asarray(
            [int(self.block_size_array[m].sum()) for m in models], dtype=np.int64
        )


@st.composite
def _delta_table_case(draw):
    """A block library (zero-size blocks allowed, one model built from a
    subset of another's blocks) and per-clone add sequences."""
    num_blocks = draw(st.integers(1, 10))
    sizes = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(1, 50)),
            min_size=num_blocks,
            max_size=num_blocks,
        )
    )
    block_sets = st.lists(
        st.integers(0, num_blocks - 1), min_size=1, max_size=num_blocks, unique=True
    ).map(sorted)
    models = draw(st.lists(block_sets, min_size=1, max_size=6))
    parent = draw(st.sampled_from(models))
    models.append(sorted(draw(st.sets(st.sampled_from(parent), min_size=1))))
    num_servers = draw(st.integers(1, 3))
    step = st.tuples(
        st.integers(0, num_servers - 1), st.integers(0, len(models) - 1)
    )
    sequences = draw(
        st.lists(st.lists(step, max_size=14), min_size=2, max_size=4)
    )
    return sizes, models, num_servers, sequences


class TestSharedDeltaTable:
    """Clones of one resident cache share its delta table; every clone
    must stay exactly equal to a from-scratch recompute, and the base
    cache must never change."""

    @settings(max_examples=150, deadline=None)
    @given(_delta_table_case())
    def test_clones_match_recompute_after_every_add(self, case):
        sizes, models, num_servers, sequences = case
        index = BlockMaskIndex(_ArrayLibrary(sizes, models))
        base = ServerBlockCache.resident(index, num_servers)
        snapshot = (base.masks.copy(), base.used.copy(), base.extras.copy())
        clones = [base.clone() for _ in sequences]
        placed = [np.zeros((num_servers, len(models)), dtype=bool) for _ in clones]
        # Interleave the clones so one clone's stored deltas are read
        # by the others.
        for turn in range(max(len(sequence) for sequence in sequences)):
            for clone, sequence, mask in zip(clones, sequences, placed):
                if turn >= len(sequence):
                    continue
                server, model_index = sequence[turn]
                expected = int(clone.extras[server, model_index])
                assert clone.add(server, model_index) == expected
                mask[server, model_index] = True
                assert np.array_equal(
                    clone.extras[server],
                    marginal_sizes(index, clone.masks[server]),
                )
                assert clone.used[server] == union_size(
                    index, np.flatnonzero(mask[server])
                )
                assert np.array_equal(
                    clone.masks[server], index.member[mask[server]].any(axis=0)
                )
        for clone, mask in zip(clones, placed):
            plain = ServerBlockCache.from_placement(index, mask)
            assert np.array_equal(clone.masks, plain.masks)
            assert np.array_equal(clone.used, plain.used)
            assert np.array_equal(clone.extras, plain.extras)
        assert np.array_equal(base.masks, snapshot[0])
        assert np.array_equal(base.used, snapshot[1])
        assert np.array_equal(base.extras, snapshot[2])

    def test_full_table_stops_storing_and_stays_exact(self, monkeypatch):
        from repro.core import blockmask

        rng = np.random.default_rng(6)
        instance = random_instance(rng, num_models=8, num_blocks=12)
        index = instance.block_index
        # Room for two deltas.
        monkeypatch.setattr(blockmask, "DELTA_TABLE_BYTES", 2 * 8 * index.num_models)
        base = ServerBlockCache.resident(index, instance.num_servers)
        steps = [
            (int(rng.integers(instance.num_servers)), int(rng.integers(8)))
            for _ in range(30)
        ]
        for _ in range(2):
            clone = base.clone()
            placed = np.zeros((instance.num_servers, 8), dtype=bool)
            for server, model_index in steps:
                clone.add(server, model_index)
                placed[server, model_index] = True
            plain = ServerBlockCache.from_placement(index, placed)
            assert np.array_equal(clone.extras, plain.extras)
            assert np.array_equal(clone.used, plain.used)
            assert len(base._deltas) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_greedy_on_clones_equals_plain_cache_at_exact_fit(self, seed):
        # Each server's capacity is exactly one model's size, so the
        # greedy's `<=` fit test is met at equality; re-solves on clones
        # of one resident cache (demand rescaled between them) must
        # place exactly what a plain cache places.
        rng = np.random.default_rng(seed)
        instance = random_instance(rng)
        for server in range(instance.num_servers):
            model_index = int(rng.integers(instance.num_models))
            instance.set_capacity(server, int(instance.model_sizes[model_index]))
        index = instance.block_index
        base = ServerBlockCache.resident(index, instance.num_servers)
        for _ in range(3):
            instance.demand[...] = rng.random(instance.demand.shape) + 0.01
            clone = base.clone()
            shared, _ = greedy_place(
                instance, CoverageTracker(instance), clone
            )
            plain = ServerBlockCache(index, instance.num_servers)
            alone, _ = greedy_place(
                instance, CoverageTracker(instance), plain
            )
            assert np.array_equal(shared.matrix, alone.matrix)
            assert np.array_equal(clone.extras, plain.extras)
            assert np.array_equal(clone.used, plain.used)
        assert not base.masks.any() and not base.used.any()
        assert np.array_equal(
            base.extras, np.tile(index.model_sizes, (instance.num_servers, 1))
        )


def _block_library(sizes, block_lists):
    """A library with blocks ``0..len(sizes)-1`` and model ``i`` owning
    ``block_lists[i]``."""
    blocks = [ParameterBlock(b, size) for b, size in enumerate(sizes)]
    models = [Model(i, tuple(ids)) for i, ids in enumerate(block_lists)]
    return ModelLibrary(blocks, models)


def _nested_library():
    """Model ``i`` owns blocks ``0..i``, so block ``b``'s owners are
    models ``b..7``: every block has its own owner set (C == B)."""
    return _block_library(
        [3, 1, 4, 1, 5, 9, 2, 6], [list(range(i + 1)) for i in range(8)]
    )


def _twin_library():
    """Models 0 and 1 own exactly the same blocks."""
    return _block_library([7, 2, 5, 3], [[0, 1, 2], [0, 1, 2], [2, 3]])


def _collapsed_library():
    """Four shared blocks in one class (all owned by models 0 and 1) and
    two in another (models 2 and 3), beside one specific block each."""
    return _block_library(
        [10, 20, 30, 40, 5, 6, 50, 60, 7, 8],
        [[0, 1, 2, 3, 4], [0, 1, 2, 3, 5], [6, 7, 8], [6, 7, 9]],
    )


def _zero_size_library():
    """Zero-size blocks, shared and specific, beside sized ones."""
    return _ArrayLibrary(
        [0, 4, 0, 7, 0, 2], [[0, 1, 2], [0, 1, 3], [4, 5], [2, 4]]
    )


def _set_walk(library):
    """Per model, its block-position set, and the block sizes, read off
    the library's CSR: the reference the class index must agree with."""
    indptr, positions = library.membership
    blocks = [
        frozenset(positions[indptr[i] : indptr[i + 1]].tolist())
        for i in range(library.num_models)
    ]
    return blocks, library.block_size_array.tolist()


class TestBlockClasses:
    """Block classes on libraries where they collapse a lot, not at all,
    or trap a per-block lookup: every storage figure equals the set walk
    over blocks."""

    LIBRARIES = {
        "general-I300": TestIndexStructure.LIBRARIES["general-I300"],
        "special-I30": TestIndexStructure.LIBRARIES["special-I30"],
        "shuffled": _shuffled_library,
        "zero-size": _zero_size_library,
        "nested": _nested_library,
        "twins": _twin_library,
        "collapsed": _collapsed_library,
    }

    def test_each_block_its_own_class(self):
        library = _nested_library()
        index = BlockMaskIndex(library)
        assert index.num_classes == library.num_blocks
        assert sorted(index.block_class.tolist()) == list(range(library.num_blocks))
        assert np.array_equal(
            index.member[:, index.block_class], block_membership(library)
        )
        assert np.array_equal(
            index.sizes[index.block_class], library.block_size_array
        )

    def test_identical_models_share_every_class(self):
        index = BlockMaskIndex(_twin_library())
        block_class = index.block_class.tolist()
        assert index.num_classes == len(set(block_class)) == 3
        assert block_class[0] == block_class[1]
        assert index.sizes[index.block_class].tolist() == [9, 9, 5, 3]
        assert np.array_equal(index.member[0], index.member[1])
        assert index.full_overlap(0).tolist() == [14, 14, 5]

    @pytest.mark.parametrize("name", sorted(LIBRARIES))
    def test_cache_matches_set_walk_after_random_adds(self, name):
        library = self.LIBRARIES[name]()
        index = BlockMaskIndex(library)
        assert_classes_expand_to_blocks(index, library)
        blocks, sizes = _set_walk(library)
        num_models = library.num_models
        num_servers = 2
        cache = ServerBlockCache(index, num_servers)
        cached = [set() for _ in range(num_servers)]
        rng = np.random.default_rng(sum(map(ord, name)))
        # Check every model's marginal after each add; at I=300 a
        # sample of them keeps the set walk cheap.
        probes = range(0, num_models, max(1, num_models // 40))
        for _ in range(min(30, 3 * num_models)):
            server = int(rng.integers(num_servers))
            model_index = int(rng.integers(num_models))
            expected = sum(sizes[b] for b in blocks[model_index] - cached[server])
            assert cache.add(server, model_index) == expected
            cached[server] |= blocks[model_index]
            assert cache.used[server] == sum(sizes[b] for b in cached[server])
            row = cache.marginal_row(server)
            for other in probes:
                assert row[other] == sum(
                    sizes[b] for b in blocks[other] - cached[server]
                )

    @settings(max_examples=60, deadline=None)
    @given(_delta_table_case())
    def test_zero_size_blocks_match_set_walk(self, case):
        sizes, models, num_servers, sequences = case
        library = _ArrayLibrary(sizes, models)
        index = BlockMaskIndex(library)
        assert_classes_expand_to_blocks(index, library)
        blocks, _ = _set_walk(library)
        cache = ServerBlockCache(index, num_servers)
        cached = [set() for _ in range(num_servers)]
        for server, model_index in (step for seq in sequences for step in seq):
            assert cache.add(server, model_index) == sum(
                sizes[b] for b in blocks[model_index] - cached[server]
            )
            cached[server] |= blocks[model_index]
            assert cache.extras[server].tolist() == [
                sum(sizes[b] for b in owned - cached[server]) for owned in blocks
            ]

    @pytest.mark.parametrize(
        "name", ["special-I30", "shuffled", "nested", "twins", "collapsed"]
    )
    def test_spec_specific_weights_match_sets(self, name):
        library = self.LIBRARIES[name]()
        if name == "collapsed":
            # Several shared blocks per class: a per-block column lookup
            # would count each class once per block.
            index = BlockMaskIndex(library)
            shared = sorted(library.shared_block_ids)
            assert len(set(index.block_class[shared].tolist())) < len(shared)
        models = library.models()
        owners = {}
        for model in models:
            for block_id in model.block_ids:
                owners[block_id] = owners.get(block_id, 0) + 1
        shared_ids = {b for b, count in owners.items() if count > 1}
        expected = [
            library.model_size(model.model_id)
            - sum(library.block_size(b) for b in model.block_set & shared_ids)
            for model in models
        ]
        num_models = library.num_models
        instance = PlacementInstance(
            library,
            np.ones((1, num_models)),
            np.ones((1, 1, num_models), dtype=bool),
            [10**6],
        )
        combos = enumerate_shared_combinations(library)
        weights = _SubproblemContext(instance, combos).specific_weight
        assert weights.dtype == np.int64
        assert weights.tolist() == expected
