"""Differential property test: every sparse feasibility build == dense.

The CSR builders (:meth:`LatencyModel.feasibility_sparse`, with and
without the expected-order hint, and
:meth:`LatencyModel.feasibility_sparse_chunked`) must produce exactly
``SparseFeasibility.from_dense(latency.feasibility(rates))`` and scatter
back to the dense tensor itself. Inputs are adversarial: co-located
servers (tied per-bit times), deadlines equal to a latency bit for bit,
all-infeasible and all-feasible instances, single server/user/model
shapes, and expected as well as Rayleigh-faded rates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sparse import SparseFeasibility
from repro.network.channel import ChannelModel
from repro.network.geometry import Point
from repro.network.latency import LatencyModel
from repro.network.servers import EdgeServer
from repro.network.topology import NetworkTopology
from repro.network.users import UserBatch
from repro.utils.units import MB

SERVER_SPOTS = [(0.0, 0.0), (300.0, 0.0), (0.0, 300.0)]
#: The last spot is out of every server spot's 275 m coverage radius.
USER_SPOTS = [(50.0, 0.0), (150.0, 100.0), (250.0, 0.0), (0.0, 200.0), (900.0, 900.0)]
MODES = ["random", "exact", "infeasible", "feasible"]


def _topology(servers, users, deadlines, inference):
    return NetworkTopology(
        [
            EdgeServer(server_id=index, position=Point(*spot))
            for index, spot in enumerate(servers)
        ],
        UserBatch(np.array(users, dtype=float), deadlines, inference),
    )


def _latency_model(case):
    """The case's LatencyModel and the rates its feasibility is built on."""
    servers, users, sizes, inference, deadlines, mode, fade_seed = case
    num_users, num_models = len(users), len(sizes)
    if mode == "infeasible":
        deadlines = np.full((num_users, num_models), 1e-12)
    elif mode == "feasible":
        deadlines = np.full((num_users, num_models), 1e9)
    topology = _topology(servers, users, deadlines, inference)
    rates = None
    if fade_seed is not None:
        gains = ChannelModel.sample_rayleigh_gains(
            (len(servers), num_users), np.random.default_rng(fade_seed)
        )
        rates = topology.faded_rates(gains)
    model = LatencyModel(topology, sizes)
    if mode == "exact":
        # Each (k, i) deadline is the latency of one server, bit for bit,
        # so that server's entry sits exactly on the `<=` boundary.
        user_index, model_index = np.indices((num_users, num_models))
        pick = (user_index + model_index) % len(servers)
        hit = model.latency(rates)[pick, user_index, model_index]
        deadlines = np.where(np.isfinite(hit), hit, deadlines)
        model = LatencyModel(_topology(servers, users, deadlines, inference), sizes)
    return model, rates


def check_every_build_matches_dense(case):
    model, rates = _latency_model(case)
    dense = model.feasibility(rates)
    reference = SparseFeasibility.from_dense(dense)
    num_users = dense.shape[1]
    builds = {
        "sparse": model.feasibility_sparse(rates),
        "hinted": model.feasibility_sparse(
            rates, server_order_hint=model.expected_server_order()
        ),
    }
    for chunk_size in sorted({1, 3, num_users}):
        builds[f"chunk{chunk_size}"] = model.feasibility_sparse_chunked(
            chunk_size, rates
        )
    for name, built in builds.items():
        assert built == reference, name
        assert np.array_equal(built.to_dense(), dense), name
        assert built.pair_indptr.dtype == np.int64, name
        assert built.entry_users.dtype == np.int32, name
        assert built.entry_servers.dtype == np.int32, name
    if case[5] == "infeasible":
        assert reference.nnz == 0
    if case[5] == "feasible" and model.topology.coverage_mask.any(axis=0).all():
        assert reference.nnz == dense.size
    if case[5] == "exact":
        # Every finite picked latency became its own deadline, bit for bit:
        # those entries sit on the `<=` boundary and must be feasible.
        latency = model.latency(rates)
        boundary = latency == model.deadlines[None, :, :]
        assert boundary.any() or not np.isfinite(latency).any()
        assert dense[boundary].all()


@st.composite
def cases(draw):
    num_servers = draw(st.integers(1, 4))
    num_users = draw(st.integers(1, 6))
    num_models = draw(st.integers(1, 4))
    if draw(st.booleans()):
        servers = [SERVER_SPOTS[0]] * num_servers  # co-located: tied per-bit times
    else:
        servers = draw(
            st.lists(st.sampled_from(SERVER_SPOTS), min_size=num_servers,
                     max_size=num_servers)
        )
    users = draw(
        st.lists(st.sampled_from(USER_SPOTS), min_size=num_users,
                 max_size=num_users)
    )
    sizes = np.array(
        draw(
            st.lists(st.sampled_from([1.0, 5.0, 20.0, 80.0]),
                     min_size=num_models, max_size=num_models)
        )
    ) * MB
    grid = st.lists(
        st.lists(st.floats(0.0, 0.05), min_size=num_models, max_size=num_models),
        min_size=num_users,
        max_size=num_users,
    )
    inference = np.array(draw(grid)).reshape(num_users, num_models)
    deadlines = np.array(
        draw(
            st.lists(
                st.lists(st.floats(0.01, 2.0), min_size=num_models,
                         max_size=num_models),
                min_size=num_users,
                max_size=num_users,
            )
        )
    ).reshape(num_users, num_models)
    mode = draw(st.sampled_from(MODES))
    fade_seed = draw(st.one_of(st.none(), st.integers(0, 2**16)))
    return servers, users, sizes, inference, deadlines, mode, fade_seed


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_sparse_builds_equal_dense(case):
    check_every_build_matches_dense(case)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fade_seed", [None, 5])
@pytest.mark.parametrize(
    "num_servers, num_users, num_models", [(1, 4, 3), (3, 1, 3), (3, 4, 1), (1, 1, 1)]
)
def test_single_server_user_and_model(
    num_servers, num_users, num_models, mode, fade_seed
):
    rng = np.random.default_rng(num_servers * 100 + num_users * 10 + num_models)
    case = (
        SERVER_SPOTS[:num_servers],
        [USER_SPOTS[k % 4] for k in range(num_users)],
        rng.choice([1.0, 20.0, 80.0], size=num_models) * MB,
        rng.uniform(0.0, 0.05, size=(num_users, num_models)),
        rng.uniform(0.01, 2.0, size=(num_users, num_models)),
        mode,
        fade_seed,
    )
    check_every_build_matches_dense(case)
