"""Warm re-solve engines for the serving layer.

The repo invariant — serve answers must be ``==``-identical to solving the
mutated scenario from scratch — rules out approximate patching. Instead,
the service records a *trace* of the greedy solve (one
:class:`TraceStep` per placement: the chosen flat index, its exact masked
value, an upper bound on every other pair's masked value, and the bytes
consumed) and, after an event that only touched demand columns ``C``,
*replays* the trace:

* a step whose chosen pair lies **outside** ``C`` is re-accepted when the
  best value inside the changed region stays below the step's recorded
  value (or ties and loses the row-major tie-break) — everything outside
  the region is untouched, so the original argmax still wins;
* a step whose chosen pair lies **inside** ``C`` is re-accepted when it is
  still the region's best and strictly beats the recorded bound on the
  rest of the matrix;
* anything inconclusive falls back to :func:`full_solve` — a fresh
  recorded greedy over a clone of the resident base tracker, which is
  trivially exact.

Accepted steps replay their exact side effects (block-cache add, capacity
decrement, column-kernel mark on changed columns), so after a fully
accepted trace the tracker state *is* the from-scratch greedy's state bit
for bit, and the greedy simply continues from there to pick up any new
placements the mutation enabled. Exactness is enforced by the pinned
equivalence suite in ``tests/serve/``; :func:`resolve_from_scratch` is the
reference it compares against (it re-derives feasibility, instance and
solve per event, sharing the instance mutators so the demand bits match).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.blockmask import ServerBlockCache
from repro.core.independent import IndependentCaching
from repro.core.gen import TrimCachingGen
from repro.core.objective import CoverageTracker, hit_ratio
from repro.core.placement import Placement, PlacementInstance
from repro.errors import ServeError
from repro.network.latency import LatencyModel
from repro.serve.events import Event, apply_event

#: Solvers the serving layer supports: the greedy pair solvers that run on
#: the maintained CoverageTracker gain matrix. ("gen" = deduplicated
#: storage via ServerBlockCache; "independent" = full model sizes.)
SERVE_SOLVERS = ("gen", "independent")

#: Tracker engines the service runs: the explicit coverage engines, whose
#: gain bits the trace replay compares against recorded values. "auto" is
#: not accepted: a service names the engine its recorded trace came from.
SERVE_ENGINES = ("dense", "sparse")


def check_serve_config(solver: str, engine: str) -> None:
    """Raise :class:`ServeError` unless the service can run this pair."""
    if solver not in SERVE_SOLVERS:
        raise ServeError(f"serving supports solvers {SERVE_SOLVERS}, got {solver!r}")
    if engine not in SERVE_ENGINES:
        raise ServeError(f"serving supports engines {SERVE_ENGINES}, got {engine!r}")


@dataclass(frozen=True)
class TraceStep:
    """One accepted greedy placement, with enough to re-justify it.

    ``value`` is the chosen pair's *exact* masked value at selection time
    (kept exact across replays); ``bound`` upper-bounds every **other**
    pair's masked value at that moment, with the invariant that any pair
    attaining ``bound`` exactly has flat index ``>= runner`` — that second
    half is what lets the replay re-accept exact gain ties, which are
    common (servers covering identical user sets tie bit-for-bit).
    ``extra`` is the bytes the step consumed.
    """

    flat: int
    value: float
    bound: float
    runner: int
    extra: int


@dataclass
class SolveState:
    """Resident solution state: the placement plus everything needed to
    replay or extend its greedy trace.

    ``extras_log`` (dedup only) snapshots the marginal-size table *before*
    each step. Storage accounting is demand-independent — the table's
    evolution depends only on the placed-pair sequence — so as long as a
    replay re-accepts the same prefix, these snapshots are bit-exact and
    the replay never has to re-run the block-cache updates.
    """

    placement: Placement
    tracker: CoverageTracker  # post-solve tracker (marks applied)
    steps: List[TraceStep]
    remaining: np.ndarray  # (M, 1) int64 remaining bytes per server
    cache: Optional[ServerBlockCache]  # dedup storage table (gen only)
    hit_ratio: float
    extras_log: Optional[List[np.ndarray]] = None  # per-step (M, I) int64


def _final_hit_ratio(
    instance: PlacementInstance,
    tracker: CoverageTracker,
    placement: Placement,
    dedup: bool,
) -> float:
    # Mirror each solver's own computation so serve answers are `==` to
    # SolverResult.hit_ratio: Gen reads the tracker, Independent
    # recomputes from the placement.
    if dedup:
        return tracker.hit_ratio()
    return hit_ratio(instance, placement)


def _greedy_record(
    instance: PlacementInstance,
    tracker: CoverageTracker,
    cache: Optional[ServerBlockCache],
    remaining: np.ndarray,
    placement: Placement,
    steps: List[TraceStep],
    extras_log: Optional[List[np.ndarray]] = None,
) -> None:
    """The solvers' masked-argmax greedy loop, recording each step.

    Byte-identical control flow to ``TrimCachingGen._solve_vectorized``
    (``cache`` set) / ``IndependentCaching.solve`` (``cache`` None): same
    masked candidate matrix, same ``np.argmax`` first-maximiser tie-break,
    same stop test. The only additions are reads: the chosen value and the
    second-best masked value (the recorded bound).
    """
    gains = tracker.gain_matrix_view()
    sizes = instance.model_sizes
    placed = placement.matrix
    num_models = instance.num_models
    extras = (
        cache.extras
        if cache is not None
        else np.broadcast_to(sizes, (instance.num_servers, num_models))
    )
    # The masked candidate matrix `where(fit, gains, -1)` is maintained
    # incrementally: a placement at (s, m) only changes column m (the
    # kernel mark), row s of the extras (dedup marginals), and row s of
    # `remaining` — every other entry is bit-identical to a full rebuild,
    # so argmax (and its first-maximiser tie-break) is unaffected.
    values = np.where(extras <= remaining, gains, -1.0)
    values_flat = values.reshape(-1)  # contiguous view: writes pass through
    while True:
        flat = int(values.argmax())
        server, model_index = divmod(flat, num_models)
        if (
            gains[server, model_index] <= 0.0
            or extras[server, model_index] > remaining[server, 0]
        ):
            break
        chosen = float(values_flat[flat])
        values_flat[flat] = -np.inf
        runner = int(values.argmax())
        bound = float(values_flat[runner])
        placed[server, model_index] = True
        if cache is not None:
            if extras_log is not None:
                extras_log.append(extras.copy())
            extra = cache.add(server, model_index)
        else:
            extra = int(sizes[model_index])
        remaining[server, 0] -= extra
        tracker.mark_served(server, model_index)
        steps.append(TraceStep(flat, chosen, bound, runner, extra))
        # Refresh the touched column and row (this also overwrites the
        # -inf poked in at `flat` for the runner-up scan).
        values[:, model_index] = np.where(
            extras[:, model_index] <= remaining[:, 0],
            gains[:, model_index],
            -1.0,
        )
        values[server, :] = np.where(
            extras[server, :] <= remaining[server, 0],
            gains[server, :],
            -1.0,
        )


def recorded_solve(
    instance: PlacementInstance, tracker: CoverageTracker, dedup: bool
) -> SolveState:
    """A full greedy solve that also records its trace.

    ``tracker`` must be unmarked (fresh or a clone of the resident base
    tracker); it is consumed — marks are applied in place.
    """
    placement = instance.new_placement()
    cache = (
        ServerBlockCache(instance.block_index, instance.num_servers)
        if dedup
        else None
    )
    remaining = instance.capacities.astype(np.int64)[:, None].copy()
    steps: List[TraceStep] = []
    extras_log: Optional[List[np.ndarray]] = [] if dedup else None
    _greedy_record(
        instance, tracker, cache, remaining, placement, steps, extras_log
    )
    return SolveState(
        placement=placement,
        tracker=tracker,
        steps=steps,
        remaining=remaining,
        cache=cache,
        hit_ratio=_final_hit_ratio(instance, tracker, placement, dedup),
        extras_log=extras_log,
    )


def full_solve(
    instance: PlacementInstance, base_tracker: CoverageTracker, dedup: bool
) -> SolveState:
    """Warm full re-solve: fresh greedy over a clone of the base tracker.

    The base tracker is kept in sync with the instance's demand (column
    refreshes per event), so its clone equals a fresh
    ``CoverageTracker(instance)`` bit for bit — this is exactly solving
    the mutated scenario, minus the feasibility rebuild.
    """
    return recorded_solve(instance, base_tracker.clone(), dedup)


def patch_solve(
    instance: PlacementInstance,
    base_tracker: CoverageTracker,
    prev: SolveState,
    changed_columns: np.ndarray,
    dedup: bool,
) -> Tuple[SolveState, dict]:
    """Incremental re-solve after a demand change in ``changed_columns``.

    Replays the previous solve's trace, re-deciding each step from the
    changed region only (see module docstring); any inconclusive step
    falls back to :func:`full_solve`. The returned state is ``==`` to a
    from-scratch solve of the mutated instance in either mode; the info
    dict reports which path ran (``mode``: ``"replay"`` | ``"fallback"``)
    and how much of the trace survived.
    """
    columns = np.asarray(changed_columns, dtype=np.intp)
    if columns.size == 0:
        raise ServeError("patch_solve requires at least one changed column")
    if columns.size > 1 and np.any(np.diff(columns) <= 0):
        # The instance mutators already return sorted-unique columns; only
        # pay for np.unique when a caller hands us something else.
        columns = np.unique(columns)
    num_models = instance.num_models
    num_servers = instance.num_servers
    in_region = np.zeros(num_models, dtype=bool)
    in_region[columns] = True

    # Full clone of the (already refreshed) base tracker. Only the changed
    # columns are read or marked during replay — the others are stale
    # mid-replay but never consulted. They are reconciled at the end:
    # composed from the previous solve's tracker when the whole trace is
    # re-accepted (their demand did not change, so the old marks produced
    # the identical state), or promoted by applying the accepted prefix's
    # out-of-region marks when the replay stops early (column marks are
    # order-independent: the final column state depends only on the set
    # of marked pairs).
    clone = base_tracker.clone()
    gains = clone.gain_matrix_view()
    sizes = instance.model_sizes
    remaining = instance.capacities.astype(np.int64)[:, None].copy()
    placement = instance.new_placement()
    placed = placement.matrix

    # The region candidate matrix `where(fit, gains, -1)[:, columns]` is
    # maintained incrementally across replayed steps: accepting a step at
    # (s, m) only changes gains column m (when marked), extras row s
    # (dedup marginals) and remaining[s] — every other region entry is
    # bit-identical to a rebuild, so the argmax scan (and its row-major
    # first-maximiser tie-break over the sorted columns) is unaffected.
    #
    # The extras come from the previous solve's per-step snapshots, not a
    # live block cache: the replayed prefix is the previous solve's pair
    # sequence, and storage accounting is demand-independent, so the
    # table evolves exactly as recorded. The cache itself is only
    # (re)built on the paths that need one going forward.
    num_cols = columns.size
    flat_columns = [int(column) for column in columns]
    col_of = np.full(num_models, -1, dtype=np.intp)
    col_of[columns] = np.arange(num_cols)
    num_steps = len(prev.steps)
    log = prev.extras_log if dedup else None
    if dedup:
        region_sizes = None
        values = (
            np.where(
                log[0][:, columns] <= remaining, gains[:, columns], -1.0
            )
            if num_steps
            else None
        )
    else:
        region_sizes = sizes[columns]
        values = np.where(region_sizes <= remaining, gains[:, columns], -1.0)

    new_steps: List[TraceStep] = []
    truncated = False
    diverged = False
    # C-contiguous view for cheap flat reads/writes in the hot loop
    # (np.where output is contiguous; row/column assignments write
    # through, so the view stays current).
    values_flat = values.reshape(-1) if values is not None else None
    # Contiguous mirror of gains[:, columns], kept in sync on in-region
    # marks — the per-step row refresh reads a contiguous row instead of
    # fancy-gathering from the full gain matrix.
    region_gains = (
        np.ascontiguousarray(gains[:, columns]) if values is not None else None
    )
    for index, step in enumerate(prev.steps):
        region_pos = int(values.argmax())
        region_value = values_flat[region_pos]
        flat = step.flat
        server, model_index = divmod(flat, num_models)
        if not in_region[model_index]:
            # Everything outside the region kept its masked value, so the
            # old argmax still wins iff the region's new best does not
            # overtake it (ties break row-major: lower flat index wins).
            # Fast path: strictly below the recorded bound (hence below
            # step.value too, since bound <= value is maintained) — the
            # step survives with bound and runner untouched.
            if region_value < step.bound:
                accepted = step
            else:
                region_row, region_col = divmod(region_pos, num_cols)
                region_flat = region_row * num_models + flat_columns[region_col]
                if region_value < step.value or (
                    region_value == step.value and flat < region_flat
                ):
                    if region_value > step.bound:
                        bound, runner = float(region_value), region_flat
                    else:  # == step.bound exactly
                        bound = step.bound
                        runner = min(step.runner, region_flat)
                    accepted = TraceStep(
                        flat, step.value, bound, runner, step.extra
                    )
                else:
                    diverged = True
                    break
        else:
            region_row, region_col = divmod(region_pos, num_cols)
            region_flat = region_row * num_models + flat_columns[region_col]
            stronger = region_value > step.bound or (
                region_value == step.bound and flat < step.runner
            )
            if region_flat == flat and region_value > 0.0 and stronger:
                # Still the region's first maximiser, and it beats every
                # pair outside the region too: strictly above the
                # recorded bound, or tying it while every possible
                # attainer sits at a higher flat index.
                # The -inf poked in here is overwritten by the column
                # refresh below (the chosen pair's column is the marked
                # one), so the maintained matrix stays exact.
                region_value = float(region_value)
                values_flat[region_pos] = -np.inf
                second_pos = int(values.argmax())
                second = float(values_flat[second_pos])
                second_row, second_col = divmod(second_pos, num_cols)
                second_flat = second_row * num_models + flat_columns[second_col]
                if second > step.bound:
                    bound, runner = second, second_flat
                elif second == step.bound:
                    bound, runner = step.bound, min(step.runner, second_flat)
                else:
                    bound, runner = step.bound, step.runner
                accepted = TraceStep(
                    flat, region_value, bound, runner, step.extra
                )
            elif region_value <= 0.0 and step.bound <= 0.0:
                # No masked value anywhere is positive any more: the
                # from-scratch greedy stops exactly here.
                truncated = True
                break
            else:
                diverged = True
                break

        # Side effects of accepting the step. The bytes consumed and the
        # marginal-size table are demand-independent functions of the
        # pair sequence — identical to the previous solve's, so the
        # recorded `extra` and the logged post-step extras are exact.
        placed[server, model_index] = True
        remaining[server, 0] -= step.extra
        post = (
            (prev.cache.extras if index + 1 == num_steps else log[index + 1])
            if dedup
            else None
        )
        if in_region[model_index]:
            clone.mark_served(server, model_index)
            cidx = int(col_of[model_index])
            region_gains[:, cidx] = gains[:, model_index]
            values[:, cidx] = np.where(
                (post[:, model_index] if dedup else sizes[model_index])
                <= remaining[:, 0],
                gains[:, model_index],
                -1.0,
            )
        values[server, :] = np.where(
            (post[server, columns] if dedup else region_sizes)
            <= remaining[server, 0],
            region_gains[server],
            -1.0,
        )
        new_steps.append(accepted)

    reused = len(new_steps)
    if truncated or diverged:
        # Promote the replay clone to the full prefix state: apply the
        # accepted prefix's out-of-region marks (in-region ones were
        # applied during replay); bulk_mark runs one kernel per touched
        # column. Order does not matter — each column's final state
        # depends only on which pairs were marked.
        clone.bulk_mark(
            divmod(step.flat, num_models)
            for step in new_steps
            if not in_region[step.flat % num_models]
        )
        tracker = clone
        if dedup:
            # Rebuild the storage state of the accepted prefix (only now:
            # the happy path never needs a live cache during replay).
            cache = ServerBlockCache(instance.block_index, num_servers)
            for step in new_steps:
                cache.add(*divmod(step.flat, num_models))
        else:
            cache = None
    else:
        # Whole trace re-accepted: compose the final tracker from two
        # exactly-maintained halves — unchanged columns evolved exactly
        # as in the previous solve (same marks, same demand), changed
        # columns were maintained on the replay clone. ``prev`` is
        # superseded by the returned state and never consulted again, so
        # its tracker is adopted in place (no copy) and the previous
        # solve's cache — exactly the replayed prefix's storage state —
        # carries over along with its snapshots.
        tracker = prev.tracker
        tracker.adopt_columns(clone, columns)
        cache = prev.cache

    extras_log = (log[:reused] if dedup else None)
    if diverged:
        # The greedy genuinely (or unprovably) departs from the old trace
        # here. Run the solvers' own loop from the exact prefix state —
        # it re-records exact values and bounds, re-tightening the tail.
        _greedy_record(
            instance, tracker, cache, remaining, placement, new_steps, extras_log
        )
        mode = "fallback"
    elif truncated:
        mode = "replay"
    else:
        # The mutation (or storage freed) may admit further placements:
        # continue the greedy over the full matrix — fit flips outside
        # the region are picked up here.
        _greedy_record(
            instance, tracker, cache, remaining, placement, new_steps, extras_log
        )
        mode = "replay"

    state = SolveState(
        placement=placement,
        tracker=tracker,
        steps=new_steps,
        remaining=remaining,
        cache=cache,
        hit_ratio=_final_hit_ratio(instance, tracker, placement, dedup),
        extras_log=extras_log,
    )
    return state, {
        "mode": mode,
        "reused_steps": reused,
        "extended_steps": len(new_steps) - reused,
        "truncated": truncated,
    }


def _solver_for(solver: str, engine: str):
    if solver == "gen":
        return TrimCachingGen(accelerated=True, fill_zero_gain=False, engine=engine)
    if solver == "independent":
        return IndependentCaching(engine=engine)
    raise ServeError(
        f"serving supports solvers {SERVE_SOLVERS}, got {solver!r}"
    )


@dataclass
class ScratchRecord:
    """One from-scratch reference solve (see :func:`resolve_from_scratch`)."""

    placement: Placement
    hit_ratio: float
    seconds: float
    changed_columns: int
    capacity_changed: bool


def resolve_from_scratch(
    scenario,
    events,
    solver: str = "gen",
    engine: str = "dense",
) -> List[ScratchRecord]:
    """The stateless reference: after each event, solve the mutated
    scenario from scratch (feasibility rebuild + fresh instance + solve).

    Events mutate a private carrier instance through the same
    :class:`PlacementInstance` mutators the service uses, so the demand
    and capacity arrays match the resident path bit for bit. ``seconds``
    times the full stateless path (what a server without resident state
    would pay per event) — the serve benchmark's baseline.
    """
    check_serve_config(solver, engine)
    source = scenario.instance
    carrier = PlacementInstance(
        library=scenario.library,
        demand=scenario.demand.copy(),
        feasible=source.sparse_feasible,
        capacities=np.asarray(source.capacities, dtype=np.int64).copy(),
    )
    original_demand = scenario.demand.copy()
    model_sizes = scenario.library.model_size_array.astype(float)
    algorithm = _solver_for(solver, engine)
    records: List[ScratchRecord] = []
    for event in events:
        changed, capacity_changed = apply_event(carrier, event, original_demand)
        start = time.perf_counter()
        latency = LatencyModel(scenario.topology, model_sizes)
        instance = PlacementInstance(
            library=scenario.library,
            demand=carrier.demand.copy(),
            feasible=latency.feasibility_sparse(),
            capacities=carrier.capacities.copy(),
        )
        result = algorithm.solve(instance)
        records.append(
            ScratchRecord(
                placement=result.placement,
                hit_ratio=result.hit_ratio,
                seconds=time.perf_counter() - start,
                changed_columns=int(changed.size),
                capacity_changed=capacity_changed,
            )
        )
    return records
