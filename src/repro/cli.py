"""Command-line entry point: regenerate any paper figure or table, or
run an arbitrary declarative sweep.

Usage::

    python -m repro fig4a --topologies 10
    python -m repro fig6a
    python -m repro table1
    python -m repro solvers
    python -m repro sweep --axis capacity --algos spec,gen,independent
    python -m repro sweep --axis users --points 10,30,50 --engine sparse
    python -m repro sweep --plan plan.json --backend process --cache-dir .cache
    python -m repro sweep --plan plan.json --backend process --retries 3 \
        --chaos kill-worker:2
    trimcaching fig7 --runs 3

Every command prints the reproduced table to stdout. The ``sweep``
command is the generic front-end to the declarative experiment API
(:mod:`repro.api`): pick an axis, points, and any set of registered
solvers — the per-figure commands are just pre-baked plans. With
``--plan`` it executes a serialised plan file instead; ``--backend``
picks the execution substrate (bit-identical series on both) and
``--cache-dir`` enables content-addressed result caching with mid-sweep
resume (an unchanged re-run is a pure cache hit). ``--retries``,
``--task-timeout`` and ``--heartbeat`` configure the fault layer (the
``process`` backend survives worker crashes with bit-identical
results), and ``--chaos`` injects a deterministic fault schedule for
drills.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, List, Optional, Sequence

from repro.core.objective import COVERAGE_ENGINES
from repro.sim import experiments


def _render_result(result, args: argparse.Namespace) -> str:
    """Table plus the optional chart/CSV/JSON side outputs."""
    output = result.to_table()
    if getattr(args, "chart", False):
        from repro.utils.charts import ascii_chart

        output += "\n\n" + ascii_chart(
            [float(x) for x in result.x_values],
            {algo: result.series[algo].means.tolist() for algo in result.series},
            title=result.name,
        )
    if getattr(args, "csv", None):
        from repro.sim.serialization import experiment_to_csv

        with open(args.csv, "w") as handle:
            handle.write(experiment_to_csv(result))
        output += f"\n(series written to {args.csv})"
    if getattr(args, "json", None):
        from repro.sim.serialization import result_set_to_json

        with open(args.json, "w") as handle:
            handle.write(result_set_to_json(result))
        output += f"\n(result set written to {args.json})"
    return output


#: Figure-subcommand flag -> plan-builder keyword, where the names differ.
_BUILDER_KWARGS = {"topologies": "num_topologies", "runs": "num_runs"}


def _plan_command(
    builder: Callable, flags: Sequence[str]
) -> Callable[[argparse.Namespace], str]:
    """Run ``builder``'s plan at the given flags (unset ones keep its defaults)."""

    def run(args: argparse.Namespace) -> str:
        from repro.api import run_plan

        kwargs = {
            _BUILDER_KWARGS.get(flag, flag): getattr(args, flag)
            for flag in flags
            if getattr(args, flag) is not None
        }
        return _render_result(run_plan(builder(**kwargs)), args)

    return run


def _fig1(args: argparse.Namespace) -> str:
    return experiments.fig1_accuracy_vs_frozen(step=args.step).to_table()


def _table1(args: argparse.Namespace) -> str:
    return experiments.table1_library_construction(
        num_models=args.models, seed=args.seed
    ).to_table()


def _solvers(args: argparse.Namespace) -> str:
    from repro.api import SOLVERS

    return SOLVERS.to_table()


def _serve_scenario(args: argparse.Namespace):
    """The scenario a ``serve`` invocation describes (plan file or flags)."""
    from repro.errors import ConfigurationError
    from repro.sim.config import ScenarioConfig
    from repro.sim.scenario import build_scenario
    from repro.utils.units import GB

    if args.plan is not None:
        from repro.api import plan_from_json

        try:
            with open(args.plan) as handle:
                plan = plan_from_json(handle.read())
        except OSError as exc:
            raise ConfigurationError(f"cannot read --plan file: {exc}") from exc
        config = ScenarioConfig.from_dict(dict(plan.base))
        seed = plan.seed if args.seed is None else args.seed
    else:
        fields = {}
        if args.servers is not None:
            fields["num_servers"] = args.servers
        if args.users is not None:
            fields["num_users"] = args.users
        if args.models is not None:
            fields["num_models"] = args.models
        if args.requests_per_user is not None:
            fields["requests_per_user"] = args.requests_per_user
        if args.storage_gb is not None:
            fields["storage_bytes"] = int(args.storage_gb * GB)
        if args.case is not None:
            fields["library_case"] = args.case
        config = ScenarioConfig(**fields)
        seed = args.seed if args.seed is not None else 0
    return build_scenario(config, seed=int(seed)), int(seed)


def _serve(args: argparse.Namespace) -> str:
    """Solve a scenario once and serve it over HTTP (blocks)."""
    from repro import obs
    from repro.errors import ConfigurationError
    from repro.serve import PlacementService, serve_http

    if args.no_obs and args.trace is not None:
        raise ConfigurationError(
            "--trace requires observability; drop --no-obs"
        )
    # An operator-facing server defaults metrics ON (that is what the
    # /metrics endpoint is for); the library PlacementService enables
    # nothing on its own. --trace additionally collects spans.
    if not args.no_obs:
        obs.enable(metrics=True, tracing=args.trace is not None)
    scenario, seed = _serve_scenario(args)
    service = PlacementService(scenario, solver=args.solver, engine=args.engine)
    server = serve_http(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    instance = service.instance
    # Smoke tests and scripts parse these lines (hence port on its own
    # line, flushed before the blocking serve loop starts).
    print(
        f"serving {args.solver}/{args.engine} "
        f"M={instance.num_servers} K={instance.num_users} "
        f"I={instance.num_models} seed={seed} "
        f"hit_ratio={service.hit_ratio:.6f}",
        flush=True,
    )
    print(f"listening on http://{args.host}:{server.port}", flush=True)
    print(f"port={server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if args.trace is not None:
            obs.export.write_chrome_trace(obs.tracer(), args.trace)
            print(f"(chrome trace written to {args.trace})", flush=True)
    return "server stopped"


# ----------------------------------------------------------------------
# The generic declarative sweep
# ----------------------------------------------------------------------
#: Default point lists for the named axes (the paper's sweeps).
_DEFAULT_POINTS = {
    "capacity": experiments.CAPACITY_SWEEP_GB,
    "servers": experiments.SERVER_SWEEP,
    "users": experiments.USER_SWEEP,
}


def _parse_points(text: str) -> List[float]:
    from repro.errors import ConfigurationError

    try:
        return [float(token) for token in text.split(",") if token.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"invalid --points value: {exc}") from exc


def _generic_solver_spec(name: str, engine: str, epsilon: float):
    """A SolverSpec for ``name`` with engine/epsilon applied when supported."""
    from repro.api import SOLVERS, SolverSpec

    config = SOLVERS.config(name)
    field_names = {f.name for f in dataclasses.fields(config)}
    updates = {}
    if "engine" in field_names:
        updates["engine"] = engine
    if "epsilon" in field_names:
        updates["epsilon"] = epsilon
    if updates:
        config = dataclasses.replace(config, **updates)
    return SolverSpec(name, config=config)


#: The ``sweep`` flags that define the experiment itself (as opposed to
#: how it executes). They default to ``None`` so an explicit use can be
#: detected — and rejected — when ``--plan`` already defines the grid.
_GRID_FLAGS = {
    "axis": None,
    "points": None,
    "algos": "gen,independent",
    "case": "special",
    "evaluation": "expected",
    "realizations": 200,
    "scale": None,
    "engine": "dense",
    "epsilon": 0.1,
    "servers": None,
    "users": None,
    "models": None,
    "requests_per_user": None,
    "storage_gb": None,
    "rng_scheme": None,
    "chunk_size": None,
    "sample_users": None,
    "name": None,
    "topologies": 10,
    "seed": 0,
}


def _build_cli_plan(args: argparse.Namespace):
    """The plan an ``--axis``-style invocation describes."""
    from repro.api import ExperimentPlan, SweepSpec
    from repro.utils.units import GB

    # Unset grid flags take their documented defaults here (they stay
    # None on the namespace so the --plan path can detect explicit use).
    for flag, default in _GRID_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)

    scale = args.scale if args.scale is not None else experiments.DEFAULT_SCALE
    points = (
        _parse_points(args.points)
        if args.points is not None
        else list(_DEFAULT_POINTS.get(args.axis, []))
    )
    if not points:
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"--points is required for axis {args.axis!r} "
            f"(no paper default exists)"
        )
    base = {
        "library_case": args.case,
        "num_models": experiments._scaled_library(scale),
        "requests_per_user": experiments._scaled_requests(scale),
    }
    if args.servers is not None:
        base["num_servers"] = args.servers
    if args.users is not None:
        base["num_users"] = args.users
    if args.models is not None:
        base["num_models"] = args.models
    if args.requests_per_user is not None:
        base["requests_per_user"] = args.requests_per_user
    if args.storage_gb is not None:
        base["storage_bytes"] = int(args.storage_gb * scale * GB)
    if args.rng_scheme is not None:
        base["rng_scheme"] = args.rng_scheme
    if args.chunk_size is not None or args.sample_users is not None:
        if args.rng_scheme != "v2":
            from repro.errors import ConfigurationError

            flag = (
                "--chunk-size"
                if args.chunk_size is not None
                else "--sample-users"
            )
            raise ConfigurationError(
                f"{flag} requires --rng-scheme v2: the v1 per-user draw "
                "stream cannot be chunked or subsampled without changing "
                "default results"
            )
    if args.chunk_size is not None:
        base["chunk_size"] = args.chunk_size
    evaluation = args.evaluation
    if args.sample_users is not None:
        if evaluation == "monte_carlo":
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                "--sample-users conflicts with --evaluation monte_carlo; "
                "the sampling evaluator estimates the expected hit ratio"
            )
        evaluation = "sampled"
    elif evaluation == "sampled":
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            "--evaluation sampled requires --sample-users"
        )
    algos = [token.strip() for token in args.algos.split(",") if token.strip()]
    if not algos:
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            "--algos must name at least one registered solver"
        )
    return ExperimentPlan(
        name=args.name
        or f"Sweep — {args.axis} ({args.case} case, scale={scale})",
        sweep=SweepSpec(args.axis, tuple(points)),
        solvers=tuple(
            _generic_solver_spec(name, args.engine, args.epsilon)
            for name in algos
        ),
        base=base,
        num_topologies=args.topologies,
        evaluation=evaluation,
        num_realizations=args.realizations,
        seed=args.seed,
        scale=scale,
        workers=args.workers if args.workers is not None else 1,
        sample_users=args.sample_users,
    )


def _backend_name(name: str) -> str:
    """``--backend`` type: a removed or unknown name exits 2 with a
    message naming the backends that exist."""
    from repro.errors import ConfigurationError
    from repro.exec.backends import check_backend_name

    try:
        return check_backend_name(name)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _generic_sweep(args: argparse.Namespace) -> str:
    from repro.api import plan_from_json, plan_to_json
    from repro.errors import ConfigurationError

    if args.plan is not None:
        # The plan file is authoritative for *what* runs; the CLI flags
        # only choose how (backend/cache/workers/outputs). Rather than
        # silently ignoring an experiment-defining flag, refuse it —
        # edit the plan file (or regenerate it with --dry-run) instead.
        overridden = sorted(
            flag.replace("_", "-")
            for flag in _GRID_FLAGS
            if getattr(args, flag) is not None
        )
        if overridden:
            raise ConfigurationError(
                "--plan already defines the experiment; remove the "
                f"conflicting flag(s): --{', --'.join(overridden)}"
            )
        try:
            with open(args.plan) as handle:
                plan = plan_from_json(handle.read())
        except OSError as exc:
            raise ConfigurationError(f"cannot read --plan file: {exc}") from exc
        # An explicit --workers still applies: it is execution placement
        # (it can lower a shared plan file's parallelism), not content.
        if args.workers is not None:
            plan = plan.with_overrides(workers=args.workers)
    elif args.axis is not None:
        plan = _build_cli_plan(args)
    else:
        raise ConfigurationError("either --axis or --plan is required")
    if args.dry_run:
        return plan_to_json(plan)

    fault_flags = (args.retries, args.task_timeout, args.heartbeat, args.chaos)
    if args.backend is None and any(flag is not None for flag in fault_flags):
        raise ConfigurationError(
            "--retries/--task-timeout/--heartbeat/--chaos require an "
            "explicit --backend"
        )
    backend = None
    if args.backend is not None:
        from repro.exec import ChaosPolicy, default_retry_policy, make_backend

        backend = make_backend(
            args.backend,
            workers=plan.workers,
            retry=(
                default_retry_policy(args.retries)
                if args.retries is not None
                else None
            ),
            heartbeat_interval=args.heartbeat,
            task_timeout=args.task_timeout,
            chaos=(
                ChaosPolicy.parse(args.chaos)
                if args.chaos is not None
                else None
            ),
        )
    store = None
    if args.cache_dir is not None:
        from repro.exec import ArtifactStore

        store = ArtifactStore(args.cache_dir)

    # Observability is an execution concern, not a grid concern: --obs,
    # --trace and --profile compose with --plan. Results are identical
    # with or without (the pinned obs identity tests enforce it).
    want_tracing = args.obs or args.trace is not None or bool(args.profile)
    if want_tracing or args.obs:
        from repro import obs

        obs.enable(metrics=args.obs, tracing=want_tracing)

    def execute() -> str:
        from repro.exec import execute_plan

        result, report = execute_plan(plan, backend=backend, store=store)
        output = _render_result(result, args) + f"\n({report.summary()})"
        breakdown = report.phase_breakdown()
        if breakdown:
            output += "\n" + breakdown
        return output

    def finish(output: str) -> str:
        if args.trace is not None:
            from repro import obs

            obs.export.write_chrome_trace(obs.tracer(), args.trace)
            output += f"\n(chrome trace written to {args.trace})"
        return output

    if not args.profile:
        return finish(execute())
    # --profile wraps the whole execution (plan run + rendering) in
    # cProfile and appends the hottest 25 cumulative entries; with a
    # path argument the raw profile is also dumped in pstats format.
    # Results are unaffected; only wall time pays the tracing overhead.
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        output = execute()
    finally:
        profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(25)
    output += "\n" + stream.getvalue().rstrip()
    if isinstance(args.profile, str):
        profiler.dump_stats(args.profile)
        output += f"\n(pstats profile written to {args.profile})"
    return finish(output)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="trimcaching",
        description="Reproduce TrimCaching (ICDCS 2024) figures and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, topologies: int = 10) -> None:
        p.add_argument("--topologies", type=int, default=topologies)
        p.add_argument("--seed", type=int, default=0)

    def add_sweep_outputs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--chart", action="store_true", help="also render an ASCII chart"
        )
        p.add_argument("--csv", help="write the series to this CSV file")
        p.add_argument(
            "--json",
            help="write the full result set (series + plan) to this JSON file",
        )

    # One subcommand per figure/ablation plan; its flags depend on the
    # plan kind.
    for name, builder in experiments.PLAN_BUILDERS.items():
        p = sub.add_parser(name, help=builder.__doc__.splitlines()[0])
        kind = builder().kind
        if kind == "sweep":
            add_common(p)
            p.add_argument(
                "--evaluation",
                choices=("expected", "monte_carlo"),
                default="expected",
            )
            p.add_argument(
                "--scale",
                type=float,
                default=None,
                help="library/storage scale (1.0 = the paper's full setting)",
            )
            p.add_argument(
                "--workers",
                type=int,
                default=1,
                help="number of worker processes for the topology fan-out "
                "(bit-identical series for any value)",
            )
            p.add_argument(
                "--engine",
                choices=COVERAGE_ENGINES,
                default="dense",
                help="coverage engine: dense (bit-pinned to the seed), "
                "sparse (O(nnz) CSR walks) or auto (sparse on "
                "sparse-primary instances, dense otherwise)",
            )
            add_sweep_outputs(p)
            flags = (
                "topologies", "seed", "evaluation", "scale", "workers", "engine"
            )
        elif kind == "comparison":
            add_common(p, topologies=5)
            flags = ("topologies", "seed")
        else:  # mobility / replacement studies
            p.add_argument("--runs", type=int, default=3)
            p.add_argument("--seed", type=int, default=0)
            flags = ("runs", "seed")
        p.set_defaults(handler=_plan_command(builder, flags))

    # The generic declarative sweep over any axis/solver set.
    p = sub.add_parser(
        "sweep",
        help="Run a declarative sweep: any axis, points and solver set, "
        "or a serialised --plan file.",
    )
    add_common(p)
    p.add_argument(
        "--axis",
        default=None,
        help="capacity | servers | users | any ScenarioConfig field "
        "(required unless --plan is given)",
    )
    p.add_argument(
        "--plan",
        default=None,
        help="execute this serialised plan JSON file instead of building "
        "a plan from --axis/--points/--algos",
    )
    p.add_argument(
        "--backend",
        type=_backend_name,
        default=None,
        metavar="{serial,process}",
        help="execution backend for the task grid (bit-identical series "
        "on both): serial in-process, or process — long-lived worker "
        "processes, as many as --workers, with the fault-layer flags "
        "below",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed artifact store: unchanged re-runs are "
        "pure cache hits and killed sweeps resume from completed tasks",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=None,
        help="retries per task on transient failures (worker death, "
        "dropped connection, timeout), then in-process degradation; "
        "results stay bit-identical (default: fail fast, typed error)",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="straggler deadline in seconds (process backend): past it "
        "a task is re-dispatched to an idle worker, past twice it the "
        "wedged worker is declared lost",
    )
    p.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        help="process-worker heartbeat interval in seconds (liveness "
        "timeout is five intervals, at least 1 s; default 0.2)",
    )
    p.add_argument(
        "--chaos",
        default=None,
        help="deterministic fault injection on the process backend, e.g. "
        "'kill-worker:2', 'drop-conn:1,straggle:3x0.5' (facets: "
        "kill-worker:N[xLIMIT], drop-conn:N[xLIMIT], "
        "heartbeat-delay:S, straggle:EVERYxSECONDS, seed:S)",
    )
    p.add_argument(
        "--points",
        help="comma-separated sweep points (defaults to the paper's "
        "values for the named axes)",
    )
    # Grid-defining flags default to None (documented fallbacks applied
    # in _build_cli_plan) so --plan can reject explicit use of any.
    p.add_argument(
        "--algos",
        default=None,
        help="comma-separated registered solver names "
        "(see `python -m repro solvers`; default gen,independent)",
    )
    p.add_argument("--case", choices=("special", "general"), default=None)
    p.add_argument(
        "--evaluation",
        choices=("expected", "monte_carlo", "sampled"),
        default=None,
    )
    p.add_argument("--realizations", type=int, default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallelism (backend width / plan workers field); "
        "defaults to the plan's own setting",
    )
    p.add_argument("--engine", choices=COVERAGE_ENGINES, default=None)
    p.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="rounding parameter for solvers that take one (spec; "
        "default 0.1)",
    )
    p.add_argument("--servers", type=int, default=None)
    p.add_argument("--users", type=int, default=None)
    p.add_argument("--models", type=int, default=None)
    p.add_argument("--requests-per-user", type=int, default=None)
    p.add_argument(
        "--storage-gb",
        type=float,
        default=None,
        help="per-server storage in paper-scale GB (shrunk by --scale)",
    )
    p.add_argument(
        "--rng-scheme",
        choices=("v1", "v2"),
        default=None,
        help="scenario RNG scheme: v1 (seed-identical per-user draws, "
        "default) or v2 (batched numpy draws; statistically equivalent, "
        "different stream layout)",
    )
    p.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="build scenarios in user blocks of this size (requires "
        "--rng-scheme v2; bit-identical to the unchunked v2 build, "
        "temporaries bounded by the chunk)",
    )
    p.add_argument(
        "--sample-users",
        type=int,
        default=None,
        help="score placements from a stratified user sample of this "
        "size instead of the full population (requires --rng-scheme v2; "
        "implies --evaluation sampled)",
    )
    p.add_argument("--name", default=None, help="result/plan title")
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="print the plan JSON instead of running it",
    )
    p.add_argument(
        "--profile",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="run under cProfile and append the top-25 cumulative-time "
        "entries (plus the per-phase span breakdown) to the output; "
        "with PATH, also dump the raw profile in pstats format",
    )
    p.add_argument(
        "--obs",
        action="store_true",
        help="enable the repro.obs metrics registry and tracer for this "
        "run and append the per-phase wall-clock breakdown (results "
        "are bit-identical either way)",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON of the run to PATH "
        "(load in Perfetto / chrome://tracing); implies tracing on",
    )
    add_sweep_outputs(p)
    # add_common gave --topologies/--seed concrete defaults; sweep needs
    # them None-able too, so --plan can detect explicit use.
    p.set_defaults(handler=_generic_sweep, topologies=None, seed=None)

    p = sub.add_parser("solvers", help="List the registered solvers.")
    p.set_defaults(handler=_solvers)

    p = sub.add_parser("fig1", help="Accuracy vs. frozen layers (Fig. 1).")
    p.add_argument("--step", type=int, default=10)
    p.set_defaults(handler=_fig1)

    p = sub.add_parser("table1", help="Table I library construction.")
    p.add_argument("--models", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_table1)

    p = sub.add_parser(
        "serve",
        help="Solve a scenario once and serve it over HTTP (blocks).",
        description=(
            "Placement-as-a-service: solve once, keep the tracker state "
            "resident, and answer /route queries and POST /events "
            "mutations over stdlib HTTP. The scenario comes from a plan "
            "file's base config (--plan) or from the direct shape flags."
        ),
    )
    p.add_argument("--plan", help="Experiment-plan JSON; its base config and seed define the scenario.")
    p.add_argument("--servers", type=int, help="Number of edge servers M.")
    p.add_argument("--users", type=int, help="Number of users K.")
    p.add_argument("--models", type=int, help="Number of models I.")
    p.add_argument("--requests-per-user", type=int, help="Requests per user.")
    p.add_argument("--storage-gb", type=float, help="Per-server storage in GB.")
    p.add_argument(
        "--case",
        choices=("special", "general"),
        help="Library case (default: config default).",
    )
    p.add_argument("--seed", type=int, help="Scenario seed (overrides the plan's).")
    p.add_argument("--solver", choices=("gen", "independent"), default="gen")
    p.add_argument("--engine", choices=("dense", "sparse"), default="sparse")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 binds an ephemeral port, printed on startup).",
    )
    p.add_argument(
        "--verbose", action="store_true", help="Log HTTP requests to stderr."
    )
    p.add_argument(
        "--no-obs",
        action="store_true",
        help="Do not enable repro.obs metrics (GET /metrics then serves "
        "only the service-derived counters).",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="Collect spans and write a Chrome trace-event JSON to PATH "
        "on shutdown (conflicts with --no-obs).",
    )
    p.set_defaults(handler=_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        print(args.handler(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
