"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.api import plan_to_dict
from repro.cli import build_parser, main
from repro.sim.experiments import PLAN_BUILDERS

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "figure_content.json"


def _commands():
    parser = build_parser()
    sub = next(
        action
        for action in parser._actions
        if hasattr(action, "choices") and action.choices
    )
    return set(sub.choices)


class TestParser:
    def test_all_commands_registered(self):
        assert {"fig1", "table1", "sweep", "solvers", "serve"} <= _commands()

    def test_every_plan_builder_is_a_subcommand(self):
        assert set(PLAN_BUILDERS) <= _commands()

    @pytest.mark.parametrize(
        "command, defaults",
        [
            (
                "fig4a",
                dict(topologies=10, seed=0, evaluation="expected",
                     scale=None, workers=1),
            ),
            ("fig5c", dict(topologies=10, seed=0, workers=1)),
            ("fig6a", dict(topologies=5, seed=0)),
            ("ablation-backend", dict(topologies=5, seed=0)),
            ("fig7", dict(runs=3, seed=0)),
            ("ablation-replacement", dict(runs=3, seed=0)),
        ],
    )
    def test_figure_flag_defaults(self, command, defaults):
        args = vars(build_parser().parse_args([command]))
        assert {flag: args[flag] for flag in defaults} == defaults

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_fig1(self, capsys):
        assert main(["fig1", "--step", "50"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out
        assert "frozen layers" in out

    def test_table1(self, capsys):
        assert main(["table1", "--models", "30"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "dedup storage savings" in out

    def test_fig4a_tiny(self, capsys):
        assert main(["fig4a", "--topologies", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4(a)" in out
        assert "TrimCaching Spec (mean)" in out

    def test_fig6a_tiny(self, capsys):
        assert main(["fig6a", "--topologies", "1"]) == 0
        out = capsys.readouterr().out
        assert "runtime" in out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_figure_flags_reach_the_plan(self, tmp_path, capsys):
        out = tmp_path / "fig5b.json"
        argv = ["fig5b", "--topologies", "1", "--seed", "4", "--scale", "0.05",
                "--json", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        expected = PLAN_BUILDERS["fig5b"](num_topologies=1, seed=4, scale=0.05)
        assert json.loads(out.read_text())["plan"] == plan_to_dict(expected)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4a"],
            ["sweep", "--axis", "capacity"],
        ],
        ids=["fig4a", "sweep"],
    )
    @pytest.mark.parametrize(
        "flag", [["--workers", "0"], ["--scale", "0"]], ids=["workers", "scale"]
    )
    def test_bad_flag_exits_2_without_traceback(self, argv, flag, capsys):
        assert main(argv + flag + ["--topologies", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert flag[0].lstrip("-") in captured.err
        assert "Traceback" not in captured.err

    def test_sweep_reproduces_fig4a_golden(self, tmp_path, capsys):
        """The generic `sweep` CLI reproduces fig4a's series bit-for-bit."""
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--axis", "capacity", "--algos", "spec,gen,independent",
                "--topologies", "1", "--scale", "0.05", "--json", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        experiment = json.loads(out.read_text())["experiment"]
        golden = json.loads(GOLDEN.read_text())["fig4a-cli"]["experiment"]
        assert experiment["x_values"] == golden["x_values"]
        assert experiment["series"] == golden["series"]


class TestGenericSweep:
    def test_sweep_registered(self):
        parser = build_parser()
        sub = next(
            action
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        assert "sweep" in sub.choices
        assert "solvers" in sub.choices

    def test_sweep_runs_with_defaults(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--axis",
                    "capacity",
                    "--algos",
                    "gen,independent",
                    "--topologies",
                    "1",
                    "--scale",
                    "0.05",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "TrimCaching Gen (mean)" in out
        assert "Independent Caching (mean)" in out

    def test_sweep_custom_axis_and_points(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--axis",
                    "zipf_exponent",
                    "--points",
                    "0.5,1.2",
                    "--algos",
                    "gen",
                    "--topologies",
                    "1",
                    "--scale",
                    "0.05",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "zipf_exponent" in out

    def test_sweep_rng_scheme_v2_runs(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--axis",
                    "users",
                    "--points",
                    "4,8",
                    "--algos",
                    "gen",
                    "--topologies",
                    "1",
                    "--scale",
                    "0.05",
                    "--rng-scheme",
                    "v2",
                ]
            )
            == 0
        )
        assert "TrimCaching Gen (mean)" in capsys.readouterr().out

    def test_sweep_rng_scheme_lands_in_plan(self, capsys):
        import json

        assert (
            main(
                [
                    "sweep",
                    "--axis",
                    "users",
                    "--points",
                    "4",
                    "--rng-scheme",
                    "v2",
                    "--dry-run",
                ]
            )
            == 0
        )
        plan = json.loads(capsys.readouterr().out)
        assert plan["base"]["rng_scheme"] == "v2"

    def test_sweep_profile_appends_stats(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--axis",
                    "users",
                    "--points",
                    "4",
                    "--algos",
                    "gen",
                    "--topologies",
                    "1",
                    "--scale",
                    "0.05",
                    "--profile",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "TrimCaching Gen (mean)" in out
        assert "cumulative time" in out
        assert "function calls" in out

    def test_sweep_dry_run_prints_plan(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--axis",
                    "users",
                    "--points",
                    "4,8",
                    "--algos",
                    "gen",
                    "--dry-run",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert '"format": "trimcaching-plan-v1"' in out
        assert '"kind": "sweep"' in out

    def test_sweep_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        assert (
            main(
                [
                    "sweep",
                    "--axis",
                    "capacity",
                    "--points",
                    "0.5",
                    "--algos",
                    "gen",
                    "--topologies",
                    "1",
                    "--scale",
                    "0.05",
                    "--json",
                    str(out_file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        from repro.sim.serialization import result_set_from_json

        restored = result_set_from_json(out_file.read_text())
        assert restored.plan is not None
        assert restored.plan.sweep.points == (0.5,)

    def test_sweep_unknown_solver_exits_nonzero(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--axis",
                    "capacity",
                    "--algos",
                    "not-a-solver",
                    "--topologies",
                    "1",
                ]
            )
            == 2
        )
        assert "registered solvers" in capsys.readouterr().err

    def test_sweep_axis_without_default_points_exits_2(self, capsys):
        assert main(["sweep", "--axis", "zipf_exponent", "--algos", "gen"]) == 2
        assert "--points is required" in capsys.readouterr().err

    def test_solvers_command(self, capsys):
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        assert "gen" in out
        assert "TrimCaching Spec" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4a", "--topologies", "1", "--scale", "0.05", "--engine", "sparse"],
            ["sweep", "--axis", "capacity", "--algos", "gen", "--engine", "dense"],
            ["serve", "--port", "0", "--engine", "sparse"],
        ],
    )
    def test_engine_flag_is_refused(self, argv, capsys):
        """The coverage tracker has one kernel; no command takes --engine."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --engine" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_sweep_bad_points_exits_2(self, capsys):
        assert (
            main(["sweep", "--axis", "capacity", "--points", "abc", "--algos", "gen"])
            == 2
        )
        assert "invalid --points" in capsys.readouterr().err


class TestPlanFileSweep:
    """The --plan / --backend / --cache-dir execution front end."""

    def _write_plan(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--axis",
                    "capacity",
                    "--points",
                    "0.5",
                    "--algos",
                    "gen",
                    "--topologies",
                    "1",
                    "--scale",
                    "0.05",
                    "--dry-run",
                ]
            )
            == 0
        )
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(capsys.readouterr().out)
        return plan_file

    def test_plan_file_runs(self, tmp_path, capsys):
        plan_file = self._write_plan(tmp_path, capsys)
        assert main(["sweep", "--plan", str(plan_file)]) == 0
        assert "TrimCaching Gen (mean)" in capsys.readouterr().out

    def test_plan_file_with_cache_hits_second_time(self, tmp_path, capsys):
        plan_file = self._write_plan(tmp_path, capsys)
        cache = tmp_path / "cache"
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["sweep", "--plan", str(plan_file), "--cache-dir", str(cache)]
        assert main(argv + ["--json", str(out1)]) == 0
        first = capsys.readouterr().out
        assert "cache miss" in first
        assert main(argv + ["--backend", "serial", "--json", str(out2)]) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert "0/1 tasks run" in second
        # The warm result set is byte-identical to the cold one.
        assert out1.read_bytes() == out2.read_bytes()

    def test_backend_without_cache(self, tmp_path, capsys):
        plan_file = self._write_plan(tmp_path, capsys)
        assert (
            main(["sweep", "--plan", str(plan_file), "--backend", "process"])
            == 0
        )
        out = capsys.readouterr().out
        assert "backend process" in out

    def test_explicit_workers_overrides_plan_width(self, tmp_path, capsys):
        # --workers is honoured even without --backend when a cache is
        # in play, and an explicit value can lower the plan's own width.
        plan_file = self._write_plan(tmp_path, capsys)
        cache = tmp_path / "cache"
        assert (
            main(
                [
                    "sweep",
                    "--plan",
                    str(plan_file),
                    "--cache-dir",
                    str(cache),
                    "--workers",
                    "1",
                ]
            )
            == 0
        )
        assert "backend serial" in capsys.readouterr().out

    def test_explicit_workers_overrides_plan_on_plain_path(
        self, tmp_path, capsys
    ):
        # Without --backend/--cache-dir too: the executed plan's workers
        # field follows the flag (visible via --dry-run round-trip).
        import json as json_mod

        plan_file = self._write_plan(tmp_path, capsys)
        payload = json_mod.loads(plan_file.read_text())
        payload["workers"] = 4
        plan_file.write_text(json_mod.dumps(payload))
        assert (
            main(
                [
                    "sweep",
                    "--plan",
                    str(plan_file),
                    "--workers",
                    "1",
                    "--dry-run",
                ]
            )
            == 0
        )
        emitted = json_mod.loads(capsys.readouterr().out)
        assert emitted["workers"] == 1

    def test_missing_plan_file_exits_2(self, capsys):
        assert main(["sweep", "--plan", "/nonexistent/plan.json"]) == 2
        assert "cannot read --plan" in capsys.readouterr().err

    def test_grid_flags_conflict_with_plan(self, tmp_path, capsys):
        # Experiment-defining flags are refused, not silently ignored.
        plan_file = self._write_plan(tmp_path, capsys)
        assert (
            main(["sweep", "--plan", str(plan_file), "--seed", "99"]) == 2
        )
        err = capsys.readouterr().err
        assert "--plan already defines the experiment" in err
        assert "--seed" in err
        assert (
            main(
                [
                    "sweep",
                    "--plan",
                    str(plan_file),
                    "--epsilon",
                    "0.2",
                    "--topologies",
                    "5",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "--epsilon" in err and "--topologies" in err
        assert (
            main(
                ["sweep", "--plan", str(plan_file), "--rng-scheme", "v2"]
            )
            == 2
        )
        assert "--rng-scheme" in capsys.readouterr().err

    def test_neither_axis_nor_plan_exits_2(self, capsys):
        assert main(["sweep", "--algos", "gen"]) == 2
        assert "either --axis or --plan" in capsys.readouterr().err

    def test_dry_run_round_trips_plan_file(self, tmp_path, capsys):
        plan_file = self._write_plan(tmp_path, capsys)
        assert main(["sweep", "--plan", str(plan_file), "--dry-run"]) == 0
        assert capsys.readouterr().out.strip() == plan_file.read_text().strip()


class TestFaultFlags:
    """The --retries / --task-timeout / --heartbeat / --chaos flags."""

    def _write_plan(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--axis",
                    "capacity",
                    "--points",
                    "0.5",
                    "--algos",
                    "gen",
                    "--topologies",
                    "1",
                    "--scale",
                    "0.05",
                    "--dry-run",
                ]
            )
            == 0
        )
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(capsys.readouterr().out)
        return plan_file

    def test_fault_flags_require_explicit_backend(self, tmp_path, capsys):
        plan_file = self._write_plan(tmp_path, capsys)
        assert main(["sweep", "--plan", str(plan_file), "--retries", "2"]) == 2
        assert "require an explicit --backend" in capsys.readouterr().err

    def test_fault_flags_rejected_on_serial(self, tmp_path, capsys):
        plan_file = self._write_plan(tmp_path, capsys)
        assert (
            main(
                [
                    "sweep",
                    "--plan",
                    str(plan_file),
                    "--backend",
                    "serial",
                    "--chaos",
                    "kill-worker:1",
                ]
            )
            == 2
        )
        assert "require(s) the process backend" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["cluster", "remote"])
    def test_removed_backend_names_exit_2(self, tmp_path, capsys, name):
        plan_file = self._write_plan(tmp_path, capsys)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--plan", str(plan_file), "--backend", name])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"the {name!r} backend was removed; use 'process'" in err

    def test_serial_rejects_retries(self, tmp_path, capsys):
        plan_file = self._write_plan(tmp_path, capsys)
        assert (
            main(
                [
                    "sweep",
                    "--plan",
                    str(plan_file),
                    "--backend",
                    "serial",
                    "--retries",
                    "2",
                ]
            )
            == 2
        )
        assert "no failure domain" in capsys.readouterr().err

    def test_bad_chaos_spec_exits_2(self, tmp_path, capsys):
        plan_file = self._write_plan(tmp_path, capsys)
        assert (
            main(
                [
                    "sweep",
                    "--plan",
                    str(plan_file),
                    "--backend",
                    "process",
                    "--chaos",
                    "explode:1",
                ]
            )
            == 2
        )
        assert "unknown chaos facet" in capsys.readouterr().err

    def test_process_backend_runs_a_plan(self, tmp_path, capsys):
        plan_file = self._write_plan(tmp_path, capsys)
        assert (
            main(
                [
                    "sweep",
                    "--plan",
                    str(plan_file),
                    "--backend",
                    "process",
                    "--heartbeat",
                    "0.05",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "backend process" in out
        assert "retried" not in out  # failure-free: no fault tail

    def test_chaos_run_footer_counts_the_faults(self, tmp_path, capsys):
        # One worker, armed to die on its first task: the --retries
        # policy recovers via a replacement, and the footer accounts
        # exactly one retry and one lost worker.
        plan_file = self._write_plan(tmp_path, capsys)
        assert (
            main(
                [
                    "sweep",
                    "--plan",
                    str(plan_file),
                    "--backend",
                    "process",
                    "--retries",
                    "3",
                    "--heartbeat",
                    "0.05",
                    "--chaos",
                    "kill-worker:0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "backend process" in out
        assert "1 retried" in out
        assert "1 worker(s) lost" in out


class TestScaleFlags:
    """--chunk-size / --sample-users are v2-only domain errors otherwise."""

    BASE = [
        "sweep",
        "--axis",
        "capacity",
        "--points",
        "0.2",
        "--algos",
        "gen",
        "--topologies",
        "1",
    ]

    def test_chunk_size_without_v2_exits_2(self, capsys):
        assert main(self.BASE + ["--chunk-size", "8"]) == 2
        err = capsys.readouterr().err
        assert "--chunk-size requires --rng-scheme v2" in err

    def test_chunk_size_with_explicit_v1_exits_2(self, capsys):
        assert (
            main(self.BASE + ["--rng-scheme", "v1", "--chunk-size", "8"]) == 2
        )
        assert "requires --rng-scheme v2" in capsys.readouterr().err

    def test_sample_users_without_v2_exits_2(self, capsys):
        assert main(self.BASE + ["--sample-users", "10"]) == 2
        err = capsys.readouterr().err
        assert "--sample-users requires --rng-scheme v2" in err

    def test_sampled_evaluation_requires_sample_users(self, capsys):
        assert (
            main(
                self.BASE
                + ["--rng-scheme", "v2", "--evaluation", "sampled"]
            )
            == 2
        )
        assert "requires --sample-users" in capsys.readouterr().err

    def test_sample_users_conflicts_with_monte_carlo(self, capsys):
        assert (
            main(
                self.BASE
                + [
                    "--rng-scheme",
                    "v2",
                    "--sample-users",
                    "10",
                    "--evaluation",
                    "monte_carlo",
                ]
            )
            == 2
        )
        assert "conflicts with --evaluation monte_carlo" in (
            capsys.readouterr().err
        )

    def test_chunked_sampled_sweep_runs(self, capsys):
        assert (
            main(
                self.BASE
                + [
                    "--rng-scheme",
                    "v2",
                    "--users",
                    "60",
                    "--chunk-size",
                    "16",
                    "--sample-users",
                    "20",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Gen" in out
