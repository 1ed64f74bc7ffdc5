"""The gate script ``benchmarks/bench_perf.py``, without timing anything.

Every section is replaced by a stub that returns a canned record and
gates, so these tests check only what the script does with them: which
keys it writes, which it keeps, and its exit code.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "bench_perf.py"
)
SECTIONS = ("gen", "sweep", "kernels", "scenario", "serve", "obs")


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_perf", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # Registered while it runs: dataclasses resolve annotations through it.
    monkeypatch.setitem(sys.modules, "bench_perf", module)
    spec.loader.exec_module(module)
    return module


def stub_sections(monkeypatch, bench, unmet=(), ran=None):
    """Replace every section; a gate named in ``unmet`` misses its bound.

    Each stub that runs appends its name to ``ran`` when one is given.
    """
    for name in SECTIONS:

        def section(quick, name=name):
            if ran is not None:
                ran.append(name)
            value = 0.0 if name in unmet else 100.0
            gate = bench.Gate(name, f"stub {name}", value, 1.0)
            return {f"{name}_record": {"value": value, "quick": quick}}, [gate]

        monkeypatch.setattr(bench, f"{name}_section", section)


class TestOutputFile:
    def test_full_write_keeps_a_foreign_section_byte_for_byte(
        self, bench, monkeypatch, tmp_path
    ):
        scale = {
            "chunk_size": 4096,
            "tiers": [{"num_users": 20000, "peak_rss_mb": 61.25, "nnz": 7}],
        }
        previous = {"meta": {"stale": True}, "gen": {"old": 1}, "scale": scale}
        output = tmp_path / "bench.json"
        output.write_text(json.dumps(previous, indent=2) + "\n")
        scale_block = json.dumps({"scale": scale}, indent=2)[2:-2]
        assert scale_block in output.read_text()

        stub_sections(monkeypatch, bench)
        assert bench.main(["--output", str(output)]) == 0

        text = output.read_text()
        assert scale_block in text
        written = json.loads(text)
        assert written["scale"] == scale
        assert written["gen"] == {"gen_record": {"value": 100.0, "quick": False}}
        assert "stale" not in written["meta"]
        assert set(written) == {"meta", "scale", *SECTIONS}

    def test_quick_without_output_is_refused_before_any_section_runs(
        self, bench, monkeypatch, tmp_path
    ):
        # The default output path resolves under tmp_path.
        monkeypatch.setattr(bench, "REPO_ROOT", tmp_path)
        recorded = tmp_path / "BENCH_solvers.json"
        recorded.write_text('{"gen": {"gen_paper_tight": {}}}\n')
        before = recorded.read_bytes()
        ran = []
        stub_sections(monkeypatch, bench, ran=ran)

        with pytest.raises(SystemExit) as stop:
            bench.main(["--quick"])
        assert stop.value.code == 2
        assert ran == []
        assert recorded.read_bytes() == before

    def test_meta_records_every_gate(self, bench, monkeypatch, tmp_path):
        output = tmp_path / "bench.json"
        stub_sections(monkeypatch, bench, unmet={"serve"})
        bench.main(["--quick", "--output", str(output)])
        meta = json.loads(output.read_text())["meta"]
        assert meta["quick"] is True
        for name in SECTIONS:
            assert meta[f"{name}_target"] == 1.0
            assert meta[f"{name}_target_met"] is (name != "serve")


class TestExitCode:
    @pytest.mark.parametrize("name", SECTIONS)
    def test_strict_full_run_exits_1_on_an_unmet_gate(
        self, bench, monkeypatch, tmp_path, name
    ):
        stub_sections(monkeypatch, bench, unmet={name})
        argv = ["--strict", "--output", str(tmp_path / "b.json")]
        assert bench.main(argv) == 1

    def test_strict_full_run_exits_0_when_every_gate_is_met(
        self, bench, monkeypatch, tmp_path
    ):
        stub_sections(monkeypatch, bench)
        argv = ["--strict", "--output", str(tmp_path / "b.json")]
        assert bench.main(argv) == 0

    def test_unmet_gates_print_but_do_not_fail_without_strict(
        self, bench, monkeypatch, tmp_path, capsys
    ):
        stub_sections(monkeypatch, bench, unmet={"gen"})
        assert bench.main(["--output", str(tmp_path / "b.json")]) == 0
        assert bench.main(
            ["--quick", "--strict", "--output", str(tmp_path / "b.json")]
        ) == 0
        out = capsys.readouterr().out
        assert "stub gen: 0.00x (target >= 1.0x) — NOT MET" in out
        assert "stub obs: 100.00x (target >= 1.0x) — MET" in out


class TestTargets:
    def test_the_seven_bounds(self, bench):
        assert bench.GEN_TARGET_SPEEDUP == 5.0
        assert bench.SWEEP_TARGET_SPEEDUP == 2.0
        assert bench.SWEEP_QUICK_TARGET_SPEEDUP == 1.2
        assert bench.SPEC_KERNEL_TARGET_SPEEDUP == 30.0
        assert bench.SPEC_KERNEL_QUICK_TARGET_SPEEDUP == 4.0
        assert bench.SCENARIO_TARGET_SPEEDUP == 3.0
        assert bench.SERVE_TARGET_SPEEDUP == 10.0
        assert bench.SERVE_QUICK_TARGET_SPEEDUP == 2.0
        assert bench.OBS_ENABLED_OVERHEAD_TARGET == 0.05
        assert bench.OBS_ENABLED_QUICK_OVERHEAD_TARGET == 0.15
        assert bench.OBS_DISABLED_OVERHEAD_TARGET == 0.01

    def test_overhead_gates_hold_an_upper_bound(self, bench):
        assert bench.Gate("o", "o", 0.05, 0.05, at_most=True).met
        assert not bench.Gate("o", "o", 0.051, 0.05, at_most=True).met
        assert bench.Gate("s", "s", 5.0, 5.0).met
        assert not bench.Gate("s", "s", 4.99, 5.0).met

    @pytest.mark.parametrize("flag", ["--section", "--workers"])
    def test_only_quick_strict_and_output_are_flags(self, bench, flag):
        with pytest.raises(SystemExit) as stop:
            bench.main([flag, "2"])
        assert stop.value.code == 2


class TestOracleImport:
    def test_oracles_load_once_next_to_an_oracle_test(self, bench):
        from tests.oracles import ORACLE_SOLVERS
        from tests.oracles.reference import ReferenceGen, ReferenceSpec

        assert "oracles" not in sys.modules
        assert bench.ORACLE_SOLVERS is ORACLE_SOLVERS
        assert bench.ReferenceGen is ReferenceGen
        assert bench.ReferenceSpec is ReferenceSpec
