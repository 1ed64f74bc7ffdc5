"""Tests for experiment and result-set serialization."""

import json

import pytest

from repro.sim.serialization import (
    experiment_from_dict,
    experiment_to_csv,
    experiment_to_dict,
)


def to_json(result):
    """An experiment's dict form as JSON text."""
    return json.dumps(experiment_to_dict(result), indent=1, sort_keys=True)


def from_json(text):
    """Rebuild an experiment from :func:`to_json` text."""
    return experiment_from_dict(json.loads(text))


@pytest.fixture(scope="module")
def small_result():
    from repro.api import ExperimentPlan, SolverSpec, SweepSpec, run_plan
    from repro.sim.runner import ExperimentResult

    plan = ExperimentPlan(
        name="ser test",
        sweep=SweepSpec("capacity", (0.1, 0.2)),
        solvers=(
            SolverSpec("gen", label="Gen"),
            SolverSpec("independent", label="Independent"),
        ),
        base=dict(num_servers=2, num_users=4, num_models=6),
        num_topologies=2,
        seed=0,
        scale=1.0,
    )
    result = run_plan(plan)
    # A plain, plan-less ExperimentResult: the experiment serialisers
    # take any figure result, not only executed plans.
    return ExperimentResult(
        name=result.name,
        x_label=result.x_label,
        x_values=result.x_values,
        series=result.series,
        runtimes=result.runtimes,
        metadata=result.metadata,
    )


class TestExperimentExport:
    def test_dict_structure(self, small_result):
        payload = experiment_to_dict(small_result)
        assert payload["name"] == "ser test"
        assert payload["x_values"] == [0.1, 0.2]
        assert set(payload["series"]) == {"Gen", "Independent"}
        assert len(payload["series"]["Gen"]["mean"]) == 2
        assert payload["metadata"]["num_topologies"] == 2

    def test_json_parses(self, small_result):
        payload = json.loads(to_json(small_result))
        assert payload["x_label"] == "Q (GB, paper scale)"

    def test_csv_shape(self, small_result):
        csv_text = experiment_to_csv(small_result)
        lines = [line for line in csv_text.strip().splitlines()]
        assert len(lines) == 3  # header + 2 sweep points
        assert lines[0].startswith('"Q (GB, paper scale)",Gen mean,Gen std')
        assert lines[1].startswith("0.1,")


class TestExperimentRoundTrip:
    def test_from_json_rebuilds_series(self, small_result):

        restored = from_json(to_json(small_result))
        assert restored.name == small_result.name
        assert restored.x_label == small_result.x_label
        assert list(restored.series) == list(small_result.series)
        for algo in small_result.series:
            assert (
                restored.series[algo].means == small_result.series[algo].means
            ).all()
            assert (
                restored.series[algo].stds == small_result.series[algo].stds
            ).all()
            assert (
                restored.series[algo].counts == small_result.series[algo].counts
            ).all()

    def test_to_json_from_json_to_json_is_identity(self, small_result):

        text = to_json(small_result)
        assert to_json(from_json(text)) == text

    def test_extrema_travel_with_the_series(self, small_result):
        """min/max are serialised and restored — no NaN placeholder."""

        payload = experiment_to_dict(small_result)
        for moments in payload["series"].values():
            assert "min" in moments and "max" in moments
        restored = from_json(to_json(small_result))
        for algo in small_result.series:
            assert (
                restored.series[algo].minima
                == small_result.series[algo].minima
            ).all()
            assert (
                restored.series[algo].maxima
                == small_result.series[algo].maxima
            ).all()

    def test_legacy_payload_without_extrema_restores_nan(self, small_result):
        """Pre-extrema payloads still load; extrema report NaN."""
        import math


        payload = json.loads(to_json(small_result))
        for moments in payload["series"].values():
            moments.pop("min")
            moments.pop("max")
        restored = from_json(json.dumps(payload))
        stats = restored.series["Gen"].stat_at(0)
        assert math.isnan(stats.minimum)
        assert math.isnan(stats.maximum)

    def test_non_finite_extrema_serialise_as_null(self):
        """NaN/inf extrema become null — output stays strict JSON."""
        import math

        from repro.sim.runner import ExperimentResult
        from repro.utils.stats import SeriesStats

        # A legacy-restored series (NaN placeholders) and an empty one
        # (inf extrema) both re-serialise without bare NaN/Infinity.
        legacy = SeriesStats.from_moments([1.0], [0.5], [0.1], [3])
        result = ExperimentResult(
            name="n", x_label="x", x_values=[1.0],
            series={"a": legacy, "b": SeriesStats([1.0])},
        )
        text = to_json(result)
        assert "NaN" not in text and "Infinity" not in text
        json.loads(text, parse_constant=lambda _: pytest.fail("non-RFC token"))
        # Round trip is still the identity, with the placeholders back.
        restored = from_json(text)
        assert math.isnan(restored.series["a"].stat_at(0).minimum)
        assert restored.series["b"].stat_at(0).minimum == math.inf
        assert to_json(restored) == text

    def test_property_round_trip_identity(self):
        """to_json -> from_json -> to_json is the identity for arbitrary
        accumulated series (property-based)."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.sim.runner import ExperimentResult
        from repro.utils.stats import SeriesStats

        @settings(max_examples=50, deadline=None)
        @given(
            x_values=st.lists(
                st.floats(
                    min_value=0.01,
                    max_value=100,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=1,
                max_size=4,
            ),
            runs=st.integers(min_value=1, max_value=5),
            data=st.data(),
        )
        def check(x_values, runs, data):
            series = SeriesStats(x_values)
            sample = st.floats(
                min_value=0.0, max_value=1.0, allow_nan=False
            )
            for _ in range(runs):
                series.add_run(
                    [data.draw(sample) for _ in x_values]
                )
            result = ExperimentResult(
                name="prop",
                x_label="x",
                x_values=x_values,
                series={"algo": series},
                metadata={"seed": 0},
            )
            text = to_json(result)
            assert to_json(from_json(text)) == text

        check()

    def test_bad_format_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="format"):
            experiment_from_dict({"format": "nope"})

    def test_malformed_payload_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="malformed"):
            experiment_from_dict({"format": "trimcaching-experiment-v1"})


class TestResultSetRoundTrip:
    def test_plan_travels_with_the_result(self):
        from repro.api import ExperimentPlan, SolverSpec, SweepSpec, run_plan
        from repro.sim.serialization import (
            result_set_from_json,
            result_set_to_json,
        )

        plan = ExperimentPlan(
            name="ser plan",
            sweep=SweepSpec("capacity", (0.1, 0.2)),
            solvers=(SolverSpec("gen"),),
            base={"num_servers": 2, "num_users": 4, "num_models": 6},
            num_topologies=1,
        )
        result = run_plan(plan)
        text = result_set_to_json(result)
        restored = result_set_from_json(text)
        assert restored.plan == plan
        assert result_set_to_json(restored) == text

    def test_plain_experiment_serialises_without_plan(self, small_result):
        from repro.sim.serialization import (
            result_set_from_json,
            result_set_to_json,
        )

        restored = result_set_from_json(result_set_to_json(small_result))
        assert restored.plan is None
        assert restored.name == small_result.name

    def test_bad_format_rejected(self):
        from repro.errors import ReproError
        from repro.sim.serialization import result_set_from_json

        with pytest.raises(ReproError, match="format"):
            result_set_from_json(json.dumps({"format": "nope"}))
