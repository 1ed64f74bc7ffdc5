"""Sweep plans through the one executor, and experiment results.

Monte Carlo scoring of a sweep is pinned absolutely by the
``fig4a-monte-carlo`` case of ``tests/api/test_figure_golden.py``.
"""

import pytest

from repro.api import ExperimentPlan, SolverSpec, SweepSpec, run_plan
from repro.core import SpecConfig
from repro.errors import ConfigurationError


def capacity_plan(base, solvers, points, name="test sweep", **overrides):
    """A capacity sweep whose points are plain GB (``scale=1.0``)."""
    return ExperimentPlan(
        name=name,
        sweep=SweepSpec("capacity", tuple(points)),
        solvers=tuple(solvers),
        base=base,
        scale=1.0,
        **overrides,
    )


GEN = SolverSpec("gen", label="Gen")
INDEPENDENT = SolverSpec("independent", label="Independent")


@pytest.fixture(scope="module")
def small_sweep():
    plan = capacity_plan(
        dict(num_servers=2, num_users=5, num_models=6),
        (GEN, INDEPENDENT),
        [0.1, 0.3],
        num_topologies=3,
        seed=0,
    )
    return run_plan(plan)


class TestSweepPlan:
    def test_series_shapes(self, small_sweep):
        assert set(small_sweep.series) == {"Gen", "Independent"}
        for series in small_sweep.series.values():
            assert len(series.means) == 2
            assert (series.counts == 3).all()

    def test_hit_ratio_increases_with_capacity(self, small_sweep):
        means = small_sweep.mean_of("Gen")
        assert means[1] >= means[0]

    def test_runtimes_recorded(self, small_sweep):
        assert (small_sweep.runtimes["Gen"].counts == 3).all()
        assert (small_sweep.runtimes["Gen"].means >= 0).all()

    def test_table_rendering(self, small_sweep):
        table = small_sweep.to_table()
        assert "Q (GB, paper scale)" in table
        assert "Gen (mean)" in table
        assert "test sweep" in table

    def test_metadata(self, small_sweep):
        assert small_sweep.metadata["num_topologies"] == 3

    def test_reproducible(self):
        plan = ExperimentPlan(
            name="x",
            sweep=SweepSpec("users", (4,)),
            solvers=(GEN,),
            base=dict(num_servers=2, num_users=4, num_models=6),
            num_topologies=2,
            seed=9,
        )
        assert run_plan(plan).mean_of("Gen") == pytest.approx(
            run_plan(plan).mean_of("Gen")
        )

    def test_validation(self):
        base = dict(num_servers=2, num_users=4, num_models=6)
        with pytest.raises(ConfigurationError):
            capacity_plan(base, (), [0.1])
        for bad in (
            dict(num_topologies=0),
            dict(evaluation="magic"),
            dict(workers=0),
            dict(feasibility="csc"),
        ):
            with pytest.raises(ConfigurationError):
                capacity_plan(base, (GEN,), [0.1], **bad)


class TestParallelDeterminism:
    """``workers=N`` must reproduce the serial series bit for bit."""

    @staticmethod
    def _run(workers: int):
        plan = capacity_plan(
            dict(
                library_case="special",
                num_servers=3,
                num_users=10,
                num_models=9,
                requests_per_user=5,
            ),
            (
                SolverSpec("spec", label="Spec", config=SpecConfig(epsilon=0.1)),
                GEN,
                INDEPENDENT,
            ),
            [0.05, 0.1, 0.2],
            name="determinism",
            num_topologies=3,
            num_realizations=10,
            seed=5,
            workers=workers,
        )
        return run_plan(plan)

    def test_workers4_bit_identical_series(self):
        serial = self._run(workers=1)
        parallel = self._run(workers=4)
        assert set(serial.series) == set(parallel.series)
        for algo in serial.series:
            assert (
                serial.series[algo].means == parallel.series[algo].means
            ).all()
            assert (
                serial.series[algo].stds == parallel.series[algo].stds
            ).all()
            assert (
                serial.series[algo].counts == parallel.series[algo].counts
            ).all()
        assert parallel.metadata["workers"] == 4

    def test_workers_exceeding_topologies(self):
        """More workers than topologies still aggregates correctly."""
        serial = self._run(workers=1)
        oversubscribed = self._run(workers=16)
        for algo in serial.series:
            assert (
                serial.series[algo].means == oversubscribed.series[algo].means
            ).all()

    def test_dense_feasibility_mode_matches(self):
        """The dense-instance pipeline scores the same series (the CSR is
        a representation change, not a behavioural one)."""

        def run(feasibility):
            return run_plan(
                capacity_plan(
                    dict(num_servers=2, num_users=6, num_models=6),
                    (GEN,),
                    [0.1, 0.2],
                    name="mode",
                    num_topologies=2,
                    seed=1,
                    feasibility=feasibility,
                )
            )

        assert (
            run("sparse").mean_of("Gen") == run("dense").mean_of("Gen")
        ).all()
