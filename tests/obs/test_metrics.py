"""Metrics primitives: counters, gauges, histograms, fold, exposition."""

from __future__ import annotations

import pytest

from repro.obs import LATENCY_BUCKETS, MetricsRegistry, parse_prometheus


class TestCounter:
    def test_inc_and_state(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_widgets_total")
        counter.inc()
        counter.inc(4)
        assert counter.state() == 5

    def test_rejects_negative(self):
        counter = MetricsRegistry().counter("repro_widgets_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_labels_address_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("repro_events_total", mode="replay").inc(3)
        registry.counter("repro_events_total", mode="full").inc(1)
        assert registry.counter("repro_events_total", mode="replay").state() == 3
        assert registry.counter("repro_events_total", mode="full").state() == 1

    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_widgets_total")
        b = registry.counter("repro_widgets_total")
        assert a is b


class TestGauge:
    def test_set_inc(self):
        gauge = MetricsRegistry().gauge("repro_depth")
        gauge.set(10.0)
        gauge.inc(2.5)
        assert gauge.state() == 12.5

    def test_merge_keeps_merged_in_reading(self):
        parent = MetricsRegistry()
        parent.gauge("repro_depth").set(1.0)
        worker = MetricsRegistry()
        worker.gauge("repro_depth").set(7.0)
        parent.merge(worker)
        assert parent.gauge("repro_depth").state() == 7.0


class TestHistogram:
    def test_observe_buckets_sum_count(self):
        hist = MetricsRegistry().histogram(
            "repro_lat_seconds", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]  # (<=0.1, <=1.0, +Inf)
        assert hist.count == 3
        assert hist.sum == pytest.approx(5.55)

    def test_boundary_lands_in_le_bucket(self):
        # Prometheus `le` semantics: a sample equal to a bound belongs
        # to that bound's bucket.
        hist = MetricsRegistry().histogram(
            "repro_lat_seconds", buckets=(0.1, 1.0)
        )
        hist.observe(0.1)
        assert hist.counts == [1, 0, 0]

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MetricsRegistry().histogram("repro_bad", buckets=(1.0, 0.5))

    def test_rejects_bucket_schema_change(self):
        registry = MetricsRegistry()
        registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        with pytest.raises(ValueError, match="bucket schemas are fixed"):
            registry.histogram("repro_lat_seconds", buckets=(0.2, 2.0))

    def test_merge_rejects_mismatched_schemas(self):
        a = MetricsRegistry().histogram("repro_lat_seconds", buckets=(0.1,))
        b = MetricsRegistry().histogram("repro_lat_seconds", buckets=(0.2,))
        with pytest.raises(ValueError, match="mismatched bucket"):
            a.merge_state(b.state())

    def test_default_buckets_are_latency_shaped(self):
        hist = MetricsRegistry().histogram("repro_lat_seconds")
        assert hist.buckets == LATENCY_BUCKETS


class TestRegistryFold:
    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("repro_thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_thing")

    def test_snapshot_roundtrip_adds(self):
        parent = MetricsRegistry()
        parent.counter("repro_tasks_total").inc(2)
        parent.histogram("repro_lat_seconds", buckets=(1.0,)).observe(0.5)
        worker = MetricsRegistry()
        worker.counter("repro_tasks_total").inc(3)
        worker.counter("repro_retries_total").inc()
        worker.histogram("repro_lat_seconds", buckets=(1.0,)).observe(2.0)
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("repro_tasks_total").state() == 5
        assert parent.counter("repro_retries_total").state() == 1
        hist = parent.histogram("repro_lat_seconds", buckets=(1.0,))
        assert hist.counts == [1, 1]
        assert hist.count == 2

    def test_fold_order_does_not_matter(self):
        def worker(n):
            registry = MetricsRegistry()
            registry.counter("repro_tasks_total").inc(n)
            # Dyadic values: the folded sum is exact in either order.
            registry.histogram("repro_lat_seconds", buckets=(1.0,)).observe(
                n * 0.5
            )
            return registry.snapshot()

        snapshots = [worker(n) for n in (1, 2, 3)]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snap in snapshots:
            forward.merge_snapshot(snap)
        for snap in reversed(snapshots):
            backward.merge_snapshot(snap)
        assert forward.to_prometheus() == backward.to_prometheus()


class TestExposition:
    def test_text_format_parses_back(self):
        registry = MetricsRegistry()
        registry.counter("repro_tasks_total", backend="remote").inc(7)
        registry.gauge("repro_hit_ratio").set(0.75)
        registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0)).observe(
            0.05
        )
        text = registry.to_prometheus()
        assert "# TYPE repro_tasks_total counter" in text
        parsed = parse_prometheus(text)
        assert parsed["repro_tasks_total"]['{backend="remote"}'] == 7
        assert parsed["repro_hit_ratio"][""] == 0.75

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        lines = registry.to_prometheus().splitlines()
        buckets = [line for line in lines if "_bucket" in line]
        assert buckets == [
            'repro_lat_seconds_bucket{le="0.1"} 1',
            'repro_lat_seconds_bucket{le="1"} 2',
            'repro_lat_seconds_bucket{le="+Inf"} 3',
        ]
        assert "repro_lat_seconds_count 3" in lines

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            parse_prometheus("repro_bad_metric this-is-not-a-number\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""
