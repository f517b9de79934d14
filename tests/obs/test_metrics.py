"""Unit tests for the live metrics registry."""

import math

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("x3_things_total", kind="a")
        b = registry.counter("x3_things_total", kind="a")
        assert a is b
        assert registry.counter("x3_things_total", kind="b") is not a

    def test_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("x3_things_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_rejected(self):
        counter = Counter("x3_things_total", ())
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge("x3_level", ())
        gauge.set(4)
        gauge.inc(-1.5)
        assert gauge.value == 2.5


class TestHistogram:
    def test_buckets_are_cumulative(self):
        histogram = Histogram("x3_seconds", (), buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(100.0)
        # bounds: (0.1, 1.0, +Inf); every bucket counts values <= bound.
        assert histogram.bounds == (0.1, 1.0, math.inf)
        assert histogram.bucket_counts == [1, 2, 3]
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(100.55)
        assert histogram.mean == pytest.approx(100.55 / 3)

    def test_inf_bucket_always_appended(self):
        histogram = Histogram("x3_seconds", (), buckets=(1.0, 2.0))
        assert histogram.bounds[-1] == math.inf


class TestRegistryReads:
    def test_value_and_total(self):
        registry = MetricsRegistry()
        registry.counter("x3_ops_total", algorithm="BUC").inc(3)
        registry.counter("x3_ops_total", algorithm="TD").inc(4)
        assert registry.value("x3_ops_total", algorithm="BUC") == 3
        assert registry.value("x3_ops_total", algorithm="NOPE") is None
        assert registry.total("x3_ops_total") == 7
        assert registry.total("absent") == 0.0

    def test_as_dict_and_len(self):
        registry = MetricsRegistry()
        registry.counter("x3_ops_total", algorithm="BUC").inc(3)
        registry.gauge("x3_level").set(2)
        assert registry.as_dict() == {
            'x3_ops_total{algorithm="BUC"}': 3.0,
            "x3_level": 2.0,
        }
        assert len(registry) == 2

    def test_collect_is_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.gauge("b")
        registry.counter("a")
        names = [(m.kind, m.name) for m in registry.collect()]
        assert names == sorted(names)
