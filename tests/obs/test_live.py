"""Unit tests for live serving telemetry (repro.obs.live)."""

import pytest

from repro.obs.events import EvictionRecord
from repro.obs.export import prometheus_text
from repro.obs.live import (
    MAX_SAMPLES,
    SERVE_LATENCY_BUCKETS,
    WINDOW_QUANTILES,
    LiveTelemetry,
    percentile,
)


class FakeClock:
    """An injectable monotonic clock tests advance by hand."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def request(tier="cache", point="$a:rigid", modeled=1e-5, wall=2e-5):
    """The fields ``LiveTelemetry.record`` takes for one request."""
    return tier, point, modeled, wall


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.95) == 0.0

    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.0) == 100.0

    def test_single_sample(self):
        assert percentile([7.0], 0.95) == 7.0

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 0.50) == 2.0

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestWindows:
    def test_requires_windows(self):
        with pytest.raises(ValueError):
            LiveTelemetry(windows=())
        with pytest.raises(ValueError):
            LiveTelemetry(windows=(-5.0,))

    def test_snapshot_counts_and_quantiles(self):
        clock = FakeClock()
        telemetry = LiveTelemetry(windows=(60.0,), clock=clock)
        for modeled in (1e-5, 2e-5, 3e-5, 4e-5):
            telemetry.record(*request(modeled=modeled))
        snap = telemetry.snapshot()
        assert snap.requests == 4
        assert snap.modeled_quantiles[0.50] == 2e-5
        assert snap.modeled_quantiles[0.95] == 4e-5
        assert snap.hit_ratio == 1.0

    def test_old_samples_age_out_of_the_window(self):
        clock = FakeClock()
        telemetry = LiveTelemetry(windows=(60.0,), clock=clock)
        telemetry.record(*request())
        clock.advance(61.0)
        telemetry.record(*request())
        snap = telemetry.snapshot()
        assert snap.requests == 1

    def test_windows_see_different_horizons(self):
        clock = FakeClock()
        telemetry = LiveTelemetry(windows=(60.0, 300.0), clock=clock)
        telemetry.record(*request())
        clock.advance(120.0)
        telemetry.record(*request())
        short, long = telemetry.snapshots()
        assert short.window_seconds == 60.0
        assert short.requests == 1
        assert long.requests == 2

    def test_hit_ratio_counts_everything_above_recompute(self):
        clock = FakeClock()
        telemetry = LiveTelemetry(windows=(60.0,), clock=clock)
        for tier in ("cache", "rollup", "recompute", "recompute"):
            telemetry.record(*request(tier=tier))
        snap = telemetry.snapshot()
        assert snap.hit_ratio == 0.5
        assert snap.tiers == {"cache": 1, "rollup": 1, "recompute": 2}

    def test_top_points(self):
        clock = FakeClock()
        telemetry = LiveTelemetry(windows=(60.0,), clock=clock, top_k=2)
        for point in ("$a", "$a", "$a", "$b", "$b", "$c"):
            telemetry.record(*request(point=point))
        snap = telemetry.snapshot()
        assert snap.top_points == (("$a", 3), ("$b", 2))

    def test_eviction_churn(self):
        clock = FakeClock()
        telemetry = LiveTelemetry(windows=(60.0,), clock=clock)
        telemetry.record_eviction(
            EvictionRecord("evicted", "$a", 0.1, 8)
        )
        clock.advance(61.0)
        telemetry.record_eviction(
            EvictionRecord("admitted", "$b", 0.2, 4)
        )
        assert telemetry.snapshot().evictions == 1


class TestSampleCap:
    """Past :data:`MAX_SAMPLES` entries in the longest window the oldest
    in-window ones fall off; a snapshot says how much time it covers."""

    @staticmethod
    def flood(telemetry, clock, count, seconds):
        for _ in range(count):
            clock.advance(seconds / count)
            telemetry.record(*request())

    def test_a_cut_window_reports_the_span_it_covers(self):
        clock = FakeClock()
        telemetry = LiveTelemetry(windows=(60.0, 300.0), clock=clock)
        self.flood(telemetry, clock, 70_000, 100.0)
        short, long = telemetry.snapshots()
        # 70 000 requests in 100 s: the 300 s window holds the last
        # 65 536, which span the last 93.6 s.
        assert long.requests == MAX_SAMPLES
        assert long.cut and long.covered_seconds == pytest.approx(
            100.0 * MAX_SAMPLES / 70_000, abs=0.01
        )
        # The last 60 s all fit under the cap: that window is whole.
        assert not short.cut and short.covered_seconds == 60.0
        assert short.requests == pytest.approx(42_000, abs=1)  # float steps

    def test_an_uncut_window_covers_its_length(self):
        clock = FakeClock()
        telemetry = LiveTelemetry(windows=(60.0, 300.0), clock=clock)
        self.flood(telemetry, clock, 1_000, 100.0)
        for window in telemetry.snapshots():
            assert window.covered_seconds == window.window_seconds
            assert not window.cut
        assert telemetry.snapshot(300.0).requests == 1_000

    def test_churn_counts_over_the_same_span(self):
        clock = FakeClock()
        telemetry = LiveTelemetry(windows=(300.0,), clock=clock)
        for _ in range(MAX_SAMPLES + 10):
            clock.advance(0.001)
            telemetry.record_eviction(EvictionRecord("evicted", "$a", 0.1, 8))
        clock.advance(0.001)
        telemetry.record(*request())
        snap = telemetry.snapshot()
        assert snap.cut and snap.evictions == MAX_SAMPLES
        assert snap.covered_seconds == pytest.approx(
            0.001 * (MAX_SAMPLES + 1), abs=1e-6
        )

    def test_a_cut_window_ages_back_to_whole(self):
        clock = FakeClock()
        telemetry = LiveTelemetry(windows=(60.0,), clock=clock)
        self.flood(telemetry, clock, MAX_SAMPLES + 1, 10.0)
        assert telemetry.snapshot().cut
        clock.advance(61.0)
        telemetry.record(*request())
        snap = telemetry.snapshot()
        assert not snap.cut and snap.requests == 1


class TestSlo:
    def test_burn_rate_scales_by_error_budget(self):
        clock = FakeClock()
        telemetry = LiveTelemetry(
            windows=(60.0,),
            clock=clock,
            slo_modeled_seconds=1e-4,
        )
        # 1 violation in 100 requests burns exactly the 1% budget.
        for index in range(100):
            modeled = 1e-3 if index == 0 else 1e-5
            telemetry.record(*request(modeled=modeled))
        snap = telemetry.snapshot()
        assert snap.slo_violations == 1
        assert snap.slo_burn_rate == pytest.approx(1.0)

    def test_no_traffic_means_no_burn(self):
        snap = LiveTelemetry(windows=(60.0,)).snapshot()
        assert snap.requests == 0
        assert snap.slo_burn_rate == 0.0
        assert snap.hit_ratio == 0.0


class TestRegistryExport:
    def test_counters_and_histograms(self):
        clock = FakeClock()
        telemetry = LiveTelemetry(
            windows=(60.0,), clock=clock, slo_modeled_seconds=1e-4
        )
        telemetry.record(*request(tier="cache", modeled=1e-5))
        telemetry.record(*request(tier="recompute", modeled=1e-2))
        registry = telemetry.registry
        assert registry.value(
            "x3_serve_requests_total", tier="cache"
        ) == 1.0
        assert registry.value("x3_serve_slo_violations_total") == 1.0

    def test_refresh_gauges_and_prometheus_names(self):
        clock = FakeClock()
        telemetry = LiveTelemetry(windows=(60.0,), clock=clock)
        telemetry.record(*request())
        telemetry.record_eviction(
            EvictionRecord("admitted", "$a", 0.2, 4)
        )
        snapshots = telemetry.refresh_gauges()
        assert len(snapshots) == 1
        text = prometheus_text(telemetry.registry)
        for name in (
            "x3_serve_requests_total",
            "x3_serve_request_modeled_seconds",
            "x3_serve_request_wall_seconds",
            "x3_serve_cache_audit_total",
            "x3_serve_window_modeled_latency_seconds",
            "x3_serve_window_wall_latency_seconds",
            "x3_serve_window_requests",
            "x3_serve_window_hit_ratio",
            "x3_serve_window_eviction_churn",
            "x3_serve_window_slo_burn_rate",
        ):
            assert name in text, name
        assert 'window="60s"' in text
        assert 'quantile="p95"' in text

    def test_gauge_values_match_snapshot(self):
        clock = FakeClock()
        telemetry = LiveTelemetry(windows=(60.0,), clock=clock)
        for modeled in (1e-5, 2e-5, 3e-5):
            telemetry.record(*request(modeled=modeled))
        snap = telemetry.refresh_gauges()[0]
        for q in WINDOW_QUANTILES:
            assert telemetry.registry.value(
                "x3_serve_window_modeled_latency_seconds",
                window="60s",
                quantile=snap.quantile_label(q),
            ) == snap.modeled_quantiles[q]

    def test_buckets_cover_the_modeled_range(self):
        assert SERVE_LATENCY_BUCKETS[0] <= 1e-6
        assert SERVE_LATENCY_BUCKETS[-1] == float("inf")
