"""Unit tests for the trace/metrics exporters."""

import json
import re

from repro.obs import (
    MetricsRegistry,
    TraceSpan,
    chrome_trace_events,
    chrome_trace_json,
    collapsed_stacks,
    prometheus_text,
)


def _record(
    span_id,
    parent_id=None,
    name="work",
    category="engine",
    start=0.0,
    duration=0.001,
    thread="pid-42/worker-0",
    sim=0.0,
    **attrs,
):
    return TraceSpan(
        trace_id="",
        span_id=f"{span_id:016x}",
        parent_id=f"{parent_id:016x}" if parent_id else "",
        name=name,
        category=category,
        sim_seconds=sim,
        start_wall_seconds=start,
        wall_seconds=duration,
        attrs=attrs,
        thread=thread,
    )


class TestChromeExport:
    def test_complete_events_carry_micros(self):
        events = chrome_trace_events(
            [_record(1, start=0.5, duration=0.25, points=3)]
        )
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 1
        event = complete[0]
        assert event["ts"] == 500000.0
        assert event["dur"] == 250000.0
        assert event["pid"] == 42
        assert event["cat"] == "engine"
        assert event["args"]["points"] == 3

    def test_thread_metadata_emitted_once_per_thread(self):
        events = chrome_trace_events(
            [
                _record(1, thread="pid-42/worker-0"),
                _record(2, thread="pid-42/worker-0"),
                _record(3, thread="pid-42"),
            ]
        )
        meta = [e for e in events if e["ph"] == "M"]
        assert len(meta) == 2
        names = {e["args"]["name"] for e in meta}
        assert names == {"worker-0", "main"}

    def test_sim_seconds_in_args(self):
        record = _record(1, sim=0.125)
        (event,) = [
            e for e in chrome_trace_events([record]) if e["ph"] == "X"
        ]
        assert event["args"]["sim_seconds"] == 0.125

    def test_full_document_is_valid_json(self):
        """Spans only: counts live on what produced them, so the
        document carries no ``otherData`` metrics block."""
        text = chrome_trace_json([_record(1)])
        document = json.loads(text)
        assert document["displayTimeUnit"] == "ms"
        assert "otherData" not in document
        assert any(e["ph"] == "X" for e in document["traceEvents"])


class TestCollapsedStacks:
    def test_stack_paths_and_self_time(self):
        records = [
            _record(1, name="root", duration=0.004),
            _record(2, parent_id=1, name="child", duration=0.003),
        ]
        lines = collapsed_stacks(records).splitlines()
        assert "root 1000" in lines  # 4ms - 3ms child time
        assert "root;child 3000" in lines

    def test_zero_weight_dropped_and_empty_ok(self):
        assert collapsed_stacks([]) == ""
        only_parent_time = [
            _record(1, name="root", duration=0.002),
            _record(2, parent_id=1, name="child", duration=0.002),
        ]
        lines = collapsed_stacks(only_parent_time).splitlines()
        assert lines == ["root;child 2000"]


class TestPrometheus:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("x3_ops_total", algorithm="BUC").inc(3)
        registry.gauge("x3_workers").set(2.5)
        text = prometheus_text(registry)
        assert "# TYPE x3_ops_total counter" in text
        assert 'x3_ops_total{algorithm="BUC"} 3' in text
        assert "# TYPE x3_workers gauge" in text
        assert "x3_workers 2.5" in text

    def test_histogram_buckets_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("x3_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        text = prometheus_text(registry)
        assert 'x3_seconds_bucket{le="0.1"} 1' in text
        assert 'x3_seconds_bucket{le="1"} 2' in text
        assert 'x3_seconds_bucket{le="+Inf"} 2' in text
        assert "x3_seconds_sum 0.55" in text
        assert "x3_seconds_count 2" in text

    def test_type_header_once_per_name(self):
        registry = MetricsRegistry()
        registry.counter("x3_ops_total", a="1").inc()
        registry.counter("x3_ops_total", a="2").inc()
        text = prometheus_text(registry)
        assert text.count("# TYPE x3_ops_total counter") == 1

    def test_labelled_registries_share_one_header_per_family(self):
        own = MetricsRegistry()
        own.gauge("x3_trace_sampled_total").set(1)
        first, second = MetricsRegistry(), MetricsRegistry()
        for registry, amount in ((first, 2), (second, 5)):
            registry.counter("x3_ops_total", tier="cache").inc(amount)
            registry.histogram("x3_seconds", buckets=(1.0,)).observe(0.5)
        text = prometheus_text(
            own, [({"cube": "a"}, first), ({"cube": "b"}, second)]
        )
        for name in ("x3_ops_total", "x3_seconds", "x3_trace_sampled_total"):
            assert text.count(f"# TYPE {name} ") == 1
        assert 'x3_ops_total{cube="a",tier="cache"} 2' in text
        assert 'x3_ops_total{cube="b",tier="cache"} 5' in text
        assert 'x3_seconds_bucket{cube="b",le="+Inf"} 1' in text
        assert "x3_trace_sampled_total 1" in text

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestPrometheusFormat:
    """Line-level conformance to the text exposition format 0.0.4."""

    LINE = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
        r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
        r" (\+Inf|-?[0-9.e+-]+)$"
    )

    def test_every_family_has_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("x3_ops_total").inc()
        registry.gauge("x3_serve_window_hit_ratio", window="60s").set(0.5)
        registry.histogram("x3_seconds", buckets=(1.0,)).observe(0.5)
        text = prometheus_text(registry)
        for name in (
            "x3_ops_total",
            "x3_serve_window_hit_ratio",
            "x3_seconds",
        ):
            assert f"# HELP {name} " in text
            assert f"# TYPE {name} " in text
            # HELP precedes TYPE precedes the samples
            assert text.index(f"# HELP {name}") < text.index(
                f"# TYPE {name}"
            )

    def test_known_series_get_curated_help_text(self):
        registry = MetricsRegistry()
        registry.gauge("x3_serve_window_hit_ratio", window="60s").set(0.5)
        registry.gauge("x3_trace_retained_total").set(3)
        text = prometheus_text(registry)
        assert (
            "# HELP x3_serve_window_hit_ratio Fraction of window "
            "requests" in text
        )
        assert "# HELP x3_trace_retained_total Traces tail-retained" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "x3_ops_total", point='$a:"rigid"\\$b', note="a\nb"
        ).inc()
        text = prometheus_text(registry)
        assert 'point="$a:\\"rigid\\"\\\\$b"' in text
        assert 'note="a\\nb"' in text

    def test_histogram_bucket_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.histogram(
            "x3_seconds", buckets=(1.0,), tier='cache"hit'
        ).observe(0.5)
        text = prometheus_text(registry)
        assert 'tier="cache\\"hit"' in text

    def test_sample_lines_match_the_grammar(self):
        registry = MetricsRegistry()
        registry.counter("x3_ops_total", algorithm="BUC").inc(3)
        registry.gauge("x3_serve_window_hit_ratio", window="60s").set(0.5)
        registry.histogram(
            "x3_seconds", buckets=(0.1, 1.0), tier="cache"
        ).observe(0.5)
        for line in prometheus_text(registry).strip().split("\n"):
            if line.startswith("#"):
                continue
            assert self.LINE.match(line), line
