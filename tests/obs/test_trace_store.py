"""Unit tests for the bounded trace store (repro.obs.trace_store)."""

import contextvars
import json
import threading

import pytest

from repro import obs
from repro.obs import NULL_SPAN
from repro.obs.trace_store import MAX_SPANS_PER_TRACE, TraceStore


def bound():
    """Is any span (recording or not) bound in this context?"""
    return obs.current() is not NULL_SPAN


def make_store(**kwargs):
    kwargs.setdefault("seed", 0)
    return TraceStore(**kwargs)


class TestRoot:
    def test_sampled_root_records_a_trace(self):
        store = make_store()
        with store.root("http.request", category="http") as root:
            assert root.enabled
            assert bound()
            assert obs.current() is root
        assert not bound()
        traces = store.traces()
        assert len(traces) == 1
        record = traces[0]
        assert record.name == "http.request"
        assert record.status == "ok"
        assert record.spans[0].parent_id == ""
        assert record.trace_id == record.spans[0].trace_id

    def test_minted_context_is_deterministic_per_seed(self):
        ids = []
        for _ in range(2):
            store = make_store(seed=7)
            with store.root("r") as root:
                ids.append(root.trace_id_hex)
        assert ids[0] == ids[1]
        other = make_store(seed=8)
        with other.root("r") as root:
            assert root.trace_id_hex != ids[0]

    def test_upstream_traceparent_joins_the_trace(self):
        store = make_store()
        upstream = "00-" + "a" * 32 + "-" + "b" * 16 + "-01"
        with store.root("r", traceparent=upstream) as root:
            assert root.trace_id_hex == "a" * 32
            # the root parents under the upstream caller's span
            assert root.parent_hex == "b" * 16
        assert store.traces()[0].trace_id == "a" * 32

    def test_upstream_unsampled_verdict_is_honored(self):
        store = make_store()
        upstream = "00-" + "a" * 32 + "-" + "b" * 16 + "-00"
        with store.root("r", traceparent=upstream) as root:
            assert not root.enabled
            assert bound()  # bound so inner layers do not re-mint
            assert root.traceparent.endswith("-00")
            child = obs.span("inner")
            assert child is NULL_SPAN
        assert store.traces() == ()
        assert store.stats()["started"] == 1
        assert store.stats()["sampled"] == 0

    def test_malformed_traceparent_falls_back_to_minting(self):
        store = make_store()
        with store.root("r", traceparent="garbage") as root:
            assert root.enabled
            assert root.parent_hex == ""
        assert len(store.traces()) == 1

    def test_head_sampling_rate_zero_records_nothing(self):
        store = make_store(sample_rate=0.0)
        with store.root("r") as root:
            assert not root.enabled
            assert root.traceparent.endswith("-00")
        assert store.traces() == ()


class TestSpans:
    def test_children_nest_and_share_the_trace_id(self):
        store = make_store()
        with store.root("r") as root:
            with obs.span("a", category="serve") as a:
                with obs.span("b") as b:
                    assert b.trace_id_hex == root.trace_id_hex
                    assert b.parent_hex == a.span_id_hex
                assert a.parent_hex == root.span_id_hex
        record = store.traces()[0]
        assert len(record.spans) == 3
        assert {span.trace_id for span in record.spans} == {
            record.trace_id
        }

    def test_keyed_children_get_schedule_independent_ids(self):
        ids = []
        for _ in range(2):
            store = make_store(seed=3)
            with store.root("r") as root:
                spans = [
                    root.child("cluster.shard", key=f"s{n}")
                    for n in range(4)
                ]
                # enter/exit in reversed order: ids must not change
                for span in reversed(spans):
                    with span:
                        pass
            record = store.traces()[0]
            ids.append(
                sorted(
                    span.span_id
                    for span in record.spans
                    if span.name == "cluster.shard"
                )
            )
        assert ids[0] == ids[1]
        assert len(set(ids[0])) == 4

    def test_sibling_counter_distinguishes_unkeyed_children(self):
        store = make_store()
        with store.root("r") as root:
            with root.child("step"):
                pass
            with root.child("step"):
                pass
        record = store.traces()[0]
        step_ids = {
            span.span_id
            for span in record.spans
            if span.name == "step"
        }
        assert len(step_ids) == 2

    def test_exception_marks_span_and_trace_error(self):
        store = make_store()
        with pytest.raises(RuntimeError):
            with store.root("r"):
                with obs.span("inner"):
                    raise RuntimeError("boom")
        record = store.traces()[0]
        assert record.status == "error"
        assert record.retained == "error"
        inner = next(s for s in record.spans if s.name == "inner")
        assert inner.status == "error"
        assert inner.attrs["error"] == "RuntimeError"

    def test_deadline_status_is_tail_retained(self):
        store = make_store()
        with store.root("r") as root:
            root.set_status("deadline")
        record = store.traces()[0]
        assert record.status == "deadline"
        assert record.retained == "deadline"

    def test_annotate_and_set_sim_chain(self):
        store = make_store()
        with store.root("r") as root:
            root.annotate(tier="cache").set_sim(0.25)
        record = store.traces()[0]
        assert record.sim_seconds == 0.25
        assert record.spans[0].attrs["tier"] == "cache"

    def test_span_cap_drops_excess_spans(self):
        store = make_store()
        with store.root("r"):
            for n in range(MAX_SPANS_PER_TRACE + 7):
                with obs.span(f"s{n}"):
                    pass
        record = store.traces()[0]
        # 512 children kept (the cap counts children) plus the root,
        # which arrives after the cap fills and is kept anyway
        assert len(record.spans) == MAX_SPANS_PER_TRACE + 1 == 513
        assert store.stats()["dropped_spans"] == 7

    def test_span_cap_always_keeps_the_root(self):
        store = make_store()
        with store.root("r"):
            for n in range(MAX_SPANS_PER_TRACE + 2):
                with obs.span(f"c{n:04d}"):
                    pass
        (record,) = store.traces()
        root, *children = record.spans
        assert (root.name, root.parent_id) == ("r", "")
        assert sorted(child.name for child in children) == [
            f"c{n:04d}" for n in range(MAX_SPANS_PER_TRACE)
        ]
        # no orphans: every kept child hangs off the kept root
        assert {child.parent_id for child in children} == {root.span_id}


class TestAbsorb:
    """Spans a process worker shipped back land in the request trace
    as they are: the worker derived their ids from the span it was
    handed, so nothing is remapped."""

    @staticmethod
    def shipped(context):
        with obs.trace(remote=context) as local:
            with obs.span("engine.partition", category="engine", key="p0"):
                with obs.span(
                    "algo.NAIVE", category="algorithm"
                ) as algo:
                    algo.set_sim(0.2)
        return local.records()

    def test_engine_records_remap_ids_under_the_span(self):
        """(Named for the bridge it used to pin.)  A worker's records
        need no id remap any more: they sit under the span as shipped."""
        store = make_store()
        with store.root("r") as root:
            records = self.shipped(root.context)
            root.adopt(records)
            root_span_id = root.span_id_hex
        record = store.traces()[0]
        by_name = {span.name: span for span in record.spans}
        top = by_name["engine.partition"]
        child = by_name["algo.NAIVE"]
        # the worker's top span parents under the adopting span; its
        # child keeps the parent it was recorded with
        assert top.parent_id == root_span_id
        assert child.parent_id == top.span_id
        # appended as shipped: same ids, nothing remapped
        assert sorted(
            (top, child), key=lambda span: span.name
        ) == sorted(records, key=lambda span: span.name)
        assert child.sim_seconds == 0.2
        assert {span.trace_id for span in record.spans} == {
            record.trace_id
        }

    def test_absorb_is_deterministic(self):
        outs = []
        for _ in range(2):
            store = make_store(seed=5)
            with store.root("r") as root:
                root.adopt(self.shipped(root.context))
            outs.append(
                [span.span_id for span in store.traces()[0].spans]
            )
        assert outs[0] == outs[1]
        assert len(set(outs[0])) == 3

    def test_absorb_empty_is_zero(self):
        store = make_store()
        with store.root("r") as root:
            root.adopt([])
        assert len(store.traces()[0].spans) == 1


class TestCaptureResume:
    """Hand-off is ``contextvars.copy_context().run``: the copy carries
    the binding, a fresh context carries none."""

    def test_cross_thread_handoff_keeps_the_parent(self):
        store = make_store()
        seen = {}

        def worker():
            with obs.span("pool.work") as span:
                seen["trace"] = span.trace_id_hex
                seen["parent"] = span.parent_hex

        with store.root("r") as root:
            thread = threading.Thread(
                target=contextvars.copy_context().run, args=(worker,)
            )
            thread.start()
            thread.join()
            expected_parent = root.span_id_hex
            expected_trace = root.trace_id_hex
        assert seen["trace"] == expected_trace
        assert seen["parent"] == expected_parent
        assert len(store.traces()[0].spans) == 2

    def test_resume_none_is_a_noop(self):
        def body():
            assert not bound()
            assert obs.span("x") is NULL_SPAN

        store = make_store()
        with store.root("r"):
            contextvars.Context().run(body)

    def test_capture_without_binding_is_none(self):
        seen = []
        contextvars.copy_context().run(lambda: seen.append(bound()))
        assert seen == [False]

    def test_unsampled_binding_resumes_without_recording(self):
        store = make_store(sample_rate=0.0)

        def body():
            assert bound()
            assert obs.span("x") is NULL_SPAN

        with store.root("r"):
            handed = contextvars.copy_context()
        handed.run(body)
        assert store.traces() == ()


class TestStoreBounds:
    def test_ring_eviction_keeps_the_newest(self):
        store = make_store(capacity=2)
        for n in range(5):
            with store.root(f"r{n}"):
                pass
        traces = store.traces()
        assert [record.name for record in traces] == ["r3", "r4"]
        assert store.stats()["dropped_traces"] == 3

    def test_retained_pool_survives_ring_eviction(self):
        store = make_store(capacity=2)
        with store.root("bad") as root:
            root.set_status("error")
        for n in range(10):
            with store.root(f"ok{n}"):
                pass
        names = {record.name for record in store.traces()}
        assert "bad" in names

    def test_slow_tail_retention_kicks_in_above_p99(self):
        store = make_store()
        # 30 fast requests to build the window, then one 100x outlier
        for _ in range(30):
            with store.root("fast") as root:
                root.set_sim(0.001)
        with store.root("slow") as root:
            root.set_sim(0.1)
        slow = next(
            record
            for record in store.traces()
            if record.name == "slow"
        )
        assert slow.retained == "slow"

    def test_get_and_stats(self):
        store = make_store()
        with store.root("r") as root:
            trace_id = root.trace_id_hex
        assert store.get(trace_id).trace_id == trace_id
        assert store.get("nope") is None
        stats = store.stats()
        assert stats["started"] == stats["sampled"] == 1
        assert stats["finished"] == stats["stored"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)


class TestJsonl:
    def test_canonical_lines_parse_and_sort_keys(self):
        store = make_store()
        with store.root("r") as root:
            with obs.span("inner"):
                pass
            root.set_sim(0.5)
        text = store.to_jsonl()
        assert text.endswith("\n")
        lines = text.strip().split("\n")
        assert len(lines) == 1
        decoded = json.loads(lines[0])
        assert decoded["name"] == "r"
        assert list(decoded) == sorted(decoded)
        # canonical separators: no spaces
        assert ": " not in lines[0] and ", " not in lines[0]

    def test_two_seeded_runs_identical_modulo_wall_keys(self):
        def run():
            store = make_store(seed=11)
            for n in range(3):
                with store.root("r", n=n) as root:
                    with obs.span("inner", key=f"k{n}"):
                        pass
                    root.set_sim(0.01 * (n + 1))
            return store.to_jsonl()

        def strip_wall(text):
            out = []
            for line in text.strip().split("\n"):
                record = json.loads(line)
                record.pop("wall_seconds", None)
                for span in record["spans"]:
                    span.pop("wall_seconds", None)
                    span.pop("start_wall_seconds", None)
                out.append(
                    json.dumps(
                        record, sort_keys=True, separators=(",", ":")
                    )
                )
            return "\n".join(out)

        assert strip_wall(run()) == strip_wall(run())

    def test_write_jsonl_returns_count(self, tmp_path):
        store = make_store()
        for _ in range(2):
            with store.root("r"):
                pass
        path = tmp_path / "traces.jsonl"
        assert store.write_jsonl(str(path)) == 2
        assert len(path.read_text().strip().split("\n")) == 2
