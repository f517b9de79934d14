"""End-to-end tracing: one traced pipeline, one coherent Chrome trace.

The acceptance bar for the observability layer: a traced 2-worker engine
run exports a single well-formed ``trace_event`` JSON containing spans
from at least four layers — XML parsing, the cost model's sorts, the
cube algorithm, and the engine's partition/merge stages.
"""

import json

import pytest

from repro import obs
from repro.core.cube import ExecutionOptions, compute_cube
from repro.datagen.publications import figure1_document
from repro.testing import small_workload
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize


@pytest.fixture()
def traced_pipeline():
    """Parse → 2-worker cube run, all in one session.  The row-form TD
    kernel sorts through the cost model, so its sorts are spanned."""
    xml_text = serialize(figure1_document())
    table = small_workload().fact_table()
    with obs.trace() as session:
        parse(xml_text, name="e2e")
        result = compute_cube(
            table,
            ExecutionOptions(
                algorithm="TD", workers=2, engine="thread", encoding="dict"
            ),
        )
    return session.trace(), result


class TestEndToEndTrace:
    def test_four_layers_present(self, traced_pipeline):
        trace, _ = traced_pipeline
        categories = set(trace.categories())
        assert {"parse", "cost", "algorithm", "engine"} <= categories

    def test_single_coherent_tree(self, traced_pipeline):
        trace, _ = traced_pipeline
        ids = {record.span_id for record in trace.records}
        assert len(ids) == len(trace.records)  # ids unique
        for record in trace.records:
            assert record.parent_id == "" or record.parent_id in ids

    def test_worker_partitions_parented_under_engine_run(
        self, traced_pipeline
    ):
        trace, _ = traced_pipeline
        (run,) = trace.spans_named("engine.run")
        partitions = trace.spans_named("engine.partition")
        assert len(partitions) >= 2  # 2-worker run
        assert all(p.parent_id == run.span_id for p in partitions)
        # worker threads report into the same trace; a pool thread may
        # pick up several partitions, so require only that every span
        # carries a thread id, not that two distinct threads appear
        assert all(p.thread for p in partitions)

    def test_chrome_export_well_formed(self, traced_pipeline):
        trace, _ = traced_pipeline
        document = json.loads(trace.to_chrome_json())
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(trace.records)
        for event in complete:
            assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["dur"] >= 0
        exported_cats = {e["cat"] for e in complete}
        assert {"parse", "cost", "algorithm", "engine"} <= exported_cats

    def test_result_trace_attached(self, traced_pipeline):
        _, result = traced_pipeline
        assert result.trace is not None
        assert "engine.run" in result.trace.span_names()

    def test_collapsed_export_nonempty(self, traced_pipeline):
        trace, _ = traced_pipeline
        assert trace.to_collapsed().strip()


class TestDisabledOverhead:
    def test_untraced_run_allocates_no_spans(self, monkeypatch):
        table = small_workload().fact_table()
        opened = []
        real = obs.OpenSpan.__init__

        def counting(self, *args, **kwargs):
            opened.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(obs.OpenSpan, "__init__", counting)
        result = compute_cube(table, ExecutionOptions(algorithm="BUC"))
        assert result.trace is None
        assert opened == []
        assert obs.enabled() is False
