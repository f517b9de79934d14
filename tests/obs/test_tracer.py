"""Unit tests for the span model inside an ``obs.trace()`` session."""

import contextvars
import threading
from dataclasses import replace

import pytest

from repro import obs
from repro.obs import NULL_SPAN, TraceContext


class FakeCost:
    """A stand-in cost model with a controllable simulated clock."""

    def __init__(self):
        self.seconds = 0.0

    def simulated_seconds(self):
        return self.seconds


class TestDisabledPath:
    def test_disabled_span_is_the_shared_singleton(self):
        # Zero allocations: with nothing bound every span() call
        # returns the one module-level singleton, identically.
        first = obs.span("a", category="x", anything=1)
        second = obs.span("b")
        assert first is NULL_SPAN
        assert second is NULL_SPAN
        assert first.enabled is False
        # ... and so does every child of a span that is not recording
        assert NULL_SPAN.child("c", key="k") is NULL_SPAN

    def test_disabled_span_records_nothing(self):
        with obs.span("a") as a:
            with obs.span("b"):
                # the no-op never binds, so nothing nests under it
                assert obs.current() is NULL_SPAN
        assert a.attrs == {}
        assert obs.session() is None

    def test_null_span_annotate_is_noop(self):
        assert NULL_SPAN.annotate(x=1) is NULL_SPAN
        assert NULL_SPAN.set_sim(1.0).set_status("error") is NULL_SPAN
        assert NULL_SPAN.attrs == {}
        assert NULL_SPAN.sim_seconds == 0.0
        assert NULL_SPAN.status == "ok"

    def test_default_active_tracer_is_disabled(self):
        assert obs.current() is NULL_SPAN
        assert obs.enabled() is False
        assert obs.session() is None

    def test_module_helpers_are_noops_when_disabled(self):
        assert obs.span("x") is NULL_SPAN
        assert obs.span("x", key="k", cost=object()) is NULL_SPAN
        assert obs.session() is None


class TestNesting:
    def test_parent_child_from_thread_stack(self):
        with obs.trace() as session:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        records = {r.name: r for r in session.records()}
        assert records["inner"].parent_id == records["outer"].span_id
        assert records["outer"].parent_id == ""

    def test_explicit_parent_wins(self):
        with obs.trace() as session:
            with obs.span("root") as root:
                pass
            with obs.span("elsewhere"):
                with root.child("adopted"):
                    pass
        records = {r.name: r for r in session.records()}
        assert records["adopted"].parent_id == root.span_id_hex

    def test_records_sorted_by_start(self):
        with obs.trace() as session:
            for name in ("a", "b", "c"):
                with obs.span(name):
                    pass
        assert [r.name for r in session.records()] == ["a", "b", "c"]

    def test_attrs_and_annotate(self):
        with obs.trace() as session:
            with obs.span("s", category="engine", points=4) as span:
                span.annotate(groups=7)
        record = session.records()[0]
        assert record.category == "engine"
        assert record.attrs == {"points": 4, "groups": 7}

    def test_error_attr_on_exception(self):
        with obs.trace() as session:
            with pytest.raises(RuntimeError):
                with obs.span("boom"):
                    raise RuntimeError("nope")
        record = session.records()[0]
        assert record.attrs["error"] == "RuntimeError"
        assert record.status == "error"

    def test_span_ids_are_derived_not_allocated(self):
        def run():
            with obs.trace() as session:
                with obs.span("a"):
                    with obs.span("b"):
                        pass
                    with obs.span("b"):
                        pass
            return [r.span_id for r in session.records()]

        first, second = run(), run()
        assert first == second
        assert len(set(first)) == 3


class TestSimulatedTime:
    def test_sim_duration_from_cost_model(self):
        cost = FakeCost()
        cost.seconds = 1.0
        with obs.trace() as session:
            with obs.span("work", cost=cost):
                cost.seconds = 3.5
        record = session.records()[0]
        assert record.sim_seconds == pytest.approx(2.5)

    def test_no_cost_means_zero_sim(self):
        with obs.trace() as session:
            with obs.span("work"):
                pass
        assert session.records()[0].sim_seconds == 0.0

    def test_explicit_sim_without_a_cost_model(self):
        with obs.trace() as session:
            with obs.span("work") as span:
                span.set_sim(0.25)
        assert session.records()[0].sim_seconds == 0.25


class TestActivation:
    def test_nested_activation_restores_previous(self):
        with obs.trace() as outer:
            with obs.trace() as inner:
                assert obs.session() is inner
                with obs.span("in"):
                    pass
            assert obs.session() is outer
            with obs.span("out"):
                pass
        assert obs.session() is None
        assert [r.name for r in inner.records()] == ["in"]
        assert [r.name for r in outer.records()] == ["out"]

    def test_obs_trace_contextmanager(self):
        with obs.trace() as session:
            assert obs.enabled()
            with obs.span("hello", category="test"):
                pass
        assert not obs.enabled()
        report = session.trace()
        assert report.span_names() == ["hello"]

    def test_binding_is_context_local_not_process_global(self):
        seen = {}

        def work():
            seen["bare"] = obs.current()

        with obs.trace():
            # a plain thread starts from an empty context: unbound
            bare = threading.Thread(target=work)
            bare.start()
            bare.join()
        assert seen["bare"] is NULL_SPAN


class TestAbsorb:
    """A process worker binds a session to the dispatcher's span
    context and ships its finished spans back to be adopted."""

    def _shipped(self, context):
        with obs.trace(remote=context) as local:
            with obs.span("engine.partition", category="engine", key="p0"):
                with obs.span("algo.BUC", category="algorithm"):
                    pass
        return local.records()

    def test_adopt_keeps_ids_and_shifts_time(self):
        with obs.trace() as session:
            with obs.span("engine.run") as run:
                shipped = self._shipped(run.context)
                # a thread worker would have derived the very same id
                expected = run.child("engine.partition", key="p0")
                run.adopt(shipped, shift=10.0)
        records = {r.name: r for r in session.records()}
        top = records["engine.partition"]
        child = records["algo.BUC"]
        assert top.parent_id == run.span_id_hex
        assert child.parent_id == top.span_id
        assert top.span_id == expected.span_id_hex  # as shipped
        by_name = {r.name: r for r in shipped}
        assert top == replace(
            by_name["engine.partition"],
            start_wall_seconds=top.start_wall_seconds,
        )
        assert top.start_wall_seconds == pytest.approx(
            by_name["engine.partition"].start_wall_seconds + 10.0
        )
        assert child.start_wall_seconds == pytest.approx(
            by_name["algo.BUC"].start_wall_seconds + 10.0
        )

    def test_absorb_empty_is_noop(self):
        with obs.trace() as session:
            with obs.span("engine.run") as run:
                run.adopt([], shift=1.0)
        assert len(session) == 1
        NULL_SPAN.adopt(self._shipped(TraceContext(7, 9, True)))

    def test_unsampled_remote_context_records_nothing(self):
        assert self._shipped(TraceContext(7, 9, False)) == []


class TestHandOff:
    def test_copied_context_carries_the_binding_to_a_thread(self):
        with obs.trace() as session:
            with obs.span("dispatch") as root:

                def work(index):
                    with obs.span("worker", key=f"w{index}"):
                        pass

                threads = [
                    threading.Thread(
                        target=contextvars.copy_context().run,
                        args=(work, index),
                    )
                    for index in range(2)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        workers = [r for r in session.records() if r.name == "worker"]
        assert len(workers) == 2
        assert all(r.parent_id == root.span_id_hex for r in workers)
        assert len({r.span_id for r in workers}) == 2
        # two distinct worker thread labels, one dispatcher label
        assert len({r.thread for r in workers}) == 2


class TestTraceReport:
    def _traced(self):
        with obs.trace() as session:
            with obs.span("a", category="engine"):
                with obs.span("b", category="algorithm"):
                    pass
        return session.trace()

    def test_helpers(self):
        report = self._traced()
        assert report.span_names() == ["a", "b"]
        assert report.categories() == ["algorithm", "engine"]
        assert len(report.spans_named("a")) == 1
        a = report.spans_named("a")[0]
        assert [r.name for r in report.children_of(a.span_id)] == ["b"]

    def test_summary_lists_every_name(self):
        text = self._traced().summary()
        assert "a" in text and "b" in text
        assert "wall_s" in text and "sim_s" in text
