"""Unit tests for the request log: ``RequestLog``, the coded ring every
backend keeps as ``events``, and the decision records its attrs carry
(repro.obs.events)."""

import dataclasses
import json
import threading

import pytest

from repro.obs import events
from repro.obs.events import EVICTION_KINDS, EvictionRecord, RungDecision
from repro.obs.trace_cli import load_traces
from repro.obs.request_log import RequestLog
from repro.obs.trace_store import TraceStore
from repro.serve import TIERS

RUNGS = (
    RungDecision("cache", True, "resident in cache (4 cells)"),
    RungDecision("rollup", False, "not reached (resolved at cache)"),
)


def add_request(log, point="$a:rigid", tier="cache", **extra):
    log.add(
        "serve.request",
        "serve",
        1e-5,
        3e-4,
        kind="cuboid",
        point=point,
        tier=tier,
        version=0,
        cold_seconds=2e-3,
        cells=4,
        rungs={decision.rung: decision.reason for decision in RUNGS},
        cache_audit=(
            EvictionRecord("admitted", "$a:rigid", 0.5, 4),
        ),
        **extra,
    )


def add_write(log, op="insert"):
    log.add(
        "serve.write",
        "serve",
        0.0,
        1e-4,
        op=op,
        rows=3,
        version=1,
        patched_points=2,
        evicted_points=1,
        cache_audit=(),
    )


def seqs(log):
    return [record.seq for record in log.traces()]


class TestEventShapes:
    def test_request_to_dict_carries_type_and_trails(self):
        log = RequestLog(8)
        add_request(log)
        out = json.loads(log.to_jsonl())
        assert out["name"] == "serve.request"
        assert out["sim_seconds"] == 1e-5 and out["wall_seconds"] == 3e-4
        (span,) = out["spans"]
        assert span["parent_id"] == "" and span["name"] == "serve.request"
        assert span["attrs"]["rungs"]["cache"].startswith("resident")
        assert span["attrs"]["cache_audit"][0] == [
            "admitted", "$a:rigid", 0.5, 4, "",
        ]

    def test_write_to_dict(self):
        log = RequestLog(8)
        add_write(log)
        out = log.traces()[0].to_dict()
        assert out["name"] == "serve.write"
        assert out["spans"][0]["attrs"]["patched_points"] == 2

    @pytest.mark.parametrize("taken", [True, False])
    @pytest.mark.parametrize("rung", TIERS)
    def test_rung_to_dict_is_asdict(self, rung, taken):
        decision = RungDecision(rung, taken, f"reason at {rung}")
        assert decision.to_dict() == dataclasses.asdict(decision)
        assert list(decision.to_dict()) == ["rung", "taken", "reason"]

    def test_rung_to_dict_makes_no_deep_copy(self, monkeypatch):
        """Every served envelope carries three rungs: ``to_dict`` builds
        the literal dict and never calls ``dataclasses.asdict``."""

        def refuse(*_):
            raise AssertionError("RungDecision.to_dict called asdict")

        monkeypatch.setattr(events, "asdict", refuse, raising=False)
        assert RUNGS[0].to_dict()["rung"] == "cache"

    def test_eviction_kinds_are_the_documented_set(self):
        assert EVICTION_KINDS == (
            "admitted", "evicted", "rejected", "invalidated",
        )


class TestEventLog:
    def test_append_stamps_increasing_seq(self):
        log = RequestLog(10)
        for _ in range(5):
            add_request(log)
        assert seqs(log) == [0, 1, 2, 3, 4]

    def test_append_does_not_mutate_the_input(self):
        log = RequestLog(10)
        attrs = {"tier": "cache", "cells": 4}
        log.add("serve.request", "serve", 0.0, 0.0, **attrs)
        log.add("serve.request", "serve", 0.0, 0.0, **attrs)
        assert attrs == {"tier": "cache", "cells": 4}
        first, second = log.traces()
        assert first.spans[0].attrs is not second.spans[0].attrs
        assert seqs(log) == [0, 1]

    def test_ring_wraps_and_counts_dropped(self):
        log = RequestLog(3)
        for _ in range(7):
            add_request(log)
        stats = log.stats()
        assert stats["stored"] == 3
        assert stats["finished"] == 7
        assert log.dropped == 4
        assert seqs(log) == [4, 5, 6]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RequestLog(0)

    def test_requests_and_writes_filter_by_type(self):
        log = RequestLog(10)
        add_request(log)
        add_write(log)
        add_request(log)
        assert [r.seq for r in log.named("serve.request")] == [0, 2]
        assert [r.seq for r in log.named("serve.write")] == [1]

    def test_concurrent_appends_never_lose_or_duplicate_seq(self):
        log = RequestLog(10_000)
        per_thread = 200
        threads = [
            threading.Thread(
                target=lambda: [add_request(log) for _ in range(per_thread)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seqs(log) == list(range(8 * per_thread))
        assert log.dropped == 0

    def test_only_a_request_log_takes_records(self):
        with pytest.raises(AttributeError):
            add_request(TraceStore())

    def test_nothing_is_sampled_or_retained(self):
        log = RequestLog(10)
        add_request(log, status="error")
        (record,) = log.traces()
        assert record.status == "error" and record.retained == ""
        assert log.stats()["sampled"] == 0


class TestJsonl:
    def test_to_jsonl_round_trips(self):
        log = RequestLog(10)
        add_request(log)
        add_write(log)
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["name"] == "serve.request"
        assert second["name"] == "serve.write"
        assert first["seq"] == 0 and second["seq"] == 1

    def test_empty_log_exports_empty_string(self):
        assert RequestLog(1).to_jsonl() == ""

    def test_write_jsonl(self, tmp_path):
        log = RequestLog(10)
        add_request(log, trace_id="ab" * 16)
        target = tmp_path / "events.jsonl"
        assert log.write_jsonl(str(target)) == 1
        (record,) = load_traces(str(target))
        assert record["trace_id"] == "ab" * 16
        assert record["spans"][0]["attrs"]["kind"] == "cuboid"
