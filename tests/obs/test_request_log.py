"""The coded request log: exact round trips, the reference's JSONL, and
a dictionary bounded by the live records."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import EvictionRecord
from repro.obs.request_log import RequestLog
from tests.obs.reference_request_log import ReferenceRequestLog

#: ``add``'s own parameters cannot be attr keys.
_PARAMETERS = {
    "self", "name", "category", "sim_seconds", "wall_seconds",
    "trace_id", "status",
}

texts = st.text(max_size=8)
floats = st.floats(allow_nan=False)
leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63 - 1)
    | floats
    | texts
)
evictions = st.builds(
    EvictionRecord, texts, texts, floats, st.integers(0, 2**40), texts
)
values = st.recursive(
    leaves | evictions,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(texts, children, max_size=4),
    max_leaves=12,
)
attrs = st.dictionaries(
    texts.filter(lambda key: key not in _PARAMETERS), values, max_size=6
)
adds = st.tuples(
    st.sampled_from(["serve.request", "serve.write", "cluster.read"]),
    st.sampled_from(["serve", "cluster"]),
    floats,
    floats,
    st.sampled_from(["", "ab" * 16, "cd" * 16]),
    st.sampled_from(["ok", "error", "deadline"]),
    attrs,
)


def identical(left, right):
    """Equal with equal types all the way down (``1`` is not ``True``,
    a tuple not a list, ``-0.0`` not ``0.0``)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, dict):
        return list(left) == list(right) and all(
            identical(left[key], right[key]) for key in left
        )
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(
            identical(a, b) for a, b in zip(left, right)
        )
    if isinstance(left, float):
        return math.copysign(1.0, left) == math.copysign(1.0, right) and (
            left == right
        )
    return left == right


def add(log, entry):
    name, category, sim, wall, trace_id, status, facts = entry
    log.add(name, category, sim, wall, trace_id, status, **facts)


@given(st.integers(1, 6), st.lists(adds, max_size=20))
@settings(max_examples=150, deadline=None)
def test_traces_are_the_last_capacity_adds_exactly(capacity, entries):
    log = RequestLog(capacity)
    for entry in entries:
        add(log, entry)
    kept = entries[-capacity:]
    records = log.traces()
    assert len(records) == len(kept)
    assert log.finished == len(entries)
    assert log.dropped == len(entries) - len(kept)
    for seq, (record, entry) in enumerate(
        zip(records, kept), start=log.dropped
    ):
        name, category, sim, wall, trace_id, status, facts = entry
        (span,) = record.spans
        assert (record.seq, record.name, record.status, record.trace_id) == (
            seq, name, status, trace_id,
        )
        assert identical(record.sim_seconds, sim)
        assert identical(record.wall_seconds, wall)
        assert (span.name, span.category, span.status) == (
            name, category, status,
        )
        assert (span.span_id, span.parent_id, span.trace_id) == (
            "", "", trace_id,
        )
        assert identical(span.start_wall_seconds, 0.0)
        assert record.retained == ""
        assert identical(span.attrs, facts)


@given(st.integers(1, 6), st.lists(adds, max_size=20))
@settings(max_examples=150, deadline=None)
def test_jsonl_is_the_references(capacity, entries):
    log, reference = RequestLog(capacity), ReferenceRequestLog(capacity)
    for entry in entries:
        add(log, entry)
        add(reference, entry)
    assert log.to_jsonl() == reference.to_jsonl()
    assert log.named("serve.write") == tuple(
        record
        for record in reference.traces()
        if record.name == "serve.write"
    )


@given(st.integers(1, 5), st.lists(adds, min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_the_dictionary_holds_the_live_strings(capacity, entries):
    """Every add brings a trace id never seen before: right after each
    wrap the dictionary holds exactly the live records' strings, and in
    between never more than those of the last two rings."""
    log = RequestLog(capacity)
    added = []
    for number, (name, category, sim, wall, _, status, facts) in enumerate(
        entries
    ):
        entry = (name, category, sim, wall, f"trace-{number}", status, facts)
        add(log, entry)
        added.append(entry)
        if log.dropped and log.dropped % capacity == 0:
            assert set(log._strings) == strings_of(added[-capacity:])
        assert set(log._strings) <= strings_of(added[-2 * capacity:])
        assert len(log._strings) == len(set(log._strings))


def strings_of(entries):
    out = set()

    def walk(value):
        if isinstance(value, str):
            out.add(value)
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    for name, category, _, _, trace_id, status, facts in entries:
        out.update((name, category, trace_id, status))
        walk(facts)
    return out


def test_scalars_read_the_columns():
    log = RequestLog(2)
    log.add("serve.request", "serve", 0.5, 1.0, tier="cache")
    log.add("serve.write", "serve", 0.0, 2.0, "", "error", rows=3)
    log.add("cluster.read", "cluster", 0.25, 3.0)
    assert log.scalars() == [
        ("serve.write", "error", 0.0),
        ("cluster.read", "ok", 0.25),
    ]


@pytest.mark.parametrize(
    "bad, error",
    [({1, 2}, TypeError), ({1: "a"}, TypeError), (2**64, OverflowError)],
)
def test_a_refused_record_changes_nothing(bad, error):
    log = RequestLog(2)
    log.add("serve.request", "serve", 0.5, 1.0, tier="cache", cells=4)
    before = log.to_jsonl()
    with pytest.raises(error):
        log.add("serve.request", "serve", 0.5, 1.0, cells=7, bad=bad)
    assert log.to_jsonl() == before
    assert (log.finished, log.dropped) == (1, 0)
    log.add("serve.request", "serve", 0.5, 1.0, tier="rollup", cells=5)
    assert [r.spans[0].attrs["cells"] for r in log.traces()] == [4, 5]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        RequestLog(0)
