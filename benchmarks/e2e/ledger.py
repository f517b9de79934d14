"""The traced run: the per-layer ledger, timed from outside.

Layers are this repo's modules.  Every number is a reduction over the
benchmark's own spans (:mod:`benchmarks.e2e.spans`) around calls into
public functions, or a count the program reports at the same boundary;
modeled seconds ride beside wall wherever the program returns them.  A
layer's self time is its span minus its children, the children being
the same recorded request replayed through each public function
separately.

A metric a workload does not exercise reads 0 there (``lang.*`` on
``xml_to_cube``, ``cluster.*`` anywhere but ``cluster_scatter``, ...);
README.md has the layer × workload table.  End-to-end metrics never
come from this run.

The ledger opens with the raw-wall metrics the issue names that are too
unsteady on this host to carry a bound (NOISE.md): here they come from
this run's one set-up, its one AUTO cube and its untraced live passes —
fewer samples than the untraced run prints them from.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import pickle
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.cluster.partition import partition_rows
from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.extract import extract_fact_table
from repro.core.incremental import ingest_rows, retract_rows
from repro.core.merge import merge_states
from repro.core.properties import PropertyOracle
from repro.lang.compiler import compile_text
from repro.lang.tokens import tokenize
from repro.obs.trace_store import TraceStore
from repro.server.http import ApiResponse
from repro.xmlmodel import parse

from benchmarks.e2e.driver import (
    CLUSTER_SHARDS,
    Session,
    outcome,
    render_request,
    render_x3ql,
    replay,
)
from benchmarks.e2e.runner import (
    END_TO_END,
    UNITS,
    RunResult,
    Samples,
    check_reads,
    digest,
    timing_metrics,
)
from benchmarks.e2e.spans import SpanRecorder, median, ratio
from benchmarks.e2e.workloads import (
    Inputs,
    ReadOp,
    WorkloadSpec,
    WriteOp,
    build_inputs,
)

OUT_DIR = Path(__file__).with_name("out")

ALGORITHMS = ("AUTO", "COLUMNAR", "BUC", "TD", "COUNTER")
DICT_KERNELS = ("BUC-dict", "TD-dict")
TIERS = ("cache", "view", "rollup", "incremental", "recompute")

#: Distinct plan reads replayed layer by layer, and how often each.
REPLAY_OPS = 30
REPLAY_REPEATS = 3

#: Wall kept back from the live passes for the replays that follow.
REPLAY_RESERVE_S = 4.0


def _ledger() -> Tuple[Tuple[str, str, str], ...]:
    """``(name, unit, better)`` of every per-layer metric, in print
    order — the ``per_layer`` list of BENCHMARK.json."""
    low, high = "lower", "higher"
    rows: List[Tuple[str, str, str]] = [
        (name, unit, high if unit.endswith("/s") else low)
        for name, unit in UNITS.items()
        if name not in END_TO_END
    ]
    rows += [
        ("xmlmodel.parse_s", "s", low),
        ("xmlmodel.parse_mb_per_s", "MB/s", high),
        ("core.extract.extract_s", "s", low),
        ("core.extract.facts_per_s", "facts/s", high),
        ("core.columnar.encode_s", "s", low),
    ]
    for name in ALGORITHMS:
        rows += [
            (f"core.algorithms.{name}.wall_s", "s", low),
            (f"core.algorithms.{name}.modeled_s", "s", low),
            (f"core.algorithms.{name}.modeled_over_wall", "ratio", high),
        ]
    rows += [(f"core.algorithms.{name}.wall_s", "s", low)
             for name in DICT_KERNELS]
    rows += [
        ("core.algorithms.auto_overhead_ratio", "ratio", low),
        ("core.engine.workers2_thread_wall_s", "s", low),
        ("core.engine.workers2_process_wall_s", "s", low),
        ("core.engine.workers2_speedup", "ratio", high),
        ("core.incremental.ingest_rows_p50_us", "us", low),
        ("core.incremental.retract_rows_p50_us", "us", low),
        ("serve.construct_s", "s", low),
        ("serve.sizes_s", "s", low),
        ("serve.warm_s", "s", low),
    ]
    for tier in TIERS:
        rows += [
            (f"serve.tier.{tier}.p50_ms", "ms", low),
            (f"serve.tier.{tier}.count", "count",
             low if tier == "recompute" else high),
        ]
    rows += [
        ("serve.cache.hit_ratio", "ratio", high),
        ("serve.cache.evictions", "count", low),
        ("serve.cache.rejected", "count", low),
        ("serve.write.insert_p50_ms", "ms", low),
        ("serve.write.delete_p50_ms", "ms", low),
        ("serve.write.patched_ratio", "ratio", high),
        ("serve.explain_p50_ms", "ms", low),
        ("serve.read_modeled_over_wall", "ratio", high),
        ("lang.compile_text_p50_us", "us", low),
        ("lang.tokens_per_stmt", "tokens", low),
        ("server.api.handle_p50_ms", "ms", low),
        ("server.api.self_p50_ms", "ms", low),
        ("server.api.json_encode_p50_us", "us", low),
        ("server.api.response_bytes_p50", "bytes", low),
        ("server.api.admission_rejected", "count", low),
        ("server.http.start_s", "s", low),
        ("server.http.keepalive_rtt_p50_ms", "ms", low),
        ("server.http.fresh_conn_rtt_p50_ms", "ms", low),
        ("server.http.socket_overhead_p50_ms", "ms", low),
        ("cluster.construct_s", "s", low),
        ("cluster.partition_rows_s", "s", low),
        ("cluster.query_p50_ms", "ms", low),
        ("cluster.scatter_overhead_p50_ms", "ms", low),
        ("cluster.merge_states_p50_ms", "ms", low),
        ("cluster.hedges_per_read", "ratio", low),
        ("cluster.read_rounds_per_read", "ratio", low),
        ("cluster.stale_retries", "count", low),
        ("cluster.write_fanout_p50_ms", "ms", low),
        ("obs.trace_store_overhead_ratio", "ratio", high),
        ("obs.bench_trace_overhead_ratio", "ratio", low),
        ("obs.events_dropped", "count", low),
    ]
    return tuple(rows)


LEDGER = _ledger()


def _timed(call: Callable[..., Any], *args: Any) -> Tuple[Any, float, float]:
    started = time.perf_counter()
    out = call(*args)
    return out, started, time.perf_counter()


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def run_traced(
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    scale: str = "full",
    check: bool = True,
) -> RunResult:
    inputs = build_inputs(spec, scale, seed)
    gc.collect()
    gc.freeze()  # the inputs are not the program's: see run_workload
    spans = SpanRecorder()
    values: Dict[str, float] = {name: 0.0 for name, _, _ in LEDGER}
    run_started = time.perf_counter()

    batch_layers(inputs, spans, values)
    gc.collect()
    session = Session(inputs).set_up(spans)
    wall = Samples(inputs.reads(), inputs.writes())
    wall.setup.append(session.setup_s)
    wall.ingest.append(session.ingest_s)
    wall.cube.extend(spans.durations("core.algorithms.AUTO"))
    try:
        budget = seconds - (time.perf_counter() - run_started)
        attempted, failed, replayed, tiers = live_passes(
            session, inputs, spans, values, wall,
            budget - REPLAY_RESERVE_S,
        )
        sample = _replay_sample(inputs)
        if session.api is not None:
            replay_api(session, sample, spans)
        if spec.door == "http":
            replay_fresh_connections(session, sample, spans)
        if spec.door == "cluster":
            replay_cluster(session, sample, spans)
        else:
            replay_explain(session.backend, sample, spans)
        if spec.door == "api":
            values["obs.trace_store_overhead_ratio"] = (
                trace_store_ratio(session, inputs)
            )
        program_counts(session, values)
        if check:
            checked, wrong = check_reads(session, inputs, replayed)
            attempted += checked
            failed += wrong
    finally:
        session.close()

    reduce_spans(inputs, spans, values)
    for name, value in timing_metrics(inputs, wall).items():
        if name in values:
            values[name] = value
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"{spec.name}.trace.json"
    spans.write(
        str(trace_file),
        {"workload": spec.name, "seed": seed, "scale": scale,
         "ledger": values},
    )
    units = {name: unit for name, unit, _ in LEDGER}
    return RunResult(
        workload=spec.name,
        seed=seed,
        scale=scale,
        trace=True,
        metrics={name: (values[name], units[name]) for name in values},
        declared=tuple(values),
        attempted=attempted,
        failed=failed,
        info={
            "facts": inputs.facts,
            "cells": inputs.reference.total_cells(),
            "plan_digest": inputs.plan_digest,
            "tier_digest": digest(tiers),
            "ops_per_pass": len(inputs.plan),
            "spans": len(spans.rows),
            "trace_file": os.path.relpath(trace_file),
            "sanity": known_facts(spec.name, values),
        },
    )


def known_facts(workload: str, values: Dict[str, float]) -> Dict[str, bool]:
    """The facts the ledger must reproduce on this workload, each with
    whether it does.  Printed, never fatal: the hedges (a cold replica
    past the 0.1 s modeled deadline) need the full-scale fact count."""
    reads = sum(values[f"serve.tier.{tier}.count"] for tier in TIERS)
    facts = {
        "xml_to_cube": {
            "serve.tier.recompute.count > 0":
                values["serve.tier.recompute.count"] > 0,
            "serve.tier.rollup.count = 0":
                values["serve.tier.rollup.count"] == 0,
        },
        "api_hot": {
            "serve.tier.cache.count >= 95% of reads":
                values["serve.tier.cache.count"] >= 0.95 * reads > 0,
        },
        "http_keepalive": {
            "keepalive_rtt_p50_ms >> fresh_conn_rtt_p50_ms":
                values["server.http.keepalive_rtt_p50_ms"]
                > 5 * values["server.http.fresh_conn_rtt_p50_ms"],
        },
        "cluster_scatter": {
            "cluster.hedges_per_read > 0":
                values["cluster.hedges_per_read"] > 0,
            "serve.tier.rollup.count > 0":
                values["serve.tier.rollup.count"] > 0,
        },
    }
    return facts[workload]


# ----------------------------------------------------------------------
# batch layers: xmlmodel, core.extract, core.columnar, core.algorithms,
# core.engine, core.incremental (and the cluster's partitioner)
# ----------------------------------------------------------------------
def batch_layers(
    inputs: Inputs, spans: SpanRecorder, values: Dict[str, float]
) -> None:
    spec = inputs.spec
    with spans.span("xmlmodel.parse", "batch"):
        document = parse(inputs.xml_text)
    with spans.span("core.extract", "batch"):
        table = extract_fact_table(document, inputs.x3_query)
    del document
    cold = pickle.dumps(table)
    oracle = PropertyOracle.from_flags(
        table.lattice, spec.disjoint, spec.coverage
    )

    def cube(label: str, **options: Any) -> str:
        """One cold cube run as a span; returns the algorithm that ran."""
        fresh: FactTable = pickle.loads(cold)
        gc.collect()
        with spans.span(label, "batch") as attrs:
            result = compute_cube(
                fresh, ExecutionOptions(oracle=oracle, **options)
            )
            attrs["modeled_s"] = result.cost.simulated_seconds
            attrs["algorithm"] = result.algorithm
        return str(result.algorithm)

    fresh: FactTable = pickle.loads(cold)
    with spans.span("core.columnar.encode", "batch"):
        fresh.columnar()
    del fresh
    picked = ""
    for name in ALGORITHMS:
        ran = cube(f"core.algorithms.{name}", algorithm=name)
        if name == "AUTO":
            picked = ran.partition("->")[2]
    for name in DICT_KERNELS:
        cube(
            f"core.algorithms.{name}",
            algorithm=name.partition("-")[0],
            encoding="dict",
        )
    if picked not in ALGORITHMS:
        cube("core.algorithms.picked", algorithm=picked)
        picked = "picked"
    values["core.algorithms.auto_overhead_ratio"] = ratio(
        sum(spans.durations("core.algorithms.AUTO")),
        sum(spans.durations(f"core.algorithms.{picked}")),
    )
    for engine in ("thread", "process"):
        cube(
            f"core.engine.workers2_{engine}",
            algorithm="AUTO", workers=2, engine=engine,
        )

    batches = [
        list(op.rows)
        for op in inputs.plan
        if isinstance(op, WriteOp) and op.op == "delete"
    ]
    for _ in range(math.ceil(50 / len(batches))):
        for rows in batches:
            with spans.span("core.incremental.retract_rows", "batch"):
                retract_rows(table, rows)
            with spans.span("core.incremental.ingest_rows", "batch"):
                ingest_rows(table, rows)
    if spec.door == "cluster":
        with spans.span("cluster.partition_rows", "batch"):
            partition_rows(table.rows, CLUSTER_SHARDS)


# ----------------------------------------------------------------------
# live traffic: alternate traced and untraced passes
# ----------------------------------------------------------------------
def live_passes(
    session: Session,
    inputs: Inputs,
    spans: SpanRecorder,
    values: Dict[str, float],
    wall: Samples,
    budget: float,
) -> Tuple[int, int, int, List[str]]:
    """Replay whole passes, every other one traced, for ``budget``
    seconds (at least one of each).  Traced call spans get the tier the
    reply reported; untraced passes go to ``wall``.  Returns
    ``(attempted, failed, passes, the first timed pass's read tiers)``."""
    calls = session.render(inputs.plan)
    replies = replay(calls).replies  # pass 0: warm-up
    attempted = len(replies)
    failed = sum(1 for reply in replies if not outcome(reply)[0])
    walls: Dict[bool, List[float]] = {True: [], False: []}
    tiers: List[str] = []
    used = 0.0
    index = 0
    while used < budget or index < 2:
        traced = index % 2 == 0
        gc.collect()
        started = time.perf_counter()
        done = replay(calls, spans if traced else None, pass_index=index)
        elapsed = time.perf_counter() - started
        walls[traced].append(elapsed)
        used += elapsed
        index += 1
        if not traced:
            wall.passes.append(done.wall)
            wall.ops.append(done.latencies)
        if index == 1:
            tiers = [
                outcome(done.replies[slot])[1] for slot in wall.read_slots
            ]
        attempted += len(done.replies)
        for slot, reply in enumerate(done.replies):
            ok, tier = outcome(reply)
            failed += not ok
            if traced:
                attrs = spans.rows[done.call_spans[slot]][6]
                if tier:
                    attrs["tier"] = tier
                modeled = getattr(reply, "modeled_seconds", None)
                if modeled is not None:
                    attrs["modeled_s"] = modeled
    values["obs.bench_trace_overhead_ratio"] = ratio(
        median(walls[True]), median(walls[False])
    )
    return attempted, failed, index, tiers


def _replay_sample(inputs: Inputs) -> List[ReadOp]:
    """The first :data:`REPLAY_OPS` distinct reads of the plan."""
    seen = set()
    sample: List[ReadOp] = []
    for op in inputs.plan:
        if isinstance(op, ReadOp) and op not in seen:
            seen.add(op)
            sample.append(op)
    return sample[:REPLAY_OPS]


# ----------------------------------------------------------------------
# replays: one recorded request through each public function on its own
# ----------------------------------------------------------------------
def replay_api(
    session: Session, sample: Sequence[ReadOp], spans: SpanRecorder
) -> None:
    """``X3Api.handle`` as the parent span; under it the same request's
    X3QL compile, backend query and JSON encode, each called alone —
    so handle's self time is routing + auth + admission + envelope."""
    api = session.api
    assert api is not None
    for index, op in enumerate(sample):
        path, body, headers = render_request(op)
        for repeat in range(REPLAY_REPEATS):
            request = f"replay.{index}.{repeat}"
            response, started, ended = _timed(
                api.handle, "POST", path, body, headers
            )
            root = spans.add(
                "server.api.handle", request, started, ended,
                bytes=len(response.body.encode("utf-8")),
            )
            query = op.query()
            if op.text:
                text = render_x3ql(op)
                compiled, started, ended = _timed(
                    compile_text, text, api.catalog
                )
                spans.add(
                    "lang.compile_text", request, started, ended,
                    parent=root, tokens=len(tokenize(text)) - 1,
                )
                query = compiled.query
            result, started, ended = _timed(session.backend.query, query)
            spans.add(
                "serve.query", request, started, ended, parent=root,
                tier=result.tier, modeled_s=result.modeled_seconds,
            )
            decoded = json.loads(response.body)
            _, started, ended = _timed(ApiResponse.json, 200, decoded)
            spans.add(
                "server.api.json_encode", request, started, ended,
                parent=root,
            )


def replay_fresh_connections(
    session: Session, sample: Sequence[ReadOp], spans: SpanRecorder
) -> None:
    """Each sampled request once more over a brand-new connection (one
    at a time — never a second connection alongside the first)."""
    httpd = session.httpd
    assert httpd is not None
    for index, op in enumerate(sample):
        path, body, headers = render_request(op)
        with spans.span("server.http.fresh_roundtrip", f"fresh.{index}"):
            connection = http.client.HTTPConnection(
                httpd.host, httpd.port, timeout=60.0
            )
            try:
                connection.request(
                    "POST", path, body=body, headers=headers
                )
                connection.getresponse().read()
            finally:
                connection.close()


def replay_explain(
    backend: Any, sample: Sequence[ReadOp], spans: SpanRecorder
) -> None:
    for index, op in enumerate(sample):
        with spans.span("serve.explain", f"explain.{index}"):
            backend.explain_query(op.query())


def replay_cluster(
    session: Session, sample: Sequence[ReadOp], spans: SpanRecorder
) -> None:
    """Per sampled read: the query on every shard's primary
    ``CubeServer`` alone, in whatever state live traffic left its cache
    (these are the ``serve.query`` spans: cache, rollup and recompute
    tiers all occur); then the coordinator's answer, caches now hot;
    then the shards again, hot, and ``merge_states`` over the shard
    states alone.  Scatter overhead is the coordinator's time minus the
    slowest hot shard's — what scatter, version checks and merging
    add."""
    cluster = session.backend
    function = cluster.aggregate.fn
    servers = [replicas[0].server for replicas in cluster.shards]
    for index, op in enumerate(sample):
        request = f"replay.{index}"
        query = op.query()
        cold = [_timed(server.query, query) for server in servers]
        _, started, ended = _timed(cluster.query, query)
        slowest = 0.0
        for server in servers:
            _, begun, done = _timed(server.query, query)
            slowest = max(slowest, done - begun)
        root = spans.add(
            "cluster.query.replay", request, started, ended,
            overhead_s=(ended - started) - slowest,
        )
        for shard, (result, begun, done) in enumerate(cold):
            spans.add(
                "serve.query", request, begun, done, parent=root,
                shard=shard, tier=result.tier,
                modeled_s=result.modeled_seconds,
            )
        states = [
            replicas[0].read_states(op.point).states
            for replicas in cluster.shards
        ]
        _, begun, done = _timed(merge_states, function, states)
        spans.add(
            "core.merge.merge_states", request, begun, done, parent=root
        )
        with spans.span("serve.explain", f"explain.{index}"):
            servers[0].explain_query(query)


def trace_store_ratio(session: Session, inputs: Inputs) -> float:
    """``api_hot`` throughput with a ``TraceStore`` (sample rate 1.0) on
    the server and the API, over throughput without — alternating whole
    passes between this session and a second one set up with the
    store."""
    store = TraceStore(sample_rate=1.0)
    walls: Dict[bool, List[float]] = {True: [], False: []}
    with Session(inputs, trace_store=store).set_up() as stored:
        sides = {
            True: stored.render(inputs.plan),
            False: session.render(inputs.plan),
        }
        replay(sides[True])  # warm-up
        for index in range(6):
            with_store = index % 2 == 0
            gc.collect()
            walls[with_store].append(
                sum(replay(sides[with_store]).latencies)
            )
    return ratio(median(walls[False]), median(walls[True]))


# ----------------------------------------------------------------------
# counts the program reports at the same boundaries
# ----------------------------------------------------------------------
def program_counts(session: Session, values: Dict[str, float]) -> None:
    backend = session.backend
    values["obs.events_dropped"] = float(backend.events.dropped)
    if session.api is not None:
        values["server.api.admission_rejected"] = float(
            session.api.admission.stats()["rejected"]
        )
    if session.door == "cluster":
        stats = backend.stats()
        values["cluster.hedges_per_read"] = ratio(
            stats.hedges, stats.requests
        )
        values["cluster.read_rounds_per_read"] = ratio(
            stats.requests + stats.rejects, stats.requests
        )
        values["cluster.stale_retries"] = float(stats.stale_retries)
        servers = [
            replica.server
            for replicas in backend.shards
            for replica in replicas
        ]
    else:
        servers = [backend]
    cache: Dict[str, int] = {}
    patched = evicted = 0
    for server in servers:
        stats = server.stats()
        for key, count in stats.cache.items():
            cache[key] = cache.get(key, 0) + count
        patched += stats.patched_points
        evicted += stats.evicted_points
        if session.door == "cluster":
            # The coordinator's own tier is "scatter-gather"; what the
            # shards resolved at is only the replicas' to report.
            for tier, count in stats.tiers.items():
                values[f"serve.tier.{tier}.count"] += float(count)
    values["serve.cache.hit_ratio"] = ratio(
        cache["hits"], cache["hits"] + cache["misses"]
    )
    values["serve.cache.evictions"] = float(cache["evictions"])
    values["serve.cache.rejected"] = float(cache["rejections"])
    values["serve.write.patched_ratio"] = ratio(
        patched, patched + evicted
    )


# ----------------------------------------------------------------------
# spans → ledger
# ----------------------------------------------------------------------
def reduce_spans(
    inputs: Inputs, spans: SpanRecorder, values: Dict[str, float]
) -> None:
    def total(name: str, **match: Any) -> float:
        return float(sum(spans.durations(name, **match)))

    def p50(name: str, scale: float, **match: Any) -> float:
        return median(spans.durations(name, **match)) * scale

    def attr_sum(name: str, key: str) -> float:
        return sum(
            row[6].get(key, 0.0) for row in spans.rows if row[3] == name
        )

    parse_s = total("xmlmodel.parse")
    extract_s = total("core.extract")
    values["xmlmodel.parse_s"] = parse_s
    values["xmlmodel.parse_mb_per_s"] = ratio(
        len(inputs.xml_text.encode("utf-8")) / 1e6, parse_s
    )
    values["core.extract.extract_s"] = extract_s
    values["core.extract.facts_per_s"] = ratio(inputs.facts, extract_s)
    values["core.columnar.encode_s"] = total("core.columnar.encode")
    for name in ALGORITHMS + DICT_KERNELS:
        span = f"core.algorithms.{name}"
        wall = total(span)
        values[f"{span}.wall_s"] = wall
        if name in ALGORITHMS:
            modeled = attr_sum(span, "modeled_s")
            values[f"{span}.modeled_s"] = modeled
            values[f"{span}.modeled_over_wall"] = ratio(modeled, wall)
    parallel = [
        total(f"core.engine.workers2_{engine}")
        for engine in ("thread", "process")
    ]
    values["core.engine.workers2_thread_wall_s"] = parallel[0]
    values["core.engine.workers2_process_wall_s"] = parallel[1]
    values["core.engine.workers2_speedup"] = ratio(
        values["core.algorithms.AUTO.wall_s"], min(parallel)
    )
    values["core.incremental.ingest_rows_p50_us"] = p50(
        "core.incremental.ingest_rows", 1e6
    )
    values["core.incremental.retract_rows_p50_us"] = p50(
        "core.incremental.retract_rows", 1e6
    )

    values["serve.construct_s"] = total("serve.construct")
    values["serve.sizes_s"] = total("serve.sizes")
    values["serve.warm_s"] = total("serve.warm")
    # Latency per tier is always ``CubeServer.query`` alone (live on the
    # serve door, replayed elsewhere); the counts are the live reads'
    # tiers (on the cluster: the replicas' own counters, filled in by
    # ``program_counts``).
    live = {
        "serve": "serve.query",
        "api": "server.api.handle",
        "http": "server.http.roundtrip",
    }.get(inputs.spec.door)
    for tier in TIERS:
        values[f"serve.tier.{tier}.p50_ms"] = p50(
            "serve.query", 1e3, tier=tier
        )
        if live is not None:
            values[f"serve.tier.{tier}.count"] = float(
                len(spans.durations(live, tier=tier))
            )
    values["serve.read_modeled_over_wall"] = ratio(
        attr_sum("serve.query", "modeled_s"), total("serve.query")
    )
    values["serve.explain_p50_ms"] = p50("serve.explain", 1e3)
    if inputs.spec.door != "cluster":
        values["serve.write.insert_p50_ms"] = p50("backend.insert", 1e3)
        values["serve.write.delete_p50_ms"] = p50("backend.delete", 1e3)

    tokens = [
        row[6]["tokens"]
        for row in spans.rows
        if row[3] == "lang.compile_text"
    ]
    values["lang.compile_text_p50_us"] = p50("lang.compile_text", 1e6)
    values["lang.tokens_per_stmt"] = ratio(sum(tokens), len(tokens))
    values["server.api.handle_p50_ms"] = p50("server.api.handle", 1e3)
    values["server.api.self_p50_ms"] = (
        median(spans.self_times("server.api.handle")) * 1e3
    )
    values["server.api.json_encode_p50_us"] = p50(
        "server.api.json_encode", 1e6
    )
    values["server.api.response_bytes_p50"] = median(
        [
            float(row[6]["bytes"])
            for row in spans.rows
            if row[3] == "server.api.handle" and "bytes" in row[6]
        ]
    )
    values["server.http.start_s"] = total("server.http.start")
    keepalive = p50("server.http.roundtrip", 1e3)
    values["server.http.keepalive_rtt_p50_ms"] = keepalive
    values["server.http.fresh_conn_rtt_p50_ms"] = p50(
        "server.http.fresh_roundtrip", 1e3
    )
    if keepalive:
        values["server.http.socket_overhead_p50_ms"] = (
            keepalive - values["server.api.handle_p50_ms"]
        )

    values["cluster.construct_s"] = total("cluster.construct")
    values["cluster.partition_rows_s"] = total("cluster.partition_rows")
    values["cluster.query_p50_ms"] = p50("cluster.query", 1e3)
    values["cluster.scatter_overhead_p50_ms"] = median(
        [
            row[6]["overhead_s"]
            for row in spans.rows
            if row[3] == "cluster.query.replay"
        ]
    ) * 1e3
    values["cluster.merge_states_p50_ms"] = p50(
        "core.merge.merge_states", 1e3
    )
    if inputs.spec.door == "cluster":
        values["cluster.write_fanout_p50_ms"] = median(
            spans.durations("backend.insert")
            + spans.durations("backend.delete")
        ) * 1e3
