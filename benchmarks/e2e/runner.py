"""One untraced run of one workload → the eight metrics the issue names.

A run is ``ROUNDS`` rounds.  Each round does its share of the cold
set-up repeats (ingest → backend → front door), one cold
``compute_cube`` repeat, and then replays whole passes of the fixed op
plan until the round's share of the op-phase budget — two thirds of
``--seconds``, 20 s of 30 — is used.  Set-ups are repeated until they
add up to 5 s of program work; the cube repeats are a fixed five.

Round 0's first set-up is the session the passes run against (its
first pass is the untimed warm-up); every other set-up is torn down at
once.  Spreading the batch repeats between the op passes makes every
metric sample the whole run instead of one few-second window.

All eight metrics are raw wall time (and ``ru_maxrss``).  On this host
only ``peak_rss_mb`` repeats well enough to carry a bound <= 0.10 —
NOISE.md — so the driver's ``--trace 0`` line carries it and
``setup_s``, which the driver's contract requires; the other six are
printed here from the full sample and listed in the ledger.
"""

from __future__ import annotations

import gc
import hashlib
import pickle
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube

from benchmarks.e2e.driver import Session, outcome, payload, replay
from benchmarks.e2e.spans import median, quantile, ratio
from benchmarks.e2e.workloads import (
    Inputs,
    ReadOp,
    WorkloadSpec,
    build_inputs,
    expected_payload,
)

#: Cold repeats of ``compute_cube``, one per round (the issue's >= 5).
ROUNDS = {"full": 5, "tiny": 2}

#: Share of ``--seconds`` the op phases get: 20 s of 30, from the first
#: timed pass of a round to its last, collector calls between the
#: passes included.
PASS_SHARE = 2.0 / 3.0

#: Cold set-ups are repeated, at least once a round, until they add up
#: to this much program work (seconds of wall inside ``set_up``).
SETUP_WORK_S = {"full": 5.0, "tiny": 0.0}

#: Every N-th timed read is re-issued and compared with serial NAIVE.
CHECK_EVERY = 50

#: The issue's eight, in its order.
UNITS: Dict[str, str] = {
    "setup_s": "s",
    "ingest_facts_per_s": "facts/s",
    "cube_s": "s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "write_p50_ms": "ms",
    "throughput_ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
}

#: ``end_to_end`` of BENCHMARK.json: ``setup_s``, which the driver's
#: contract requires, and what repeats well enough on this host to carry
#: a bound <= 0.10.  The other six are the first rows of ``per_layer``.
END_TO_END: Tuple[str, ...] = ("setup_s", "peak_rss_mb")


@dataclass
class RunResult:
    """What one run measured, before it is printed."""

    workload: str
    seed: int
    scale: str
    trace: bool
    #: Everything measured, by name: ``(value, unit)``.
    metrics: Dict[str, Tuple[float, str]]
    #: The names that go on the driver's JSON line (``end_to_end`` or
    #: ``per_layer`` of BENCHMARK.json, in its order).
    declared: Tuple[str, ...]
    attempted: int
    failed: int
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def contract_line(self) -> Dict[str, Any]:
        """The one JSON object the driver reads."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {
                    "value": self.metrics[name][0],
                    "unit": self.metrics[name][1],
                }
                for name in self.declared
            },
        }


@dataclass
class Samples:
    """Every interval a run timed, in wall seconds, before any
    estimator touches it."""

    read_slots: List[int]
    write_slots: List[int]
    setup: List[float] = field(default_factory=list)
    ingest: List[float] = field(default_factory=list)
    cube: List[float] = field(default_factory=list)
    #: Timed passes, whole: first op issued → last reply.
    passes: List[float] = field(default_factory=list)
    #: Their ops: ``ops[p][slot]``.
    ops: List[List[float]] = field(default_factory=list)

    def at(self, slots: Sequence[int]) -> List[float]:
        return [timed[slot] for timed in self.ops for slot in slots]


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run_workload(
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    scale: str = "full",
    check: bool = True,
) -> RunResult:
    """Generate the inputs, run the rounds, check the answers."""
    inputs = build_inputs(spec, scale, seed)
    # The inputs (XML text, rows, the NAIVE reference cube, the plan)
    # are the benchmark's, not the program's: keep them out of every
    # later collection, timed or not.
    gc.collect()
    gc.freeze()
    measured = measure(inputs, seconds, check)
    samples = measured.samples
    timed = len(samples.passes)
    metrics = timing_metrics(inputs, samples)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return RunResult(
        workload=spec.name,
        seed=seed,
        scale=scale,
        trace=False,
        metrics={name: (metrics[name], unit) for name, unit in UNITS.items()},
        declared=END_TO_END,
        attempted=measured.attempted,
        failed=measured.failed,
        info={
            "facts": inputs.facts,
            "cells": inputs.reference.total_cells(),
            "lattice_points": inputs.lattice.size(),
            "xml_bytes": len(inputs.xml_text.encode("utf-8")),
            "cache_cells": inputs.cache_cells,
            "plan_digest": inputs.plan_digest,
            "tier_digest": digest(measured.tiers),
            "tiers_first_pass": _histogram(measured.tiers),
            "cube_algorithm": measured.cube_algorithm,
            "setup_repeats": len(samples.setup),
            "setup_work_s": sum(samples.setup),
            "cube_repeats": len(samples.cube),
            "timed_passes": timed,
            "ops_per_pass": len(inputs.plan),
            "read_samples": timed * len(samples.read_slots),
            "write_samples": timed * len(samples.write_slots),
            "timed_wall_s": sum(samples.passes),
            "op_phase_s": measured.op_phase_s,
            "backend": measured.backend,
        },
    )


@dataclass
class Measured:
    """What :func:`measure` brings back from the rounds."""

    samples: Samples
    tiers: List[str]  #: the first timed pass's read tiers, in plan order
    cube_algorithm: str  #: what AUTO picked (``"AUTO->BUC"``)
    attempted: int
    failed: int
    backend: Dict[str, Any]  #: the backend's own counters at the end
    op_phase_s: float  #: wall of the op phases, collector calls included


def measure(inputs: Inputs, seconds: float, check: bool) -> Measured:
    """Run the rounds and the answer checks."""
    rounds = ROUNDS[inputs.scale]
    setup_budget = SETUP_WORK_S[inputs.scale]
    pass_budget = seconds * PASS_SHARE
    samples = Samples(inputs.reads(), inputs.writes())
    attempted = failed = 0
    tiers: List[str] = []
    cube_algorithm = ""
    in_passes = 0.0

    session = _set_up(inputs)
    try:
        cold_table = pickle.dumps(session.table)
        calls = session.render(inputs.plan)
        options = ExecutionOptions(algorithm="AUTO", oracle=session.oracle)
        for round_index in range(rounds):
            share = (round_index + 1) / rounds
            while (
                sum(samples.setup) < setup_budget * share
                or len(samples.setup) <= round_index
            ):
                repeat = session
                if samples.setup:
                    repeat = _set_up(inputs)
                    repeat.close()
                samples.setup.append(repeat.setup_s)
                samples.ingest.append(repeat.ingest_s)

            table = pickle.loads(cold_table)
            gc.collect()
            started = time.perf_counter()
            cube = compute_cube(table, options)
            samples.cube.append(time.perf_counter() - started)
            cube_algorithm = cube.algorithm
            attempted += 1
            if check and not cube.same_contents(inputs.reference):
                failed += 1
            del table, cube

            if round_index == 0:  # pass 0: warm-up, untimed
                replies = replay(calls).replies
                attempted += len(replies)
                failed += _count_failed(replies)
            phase_started = time.perf_counter()
            while (
                in_passes + (time.perf_counter() - phase_started)
                < pass_budget * share
                or len(samples.passes) <= round_index
            ):
                gc.collect()
                done = replay(calls)
                samples.passes.append(done.wall)
                samples.ops.append(done.latencies)
                attempted += len(done.replies)
                failed += _count_failed(done.replies)
                if len(samples.passes) == 1:
                    tiers = [
                        outcome(done.replies[slot])[1]
                        for slot in samples.read_slots
                    ]
            in_passes += time.perf_counter() - phase_started
        if check:
            checked, wrong = check_reads(
                session, inputs, len(samples.passes)
            )
            attempted += checked
            failed += wrong
        backend_stats = _backend_info(session)
    finally:
        session.close()
    return Measured(
        samples, tiers, cube_algorithm, attempted, failed, backend_stats,
        in_passes,
    )


def _set_up(inputs: Inputs) -> Session:
    """One cold set-up, the collector run first."""
    gc.collect()
    return Session(inputs).set_up()


def _count_failed(replies: Sequence[Any]) -> int:
    return sum(1 for reply in replies if not outcome(reply)[0])


def digest(items: Sequence[str]) -> str:
    return hashlib.sha256("|".join(items).encode("utf-8")).hexdigest()[:16]


def _histogram(items: Sequence[str]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return counts


def _backend_info(session: Session) -> Dict[str, Any]:
    stats = session.backend.stats()
    if session.door == "cluster":
        return {
            "requests": stats.requests,
            "hedges": stats.hedges,
            "stale_retries": stats.stale_retries,
            "rejects": stats.rejects,
        }
    return {"requests": stats.requests, "tiers": dict(stats.tiers)}


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------
def timing_metrics(inputs: Inputs, samples: Samples) -> Dict[str, float]:
    """The seven timing metrics, as the issue defines them: medians of
    the cold repeats, percentiles of the timed-pass ops, ops ÷ the
    timed passes' wall."""
    reads = samples.at(samples.read_slots)
    # Half the writes are deletes, half inserts, and a delete costs
    # several inserts: the pooled median sits in the gap between the
    # two clusters and jumps with a handful of samples.  A typical
    # write is the mean of the two kinds' medians.
    by_kind = [
        samples.at(
            [slot for slot in samples.write_slots
             if inputs.plan[slot].op == kind]
        )
        for kind in ("delete", "insert")
    ]
    return {
        "setup_s": median(samples.setup),
        "ingest_facts_per_s": ratio(inputs.facts, median(samples.ingest)),
        "cube_s": median(samples.cube),
        "read_p50_ms": median(reads) * 1e3,
        "read_p95_ms": quantile(reads, 0.95) * 1e3,
        "write_p50_ms": sum(median(kind) for kind in by_kind) / 2 * 1e3,
        "throughput_ops_per_s": ratio(
            len(samples.passes) * len(inputs.plan), sum(samples.passes)
        ),
    }


# ----------------------------------------------------------------------
# answers vs serial NAIVE
# ----------------------------------------------------------------------
def check_reads(
    session: Session, inputs: Inputs, passes: int
) -> Tuple[int, int]:
    """Re-issue every :data:`CHECK_EVERY`-th timed read, outside any
    timed interval, and compare the answer with serial NAIVE at the
    version the response is for.  Returns ``(checked, wrong)``.

    Passes end on the fact set they started from, so the reference cube
    computed at generation time is NAIVE at the current version.  A few
    of the reads are then re-issued once more with the first write
    batch deleted, against NAIVE over the remaining facts — the version
    reads between a ``delete`` and its ``insert`` saw.
    """
    read_slots = inputs.reads()
    issued = len(read_slots) * passes
    slots = sorted(
        {
            read_slots[index % len(read_slots)]
            for index in range(0, issued, CHECK_EVERY)
        }
    )
    ops: List[ReadOp] = [inputs.plan[slot] for slot in slots]
    wrong = _mismatches(
        session, ops, {op.point: inputs.reference.cuboids[op.point]
                       for op in ops},
    )
    checked = len(ops)

    batch = inputs.plan[inputs.writes()[0]].rows
    out = {row.fact_id for row in batch}
    subset = ops[:5]
    remaining = FactTable(
        inputs.lattice,
        [row for row in inputs.rows if row.fact_id not in out],
        inputs.x3_query.aggregate,
    )
    reduced = compute_cube(
        remaining,
        ExecutionOptions(
            algorithm="NAIVE",
            points=tuple(sorted({op.point for op in subset})),
        ),
    )
    session.backend.delete(list(batch))
    try:
        wrong += _mismatches(session, subset, reduced.cuboids)
        checked += len(subset)
    finally:
        session.backend.insert(list(batch))
    return checked, wrong


def _mismatches(
    session: Session, ops: Sequence[ReadOp], cuboids: Dict[Any, Any]
) -> int:
    replies = replay(session.render(ops)).replies
    wrong = 0
    for op, reply in zip(ops, replies):
        if not outcome(reply)[0]:
            wrong += 1
            continue
        want = expected_payload(
            session.inputs.lattice, cuboids[op.point], op
        )
        if payload(reply) != want:
            wrong += 1
    return wrong
