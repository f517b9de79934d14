"""Smoke test of the wall-clock benchmark at ``--scale tiny``.

Run as ``pytest benchmarks/e2e -q`` (not tier-1: ``benchmarks/conftest``
marks everything here ``bench`` + ``slow``).  Every run goes through the
``command`` of ``BENCHMARK.json`` in a fresh process, as the driver's
do, so both sides of every comparison have ``PYTHONHASHSEED`` pinned
the same way.  It pins the contract between the code and ``BENCHMARK.json`` —
exactly the declared workload and metric names, each with its unit and
a finite value — the repeatability of the inputs (one seed, one plan
and one tier sequence; another seed, another plan) and the facts the
ledger must reproduce.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from benchmarks.e2e.run import DEFAULT_SECONDS, RUN_SCRIPT
from benchmarks.e2e.runner import UNITS
from benchmarks.e2e.workloads import WORKLOADS, build_inputs, spec_by_name

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
)
NAMES = [entry["name"] for entry in CONTRACT["workloads"]]


@pytest.fixture(scope="module")
def runs() -> Dict[Tuple[str, int], "subprocess.CompletedProcess[str]"]:
    """Every workload once untraced and once traced, seed 17: the
    ``command`` of BENCHMARK.json as the driver runs it (plus ``--scale
    tiny``), each in a fresh process, all started together — nothing
    here asserts a time."""
    started = {
        (workload, trace): subprocess.Popen(
            [
                sys.executable, *CONTRACT["command"][1:],
                "--workload", workload, "--seed", "17",
                "--seconds", "0.1", "--trace", str(trace),
                "--scale", "tiny",
            ],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        for workload in NAMES
        for trace in (0, 1)
    }
    finished = {}
    for key, process in started.items():
        stdout = process.communicate()[0]
        finished[key] = subprocess.CompletedProcess(
            process.args, process.returncode, stdout
        )
    return finished


def _parse(
    completed: "subprocess.CompletedProcess[str]",
    declared: List[Dict[str, Any]],
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Check the run exited 0, that its last stdout line is one JSON
    object with exactly ``correct``/``attempted``/``failed``/``metrics``,
    that the metrics are exactly the ``declared`` ones with their units
    and finite values, and that each is also printed by name.  Returns
    the metric values and the ``INFO`` line."""
    assert completed.returncode == 0
    lines = completed.stdout.splitlines()
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        metric = line["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"], entry["name"]
        assert math.isfinite(metric["value"]), entry["name"]
        assert f"{entry['name']} " in completed.stdout
    assert lines[-2].startswith("INFO ")
    values = {name: m["value"] for name, m in line["metrics"].items()}
    return values, json.loads(lines[-2][len("INFO "):])


def test_declared_workloads_are_the_implemented_ones():
    assert NAMES == [spec.name for spec in WORKLOADS]
    whys = {entry["name"]: entry["why"] for entry in CONTRACT["workloads"]}
    assert whys == {spec.name: spec.why for spec in WORKLOADS}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"] == [
        "python3", str(RUN_SCRIPT.relative_to(ROOT))
    ]
    assert CONTRACT["run_seconds"] == DEFAULT_SECONDS
    for entry in CONTRACT["end_to_end"]:
        # ``setup_s`` is on the list by the driver's contract, whatever
        # its spread; nothing else may stay with a bound above 0.10.
        assert entry["bound"] <= 0.10 or entry["name"] == "setup_s"


@pytest.mark.parametrize("workload", NAMES)
def test_metrics_and_repeatability(runs, workload):
    values, untraced = _parse(runs[workload, 0], CONTRACT["end_to_end"])
    for name, value in values.items():
        assert value > 0, name  # an end-to-end metric is never 0
    # Every one of the issue's eight is printed, bounded or not.
    for name in UNITS:
        assert untraced["metrics"][name] > 0, name
    # Two runs, one seed: the same plan, tier sequence and op counts.
    _, traced = _parse(runs[workload, 1], CONTRACT["per_layer"])
    for key in (
        "plan_digest", "tier_digest", "ops_per_pass", "facts", "cells",
    ):
        assert untraced[key] == traced[key], key
    other = build_inputs(spec_by_name(workload), "tiny", 18)
    assert other.plan_digest != untraced["plan_digest"]


def test_http_keepalive_replays_the_plan_of_api_hot(runs):
    plans = {
        workload: _parse(runs[workload, 0], CONTRACT["end_to_end"])[1]
        for workload in ("api_hot", "http_keepalive")
    }
    for key in ("plan_digest", "tier_digest", "facts", "cells"):
        assert plans["api_hot"][key] == plans["http_keepalive"][key]


@pytest.mark.parametrize("workload", NAMES)
def test_per_layer_ledger(runs, workload):
    ledger, info = _parse(runs[workload, 1], CONTRACT["per_layer"])
    trace = json.loads((ROOT / info["trace_file"]).read_text())
    assert trace["workload"] == workload and trace["spans"]
    assert {"id", "parent", "request", "name", "start_s", "end_s"} <= set(
        trace["spans"][0]
    )
    assert ledger["obs.bench_trace_overhead_ratio"] > 0
    # The facts the ledger must reproduce, as the traced run itself
    # judges them (``ledger.known_facts``).
    facts = info["sanity"]
    if workload == "cluster_scatter":
        # A hedge needs a cold replica past the 0.1 s modeled deadline:
        # 4000 facts, not this scale's 60.  README has the full-scale
        # value.
        assert facts.pop("cluster.hedges_per_read > 0") is False
        assert ledger["cluster.query_p50_ms"] > 0
    if workload == "api_hot":
        assert ledger["lang.compile_text_p50_us"] > 0
    assert facts and all(facts.values()), facts
