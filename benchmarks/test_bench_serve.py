"""Serving-layer benchmark: hit rate and modeled latency vs cache budget.

Replays one deterministic skewed request mix (the ``x3-serve`` replay
sampler) against :class:`repro.serve.CubeServer` under a sweep of cache
budgets, and writes the resulting curves to ``BENCH_serve.json`` at the
repository root.  The acceptance signal is modeled, not wall clock:
with any non-zero budget the server must answer some requests above the
recompute tier, and its total modeled cost must be strictly below the
cold cost of recomputing every request.
"""

import json
import pathlib

import pytest

from repro.bench.runner import bench_artifact_path, write_bench_artifact
from repro.core.query import Query
from repro.serve import CubeServer
from repro.serve.replay import sample_points

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_PATH = bench_artifact_path("serve", REPO_ROOT)

REQUESTS = 120
SEED = 13
#: Cache budgets as fractions of the full-lattice cell count.
BUDGET_FRACTIONS = (0.0, 0.05, 0.25, 1.0)


@pytest.fixture(scope="module")
def serve_curves(dense_cov_disj):
    table = dense_cov_disj.table
    oracle = dense_cov_disj.oracle
    replay = sample_points(table.lattice, REQUESTS, SEED)
    from repro.core.materialize import cuboid_sizes

    total_cells = sum(cuboid_sizes(table, table.lattice).values())
    curves = []
    for fraction in BUDGET_FRACTIONS:
        budget = int(total_cells * fraction)
        server = CubeServer(table, oracle, cache_cells=budget)
        for point in replay:
            server.query(Query(point=point))
        stats = server.stats()
        curves.append(
            {
                "budget_cells": budget,
                "budget_fraction": fraction,
                "hit_rate": stats.hit_rate,
                "modeled_cost_seconds": stats.modeled_cost_seconds,
                "cold_cost_seconds": stats.cold_cost_seconds,
                "modeled_speedup": stats.modeled_speedup,
                "tiers": stats.tiers,
                "cache": stats.cache,
            }
        )
    payload = {
        "workload": {
            "kind": dense_cov_disj.config.kind,
            "n_facts": dense_cov_disj.config.n_facts,
            "n_axes": dense_cov_disj.config.n_axes,
            "density": dense_cov_disj.config.density,
            "total_cells": total_cells,
        },
        "requests": REQUESTS,
        "seed": SEED,
        "curves": curves,
    }
    write_bench_artifact("serve", payload, REPO_ROOT)
    return curves


def test_writes_bench_serve_json(serve_curves):
    assert OUT_PATH.exists()
    document = json.loads(OUT_PATH.read_text())
    assert len(document["curves"]) == len(BUDGET_FRACTIONS)


def test_hit_rate_grows_with_budget(serve_curves):
    rates = [curve["hit_rate"] for curve in serve_curves]
    assert rates == sorted(rates), rates
    assert rates[0] == 0.0  # zero budget answers nothing above recompute
    assert rates[-1] > 0.0


def test_modeled_cost_beats_cold_recompute(serve_curves):
    for curve in serve_curves:
        if curve["budget_cells"] == 0:
            continue
        assert (
            curve["modeled_cost_seconds"] < curve["cold_cost_seconds"]
        ), curve
    costs = [curve["modeled_cost_seconds"] for curve in serve_curves]
    assert costs[-1] < costs[0]  # a full-lattice cache is fastest


def test_full_budget_serves_warm(serve_curves):
    full = serve_curves[-1]
    assert full["hit_rate"] > 0.5
    assert full["modeled_speedup"] > 1.0
    assert full["cache"]["evictions"] == 0
