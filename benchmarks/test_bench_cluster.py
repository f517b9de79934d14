"""Cluster benchmark: modeled throughput and p95 latency vs shard count.

Replays the standard skewed request mix against
:class:`repro.cluster.ClusterCoordinator` at 1 / 2 / 4 / 8 shards with
cold replicas (zero cache budget, so every shard read recomputes its
slice — the regime where scatter-gather genuinely buys latency), and
writes the curves to ``BENCH_cluster.json`` at the repository root via
the unified artifact helper.

The acceptance signal is modeled, not wall clock: fan-out must pay off
— modeled throughput strictly increases from 1 to 4 shards and p95
latency strictly decreases, because each shard's recompute walks a
fact slice that shrinks with the shard count while the gather adds only
one merge op per output cell.
"""

import json

import pytest

from repro.bench.runner import bench_artifact_path, write_bench_artifact
from repro.cluster import ClusterCoordinator
from repro.obs.live import percentile
from repro.serve.replay import replay, sample_points

from benchmarks.test_bench_serve import REPO_ROOT

OUT_PATH = bench_artifact_path("cluster", REPO_ROOT)

REQUESTS = 60
SEED = 13
SHARD_COUNTS = (1, 2, 4, 8)
REPLICAS = 2


@pytest.fixture(scope="module")
def cluster_curves(dense_cov_disj):
    table = dense_cov_disj.table
    oracle = dense_cov_disj.oracle
    points = sample_points(table.lattice, REQUESTS, SEED)
    curves = []
    for n_shards in SHARD_COUNTS:
        with ClusterCoordinator(
            table,
            n_shards,
            REPLICAS,
            oracle=oracle,
            cache_cells=0,
            hedge_deadline_seconds=None,
        ) as cluster:
            replay(cluster, points)
            latencies = cluster.modeled_latencies()
            stats = cluster.stats()
        total = sum(latencies)
        curves.append(
            {
                "shards": n_shards,
                "replicas": REPLICAS,
                "requests": stats.requests,
                "rows_per_shard": list(stats.per_shard_rows),
                "modeled_total_seconds": total,
                "throughput_rps": stats.requests / total,
                "p50_modeled_seconds": percentile(latencies, 0.50),
                "p95_modeled_seconds": percentile(latencies, 0.95),
                "merged_cells": stats.merged_cells,
            }
        )
    payload = {
        "workload": {
            "kind": dense_cov_disj.config.kind,
            "n_facts": dense_cov_disj.config.n_facts,
            "n_axes": dense_cov_disj.config.n_axes,
            "density": dense_cov_disj.config.density,
        },
        "requests": REQUESTS,
        "seed": SEED,
        "curves": curves,
    }
    write_bench_artifact("cluster", payload, REPO_ROOT)
    return curves


def test_writes_bench_cluster_json(cluster_curves):
    assert OUT_PATH.exists()
    document = json.loads(OUT_PATH.read_text())
    assert document["artifact"] == "cluster"
    assert len(document["curves"]) == len(SHARD_COUNTS)


def test_throughput_monotonic_one_to_four_shards(cluster_curves):
    by_shards = {curve["shards"]: curve for curve in cluster_curves}
    assert (
        by_shards[1]["throughput_rps"]
        < by_shards[2]["throughput_rps"]
        < by_shards[4]["throughput_rps"]
    ), [curve["throughput_rps"] for curve in cluster_curves]


def test_p95_latency_shrinks_with_shards(cluster_curves):
    by_shards = {curve["shards"]: curve for curve in cluster_curves}
    assert (
        by_shards[4]["p95_modeled_seconds"]
        < by_shards[2]["p95_modeled_seconds"]
        < by_shards[1]["p95_modeled_seconds"]
    )


def test_sharding_covers_all_rows(cluster_curves):
    expected = None
    for curve in cluster_curves:
        total_rows = sum(curve["rows_per_shard"])
        expected = total_rows if expected is None else expected
        assert total_rows == expected
        assert len(curve["rows_per_shard"]) == curve["shards"]


def test_merge_output_independent_of_sharding(cluster_curves):
    merged = {curve["merged_cells"] for curve in cluster_curves}
    assert len(merged) == 1
