"""The acceptance harness: a 4-shard / 2-replica cluster under seeded
chaos (crashes, stragglers, stale replicas, interleaved writes) answers
100/100 queries *identically* to a serial NAIVE recompute over the rows
the write log implies at each answer's version."""

import pytest

from repro.cluster import ChaosEngine, ClusterCoordinator, get_profile
from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.query import Query
from repro.serve.replay import sample_points
from repro.testing import small_workload
from tests.cluster.test_coordinator import decision_kinds, decisions
from tests.conftest import cuboid_of

N_REQUESTS = 100
N_SHARDS = 4
N_REPLICAS = 2
CHAOS_SEED = 11  # chosen so the heavy profile injects every fault kind


def reference_cuboid(table, rows, point):
    snapshot = FactTable(table.lattice, list(rows), table.aggregate)
    result = compute_cube(
        snapshot, ExecutionOptions(algorithm="NAIVE", points=(point,))
    )
    return result.cuboids[point]


@pytest.mark.slow
class TestChaosStress:
    def test_degraded_cluster_equals_serial_naive(self):
        workload = small_workload()
        table = workload.fact_table()
        oracle = workload.oracle(table)
        chaos = ChaosEngine(get_profile("heavy"), seed=CHAOS_SEED)
        points = sample_points(table.lattice, N_REQUESTS, seed=13)
        rows = list(table.rows)
        removed = []

        with ClusterCoordinator(
            table,
            N_SHARDS,
            N_REPLICAS,
            oracle=oracle,
            chaos=chaos,
            hedge_deadline_seconds=0.05,
        ) as cluster:
            matched = 0
            reference_cache = {}
            epoch = 0
            for index, point in enumerate(points):
                if index and index % 20 == 0:
                    # Interleave writes so stale-replica faults have
                    # versions to lag behind: alternate deleting a
                    # slice and re-inserting it.
                    if index % 40 == 20:
                        batch = rows[:4]
                        cluster.delete(batch)
                        removed = batch
                        rows = rows[4:]
                    else:
                        cluster.insert(removed)
                        rows = rows + removed
                        removed = []
                    epoch += 1
                result = cluster.query(Query(point=point))
                cuboid, vector = result.as_cuboid(), result.version
                key = (epoch, point)
                if key not in reference_cache:
                    reference_cache[key] = reference_cuboid(
                        table, rows, point
                    )
                assert cuboid == reference_cache[key], (
                    f"request {index} ({table.lattice.describe(point)}) "
                    f"diverged from serial NAIVE at {vector}"
                )
                matched += 1
            assert matched == N_REQUESTS

            # The run must actually have been degraded: the seed is
            # pinned so the heavy profile injects at least one crash
            # and one straggler (plus stale writes).
            assert chaos.injected["crash"] >= 1
            assert chaos.injected["straggle"] >= 1
            assert chaos.injected["stale"] >= 1

            # ... and the request log must show the cluster *deciding*
            # to degrade: failover past the crashed replica, hedges on
            # stragglers, syncs on stale replicas.
            kinds = set(decision_kinds(cluster))
            assert "crash" in kinds
            assert "failover" in kinds
            assert "straggle" in kinds
            stats = cluster.stats()
            assert stats.failovers >= 1
            assert stats.requests == N_REQUESTS

    def test_chaos_replay_is_deterministic(self):
        workload = small_workload()
        table = workload.fact_table()
        oracle = workload.oracle(table)
        points = sample_points(table.lattice, 40, seed=13)

        def run():
            chaos = ChaosEngine(get_profile("heavy"), seed=CHAOS_SEED)
            with ClusterCoordinator(
                table,
                N_SHARDS,
                N_REPLICAS,
                oracle=oracle,
                chaos=chaos,
                hedge_deadline_seconds=0.05,
            ) as cluster:
                answers = [
                    tuple(sorted(cuboid_of(cluster, point).items()))
                    for point in points
                ]
                trail = [
                    (d["kind"], d["shard"], d["replica"])
                    for d in decisions(cluster)
                ]
                return answers, trail, chaos.summary()

        assert run() == run()
