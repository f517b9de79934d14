"""Hash partitioning: deterministic, disjoint, covering, stable."""

from dataclasses import replace

import pytest

from repro.cluster.partition import (
    _fnv1a,
    partition_rows,
    partition_table,
    shard_of,
)
from repro.errors import ClusterError
from repro.testing import small_workload


def table():
    return small_workload().fact_table()


class TestShardOf:
    def test_deterministic(self):
        assert all(
            shard_of((doc, node), 4) == shard_of((doc, node), 4)
            for doc in range(3)
            for node in range(50)
        )

    def test_stable_across_processes(self):
        # FNV-1a over the fact-id bytes, not Python's seeded hash():
        # these pins fail if the shard function ever changes, which
        # would silently re-partition persisted clusters.
        assert shard_of((0, 0), 4) == 1
        assert shard_of((0, 1), 4) == 2
        assert shard_of((7, 123), 8) == 1

    def test_in_range(self):
        for node in range(200):
            assert 0 <= shard_of((1, node), 3) < 3

    def test_single_shard(self):
        assert all(shard_of((0, n), 1) == 0 for n in range(20))

    def test_negative_ids_supported(self):
        assert 0 <= shard_of((-1, -5), 4) < 4

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ClusterError):
            shard_of((0, 0), 0)


class TestPartitionRows:
    def test_disjoint_and_covering(self):
        rows = table().rows
        slices = partition_rows(rows, 4)
        seen = [row.fact_id for piece in slices for row in piece]
        assert sorted(seen) == sorted(row.fact_id for row in rows)
        assert len(set(seen)) == len(seen)

    def test_preserves_row_order_within_slice(self):
        rows = table().rows
        order = {row.fact_id: index for index, row in enumerate(rows)}
        for piece in partition_rows(rows, 4):
            positions = [order[row.fact_id] for row in piece]
            assert positions == sorted(positions)

    def test_spread_is_not_degenerate(self):
        # A uniform-ish hash must not dump everything on one shard.
        slices = partition_rows(table().rows, 4)
        occupied = sum(1 for piece in slices if piece)
        assert occupied >= 3

    def test_every_shard_is_the_hash_of_the_whole_fact_id(self):
        """Folding a node id into the state a document id left is the
        hash of the 16 bytes: across documents, negative ids and node
        ids past 32 bits."""
        base = table().rows[0]
        documents = (0, 1, 7, -1, -(2**40), 2**33 + 5)
        nodes = (0, 1, 255, 256, -5, 2**32, 2**32 + 1, 2**62, -(2**63))
        rows = [
            replace(base, fact_id=(doc, node))
            for node in nodes
            for doc in documents
        ]
        for n_shards in (1, 3, 4, 8):
            for shard, piece in enumerate(partition_rows(rows, n_shards)):
                for row in piece:
                    doc, node = row.fact_id
                    payload = doc.to_bytes(8, "big", signed=True) + (
                        node.to_bytes(8, "big", signed=True)
                    )
                    assert _fnv1a(payload) % n_shards == shard
                    assert shard_of(row.fact_id, n_shards) == shard

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ClusterError):
            partition_rows(table().rows, 0)

    def test_same_input_same_slices(self):
        rows = table().rows
        first = partition_rows(rows, 8)
        second = partition_rows(rows, 8)
        assert [
            [row.fact_id for row in piece] for piece in first
        ] == [[row.fact_id for row in piece] for piece in second]


class TestPartitionTable:
    def test_shares_lattice_and_aggregate(self):
        base = table()
        shards = partition_table(base, 3)
        assert len(shards) == 3
        for shard in shards:
            assert shard.lattice is base.lattice
            assert shard.aggregate is base.aggregate
        assert sum(len(shard.rows) for shard in shards) == len(base.rows)
