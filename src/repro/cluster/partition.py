"""Deterministic hash partitioning of the fact table across shards.

Facts — not lattice points — are what the cluster splits: the paper's
Sec. 2 analysis shows *grouping* may be non-disjoint (one fact can land
in several groups of a cuboid) or incomplete (a fact can miss a cuboid
entirely), but the facts themselves are identified by a unique
``fact_id`` and can therefore be partitioned disjointly.  Every group
contribution of a fact is made on exactly one shard, so per-shard
partial aggregate states merge losslessly (see :mod:`repro.core.merge`).

The shard function is an explicit FNV-1a hash over the fact id rather
than Python's builtin ``hash``: it must be stable across processes,
Python versions and ``PYTHONHASHSEED`` so that a replayed workload maps
facts to the same shards every time.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.bindings import FactRow, FactTable
from repro.errors import ClusterError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def _fold(value: int, data: bytes) -> int:
    """The FNV-1a state ``value`` after the bytes ``data``."""
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK
    return value


def _fnv1a(data: bytes) -> int:
    return _fold(_FNV_OFFSET, data)


def _id_bytes(number: int) -> bytes:
    return number.to_bytes(8, "big", signed=True)


def _check_shards(n_shards: int) -> None:
    if n_shards <= 0:
        raise ClusterError(
            f"a cluster needs at least one shard, got {n_shards}"
        )


def shard_of(fact_id: Tuple[int, int], n_shards: int) -> int:
    """The shard a fact lives on: deterministic, uniform, stable."""
    _check_shards(n_shards)
    doc_id, node_id = fact_id
    return _fnv1a(_id_bytes(doc_id) + _id_bytes(node_id)) % n_shards


def partition_rows(
    rows: Sequence[FactRow], n_shards: int
) -> List[List[FactRow]]:
    """Split rows into ``n_shards`` disjoint slices by fact id.

    Within a slice the original row order is preserved, so per-shard
    folds are as deterministic as the serial fold they replace.  The
    hash state after a document id's bytes is computed once per
    document, and each fact folds only its node id's bytes into it.
    """
    _check_shards(n_shards)
    slices: List[List[FactRow]] = [[] for _ in range(n_shards)]
    documents: Dict[int, int] = {}  # doc id -> the state after its bytes
    for row in rows:
        doc_id, node_id = row.fact_id
        state = documents.get(doc_id)
        if state is None:
            state = documents[doc_id] = _fnv1a(_id_bytes(doc_id))
        slices[_fold(state, _id_bytes(node_id)) % n_shards].append(row)
    return slices


def partition_table(table: FactTable, n_shards: int) -> List[FactTable]:
    """One :class:`FactTable` per shard, sharing lattice and aggregate.

    The slices are a partition of the input rows: disjoint (each fact id
    hashes to one shard) and covering (every row is assigned).
    """
    return [
        FactTable(table.lattice, rows, table.aggregate)
        for rows in partition_rows(table.rows, n_shards)
    ]
