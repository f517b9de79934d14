"""Concurrency stress test: readers race a writer through CubeServer.

One writer thread drives interleaved insert/delete batches while reader
threads hammer cuboid queries.  Every versioned answer a reader gets
must equal a serial NAIVE recomputation over the exact rows the table
held at that version — the server's linearizability-per-snapshot
contract.  This is where cache patching, eviction, single-flight and
versioning all collide, and where readers share resident cuboids that
writes replace: a small race runs in the unit stage on every
interpreter, the full-size one is marked slow.
"""

import random
import sys
import threading

import pytest

from repro.core.bindings import FactTable
from repro.core.incremental import split_rows
from repro.core.query import Query
from repro.serve import CubeServer
from repro.testing import small_workload
from tests.serve.test_server import reference_cuboid


@pytest.mark.slow
@pytest.mark.parametrize("warm", [False, True])
def test_concurrent_reads_match_serial_recompute(warm):
    """``warm`` fills the cache first, so the race starts with every
    write patching or evicting resident cuboids."""
    race(warm, readers=4, reads_per_reader=30, write_batches=12)


@pytest.mark.parametrize("warm", [False, True])
def test_small_race_matches_serial_recompute(warm):
    """The same race, small enough for every unit run."""
    race(warm, readers=2, reads_per_reader=10, write_batches=4)


def race(warm, readers, reads_per_reader, write_batches):
    table = small_workload(n_facts=120, seed=21).fact_table()
    initial, churn = split_rows(table, 0.5)
    live = FactTable(table.lattice, list(initial), table.aggregate)
    oracle = small_workload(n_facts=120, seed=21).oracle(live)
    server = CubeServer(live, oracle, cache_cells=256)
    if warm:
        assert server.warm()

    # Only the writer mutates; it records the exact rows at each version.
    rows_at_version = {0: tuple(initial)}
    write_error = []

    def writer():
        rng = random.Random(77)
        resident = []
        try:
            for _ in range(write_batches):
                insert_now = rng.sample(
                    [row for row in churn if row not in resident],
                    k=min(4, len(churn) - len(resident)),
                )
                if insert_now:
                    version = server.insert(insert_now)
                    resident.extend(insert_now)
                    rows_at_version[version] = tuple(live.rows)
                if resident and rng.random() < 0.5:
                    victim = resident.pop(rng.randrange(len(resident)))
                    version = server.delete([victim])
                    rows_at_version[version] = tuple(live.rows)
        except Exception as error:  # pragma: no cover - failure path
            write_error.append(error)

    points = list(live.lattice.points())
    observations = []
    observations_lock = threading.Lock()
    read_errors = []

    def reader(seed):
        rng = random.Random(seed)
        local = []
        try:
            for _ in range(reads_per_reader):
                point = rng.choice(points)
                result = server.query(Query(point=point))
                local.append((point, result.version[0], result.as_cuboid()))
        except Exception as error:  # pragma: no cover - failure path
            read_errors.append(error)
        with observations_lock:
            observations.extend(local)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(seed,))
        for seed in range(readers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: more interleavings
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads)

    assert not write_error, write_error
    assert not read_errors, read_errors
    assert len(observations) == readers * reads_per_reader

    # Verify each distinct (point, version) once against serial NAIVE.
    expected_cache = {}
    for point, version, cuboid in observations:
        assert version in rows_at_version, (
            "server reported a version the writer never produced"
        )
        key = (point, version)
        if key not in expected_cache:
            expected_cache[key] = reference_cuboid(
                live, rows_at_version[version], point
            )
        assert cuboid == expected_cache[key], (
            f"answer at version {version} for "
            f"{live.lattice.describe(point)} diverged from serial "
            f"recompute"
        )

    # The race actually exercised the write path.
    stats = server.stats()
    assert stats.writes > 0
    assert stats.requests >= readers * reads_per_reader

    # The request log kept up with the race: exactly one record per
    # read and per write, contiguous sequence numbers, nothing lost and
    # nothing duplicated.
    records = server.events.traces()
    assert server.events.dropped == 0
    assert len(records) == stats.requests + stats.writes
    assert [record.seq for record in records] == list(range(len(records)))
    requests = server.events.named("serve.request")
    writes = server.events.named("serve.write")
    assert len(requests) == stats.requests
    assert len(writes) == stats.writes
    # Each request record names the rung that answered it, and the
    # decision trail always covers the full ladder.
    for record in requests:
        attrs = record.spans[0].attrs
        assert attrs["tier"] in stats.tiers
        assert list(attrs["rungs"]) == list(stats.tiers)
        assert attrs["rungs"][attrs["tier"]] != ""
