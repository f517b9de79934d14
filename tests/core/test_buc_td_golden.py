"""Golden regression test for the columnar BUC/TD kernel mechanics.

The committed snapshot (``tests/core/golden/buc_td_fig1.json``) pins,
for the paper's Figure 1 workload:

- every first-level BUC partition refinement — ``partition_slices`` over
  the full row set for each (axis, state) pair, exclusive and safe —
  the exact refined row buffers, code-range slices, and decoded labels;
- TD's bottom-point group-id build (mixed-radix gids, decoded keys,
  folded COUNT values) and every axis-dropping roll-up remap from it.

A kernel or layout change that alters any of this shows up as a diff
here, so it is deliberate.  Regenerate after an intentional change::

    PYTHONPATH=src:. python - <<'PY'
    import json
    from tests.core.test_buc_td_golden import GOLDEN_PATH, build_snapshot
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(build_snapshot(), fh, indent=2,
                  ensure_ascii=False, sort_keys=True)
        fh.write("\n")
    PY
"""

import itertools
import json
from array import array
from pathlib import Path

import pytest

from repro.core.algorithms.base import ExecutionContext
from repro.core.algorithms.topdown import _columnar_build, _rollup_columnar
from repro.core.extract import extract_fact_table
from repro.core.packed import from_group_ids
from repro.datagen.publications import figure1_document, query1
from tests.prop.reference_decode import make_group_decoder

GOLDEN_PATH = Path(__file__).parent / "golden" / "buc_td_fig1.json"


def _table():
    return extract_fact_table(figure1_document(), query1())


def buc_partition_snapshot(table):
    """Every first-level BUC refinement of the full Figure-1 row set."""
    encoded = table.columnar()
    rows = array("q", range(encoded.n_rows))
    out = []
    for position, states in enumerate(table.lattice.axis_states):
        dictionary = encoded.columns[position].dictionary
        for state in range(len(states.states)):
            for exclusive in (False, True):
                refined, slices = encoded.partition_slices(
                    rows, 0, len(rows), position, state, exclusive
                )
                out.append(
                    {
                        "axis": position,
                        "state": states.describe(state),
                        "exclusive": exclusive,
                        "refined": list(refined),
                        "slices": [
                            {
                                "label": dictionary[code],
                                "start": start,
                                "end": end,
                            }
                            for code, start, end in slices
                        ],
                    }
                )
    return out


def td_group_id_snapshot(table):
    """TD's detailed (all-rigid) build plus every axis-dropping gid
    remap from it."""
    lattice = table.lattice
    fn = table.aggregate.fn
    context = ExecutionContext(table, None, None)
    encoded = table.columnar()
    cells, axes = _columnar_build(
        context, encoded, lattice.top, fn,
        augmented=True, identity_ops=1,
    )
    snapshot = {
        "detailed": {
            "point": lattice.describe(lattice.top),
            "radices": [radix for _, _, radix in axes],
            "cells": gid_cells(cells, axes, fn),
        },
        "rollups": [],
    }
    n_axes = len(lattice.axis_states)
    dropped = [states.dropped_index for states in lattice.axis_states]
    for size in range(1, n_axes + 1):
        for drop in itertools.combinations(range(n_axes), size):
            point = tuple(
                dropped[axis] if axis in drop else lattice.top[axis]
                for axis in range(n_axes)
            )
            rolled, rolled_axes = _rollup_columnar(
                context, cells, axes, point, lattice, fn
            )
            snapshot["rollups"].append(
                {
                    "point": lattice.describe(point),
                    "cells": gid_cells(rolled, rolled_axes, fn),
                }
            )
    return snapshot


def gid_cells(cells, axes, fn):
    """An encoded cuboid's cells in gid order, each key decoded by the
    per-gid reference decoder.  ``from_group_ids`` must pack the same
    cells: every one whose key holds no null digit."""
    gids = sorted(cells)
    decode = make_group_decoder(
        [(dictionary, radix) for _, dictionary, radix in axes]
    )
    keys = [decode(gid) for gid in gids]
    values = [fn.finalize(cells[gid]) for gid in gids]
    sorted_axes = tuple(tuple(sorted(dictionary)) for _, dictionary, _ in axes)
    ranks = [
        [axis.index(value) for value in dictionary]
        + [None] * (radix - len(dictionary))
        for (_, dictionary, radix), axis in zip(axes, sorted_axes)
    ]
    packed = from_group_ids(sorted_axes, ranks, gids, values)
    assert list(packed.items()) == sorted(
        (key, value) for key, value in zip(keys, values) if None not in key
    )
    return [
        {"gid": gid, "key": list(key), "value": value}
        for gid, key, value in zip(gids, keys, values)
    ]


def build_snapshot():
    table = _table()
    return {
        "source": "figure1_document() x query1()",
        "buc_partitions": buc_partition_snapshot(table),
        "td_group_ids": td_group_id_snapshot(table),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def table():
    return _table()


class TestBucTdGolden:
    def test_buc_partitions_match_snapshot(self, golden, table):
        assert buc_partition_snapshot(table) == golden["buc_partitions"]

    def test_td_group_ids_match_snapshot(self, golden, table):
        assert td_group_id_snapshot(table) == golden["td_group_ids"]

    def test_partitions_are_stable_buckets(self, golden):
        """Within every slice the refined row indices are ascending —
        the stable-bucketing invariant that keeps fold order (and every
        finalized float) identical to NAIVE."""
        for partition in golden["buc_partitions"]:
            refined = partition["refined"]
            for entry in partition["slices"]:
                bucket = refined[entry["start"] : entry["end"]]
                assert bucket == sorted(bucket), partition

    def test_rollup_values_conserve_count(self, golden):
        """Every roll-up of the COUNT cube redistributes the detailed
        point's total count (same facts, coarser groups)."""
        detailed_total = sum(
            cell["value"]
            for cell in golden["td_group_ids"]["detailed"]["cells"]
        )
        for rollup in golden["td_group_ids"]["rollups"]:
            total = sum(cell["value"] for cell in rollup["cells"])
            assert total == detailed_total, rollup["point"]
