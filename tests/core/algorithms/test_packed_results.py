"""Every cube result is packed.

Whatever the algorithm, the kernel, the points asked for or the iceberg
cut, each ``CubeResult.cuboids`` value is a
:class:`~repro.core.packed.PackedCuboid` whose keys come out in wire
order — also when ``CODE_LIMIT`` forces the codes into lists.
"""

import pytest

from repro.core.algorithms.registry import available
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.packed import PackedCuboid, as_codes
from repro.core.properties import PropertyOracle
from repro.testing import messy_workload
from tests.core.test_packed import LIMITS, code_limit


@pytest.fixture(scope="module")
def table():
    return messy_workload(n_facts=60, seed=23).fact_table()


def runs(table):
    """The full lattice, a strict subset of it, and the COUNT iceberg
    cut at 2 over the full lattice."""
    points = list(table.lattice.points())
    yield {}
    yield {"points": tuple(points[::3])}
    yield {"min_support": 2}


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("encoding", ["columnar", "dict"])
@pytest.mark.parametrize("algorithm", available())
def test_every_cuboid_is_packed_in_wire_order(table, algorithm, encoding, limit):
    oracle = PropertyOracle.from_data(table)
    with code_limit(limit):
        for run in runs(table):
            cube = compute_cube(
                table,
                ExecutionOptions(
                    algorithm=algorithm, encoding=encoding, oracle=oracle, **run
                ),
            )
            wanted = run.get("points") or tuple(table.lattice.points())
            assert set(cube.cuboids) == set(wanted)
            for cuboid in cube.cuboids.values():
                assert type(cuboid) is PackedCuboid
                assert type(cuboid.codes) is type(as_codes(cuboid.axes, ()))
                assert list(cuboid) == sorted(cuboid)
                if "min_support" in run:
                    assert all(value >= 2 for value in cuboid.values())
