"""Golden regression tests: exact pinned cuboids for seeded workloads.

The equivalence matrix guards *consistency* between algorithms; these
tests guard *semantics over time* — if extraction, masks, grouping or a
generator silently drift, the pinned values break loudly.  Generators
are fully deterministic (seeded ``random.Random``), so these values are
stable across hosts and Python versions in scope.
"""

from repro.core.cube import ExecutionOptions, compute_cube
from repro.datagen.workload import WorkloadConfig, build_workload

CONFIG = WorkloadConfig(
    kind="treebank",
    n_facts=25,
    n_axes=3,
    density="dense",
    coverage=False,
    disjoint=False,
    seed=77,
)


def golden_cube():
    table = build_workload(CONFIG).fact_table()
    return table, compute_cube(table, ExecutionOptions(algorithm="NAIVE"))


class TestGoldenTreebank:
    def test_totals(self):
        table, cube = golden_cube()
        assert len(table) == 25
        assert cube.total_cells() == 265

    def test_rigid_m1_cuboid(self):
        table, cube = golden_cube()
        point = table.lattice.point_by_description(
            "$m1:rigid, $m2:LND, $m3:LND"
        )
        assert cube.cuboids[point] == {
            ("m1v0",): 4.0,
            ("m1v1",): 4.0,
            ("m1v2",): 3.0,
            ("m1v3",): 4.0,
        }

    def test_pcad_m1_cuboid_recovers_more(self):
        table, cube = golden_cube()
        point = table.lattice.point_by_description(
            "$m1:PC-AD, $m2:LND, $m3:LND"
        )
        assert cube.cuboids[point] == {
            ("m1v0",): 5.0,
            ("m1v1",): 7.0,
            ("m1v2",): 4.0,
            ("m1v3",): 5.0,
        }

    def test_two_axis_cuboid(self):
        table, cube = golden_cube()
        point = table.lattice.point_by_description(
            "$m1:rigid, $m2:rigid, $m3:LND"
        )
        assert cube.cuboids[point] == {
            ("m1v0", "m2v0"): 1.0,
            ("m1v0", "m2v2"): 1.0,
            ("m1v1", "m2v0"): 1.0,
            ("m1v1", "m2v3"): 1.0,
            ("m1v2", "m2v1"): 1.0,
            ("m1v2", "m2v2"): 1.0,
            ("m1v3", "m2v0"): 1.0,
            ("m1v3", "m2v3"): 2.0,
        }

    def test_grand_total(self):
        table, cube = golden_cube()
        assert cube.cuboids[table.lattice.bottom] == {(): 25.0}

    def test_every_algorithm_reproduces_the_golden_cube(self):
        table, reference = golden_cube()
        for name in ("COUNTER", "BUC", "TD"):
            assert compute_cube(
                table, ExecutionOptions(algorithm=name)
            ).same_contents(reference)
