"""Unit + property tests for the cube lattice (paper Fig. 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.axes import AxisSpec
from repro.core.lattice import CubeLattice
from repro.datagen.publications import query1
from repro.patterns.relaxation import Relaxation
from repro.testing import small_workload


def lnd_axes(k):
    return [
        AxisSpec.from_path(f"$a{i}", f"d{i}", frozenset({Relaxation.LND}))
        for i in range(k)
    ]


class TestQuery1Lattice:
    """The running example: 5 x 3 x 2 = 30 lattice points."""

    def test_size(self):
        assert query1().lattice().size() == 30

    def test_top_is_all_rigid(self):
        lattice = query1().lattice()
        assert lattice.describe(lattice.top) == (
            "$n:rigid, $p:rigid, $y:rigid"
        )

    def test_bottom_is_all_dropped(self):
        lattice = query1().lattice()
        assert lattice.describe(lattice.bottom) == "$n:LND, $p:LND, $y:LND"
        assert lattice.kept_axes(lattice.bottom) == []

    def test_points_enumeration_complete(self):
        lattice = query1().lattice()
        assert len(list(lattice.points())) == 30

    def test_top_has_max_successor_fanout(self):
        lattice = query1().lattice()
        # From all-rigid: $n can add SP or PC-AD or drop (3), $p can add
        # PC-AD or drop (2), $y can drop (1) -> 6 one-step relaxations.
        assert len(lattice.successors(lattice.top)) == 6

    def test_bottom_has_no_successors(self):
        lattice = query1().lattice()
        assert lattice.successors(lattice.bottom) == []

    def test_predecessor_successor_duality(self):
        lattice = query1().lattice()
        for point in lattice.points():
            for succ in lattice.successors(point):
                assert point in lattice.predecessors(succ)

    def test_lnd_parents(self):
        lattice = query1().lattice()
        parents = lattice.lnd_parents(lattice.bottom)
        # restoring any of 3 axes: $n has 4 structural states, $p 2, $y 1.
        assert len(parents) == 4 + 2 + 1

    def test_describe_round_trip(self):
        lattice = query1().lattice()
        for point in lattice.points():
            assert lattice.point_by_description(
                lattice.describe(point)
            ) == point

    def test_describe_is_one_shared_label_per_point(self):
        lattice = small_workload().fact_table().lattice
        for point in lattice.points():
            label = lattice.describe(point)
            assert lattice.describe(point) is label
            assert lattice.point_by_description(label) == point
        labels = [lattice.describe(point) for point in lattice.points()]
        assert len(set(labels)) == lattice.size()

    def test_point_by_description_defaults_rigid(self):
        lattice = query1().lattice()
        assert lattice.point_by_description("") == lattice.top

    def test_point_by_description_unknown_state(self):
        lattice = query1().lattice()
        with pytest.raises(KeyError):
            lattice.point_by_description("$n:warp")


class TestClassicCube:
    """LND-only lattices are the classic 2^k cube."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_size_2k(self, k):
        assert CubeLattice(lnd_axes(k)).size() == 2 ** k

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            CubeLattice([])

    def test_topo_order_finest_first(self):
        lattice = CubeLattice(lnd_axes(3))
        order = lattice.topo_finer_first()
        assert order[0] == lattice.top
        assert order[-1] == lattice.bottom
        positions = {point: i for i, point in enumerate(order)}
        for point in lattice.points():
            for succ in lattice.successors(point):
                assert positions[point] < positions[succ]

    def test_topo_coarser_first_reverses(self):
        lattice = CubeLattice(lnd_axes(2))
        assert lattice.topo_coarser_first()[0] == lattice.bottom


# ----------------------------------------------------------------------
# lattice laws (property-based over random axis shapes)
# ----------------------------------------------------------------------

@st.composite
def random_lattice(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    axes = []
    for index in range(k):
        relaxations = {Relaxation.LND}
        if draw(st.booleans()):
            relaxations.add(Relaxation.PC_AD)
        if draw(st.booleans()):
            relaxations.add(Relaxation.SP)
        path = "a/b" if Relaxation.SP in relaxations else "a"
        axes.append(
            AxisSpec.from_path(f"$x{index}", path, frozenset(relaxations))
        )
    return CubeLattice(axes)


@given(random_lattice())
@settings(max_examples=40, deadline=None)
def test_leq_is_partial_order(lattice):
    points = list(lattice.points())
    for point in points:
        assert lattice.leq(point, point)
    for first in points[:10]:
        for second in points[:10]:
            if lattice.leq(first, second) and lattice.leq(second, first):
                assert first == second


@given(random_lattice())
@settings(max_examples=40, deadline=None)
def test_top_bottom_are_extremes(lattice):
    for point in lattice.points():
        assert lattice.leq(lattice.top, point)
        assert lattice.leq(point, lattice.bottom)


@given(random_lattice())
@settings(max_examples=40, deadline=None)
def test_successors_are_strictly_coarser(lattice):
    for point in lattice.points():
        for succ in lattice.successors(point):
            assert lattice.leq(point, succ)
            assert point != succ
