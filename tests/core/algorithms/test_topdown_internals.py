"""Unit tests for the top-down family's helpers and source rules."""

import pytest

from repro.core.algorithms.registry import get_algorithm
from repro.core.algorithms.topdown import (
    BASE,
    Origin,
    _pick_source,
    _rigid_twin,
    _sortable,
)
from repro.core.extract import extract_fact_table
from repro.core.properties import PropertyOracle
from repro.datagen.publications import figure1_document, query1


def lattice():
    return query1().lattice()


class TestSortable:
    def test_orders_none_first(self):
        keys = [("b", None), (None, "a"), ("a", "a"), (None, None)]
        ordered = sorted(keys, key=_sortable)
        assert ordered[0] == (None, None)
        assert ordered[-1] == ("b", None)

    def test_total_order_on_mixed(self):
        keys = [("x",), (None,), ("a",)]
        assert sorted(keys, key=_sortable) == [(None,), ("a",), ("x",)]


class TestRigidTwin:
    def test_identity_for_rigid_points(self):
        lat = lattice()
        assert _rigid_twin(lat, lat.top) == lat.top
        assert _rigid_twin(lat, lat.bottom) == lat.bottom

    def test_structural_states_collapse(self):
        lat = lattice()
        point = lat.point_by_description("$n:PC-AD+SP, $p:PC-AD, $y:rigid")
        twin = _rigid_twin(lat, point)
        assert twin == lat.top

    def test_drops_preserved(self):
        lat = lattice()
        point = lat.point_by_description("$n:PC-AD, $p:LND, $y:rigid")
        twin = _rigid_twin(lat, point)
        assert twin == lat.point_by_description(
            "$n:rigid, $p:LND, $y:rigid"
        )


class TestPickSource:
    def test_requires_matching_states(self):
        lat = lattice()
        target = lat.point_by_description("$n:PC-AD, $p:LND, $y:LND")
        wrong_state = lat.point_by_description(
            "$n:rigid, $p:rigid, $y:rigid"
        )
        computed = {wrong_state: {("a", "b", "c"): object()}}
        assert _pick_source(lat, computed, target) is None

    def test_prefers_smaller_cuboid(self):
        lat = lattice()
        target = lat.point_by_description("$n:LND, $p:LND, $y:rigid")
        big = lat.point_by_description("$n:rigid, $p:rigid, $y:rigid")
        small = lat.point_by_description("$n:LND, $p:rigid, $y:rigid")
        computed = {
            big: {(f"k{i}", "p", "y"): object() for i in range(10)},
            small: {("p", "y"): object()},
        }
        assert _pick_source(lat, computed, target) == small

    def test_candidate_must_be_finer(self):
        lat = lattice()
        target = lat.point_by_description("$n:rigid, $p:LND, $y:rigid")
        coarser = lat.point_by_description("$n:rigid, $p:LND, $y:LND")
        computed = {coarser: {("n",): object()}}
        assert _pick_source(lat, computed, target) is None

    def test_self_excluded(self):
        lat = lattice()
        point = lat.top
        computed = {point: {}}
        assert _pick_source(lat, computed, point) is None

    def test_first_built_wins_a_tie(self):
        lat = lattice()
        target = lat.point_by_description("$n:LND, $p:LND, $y:rigid")
        first = lat.point_by_description("$n:rigid, $p:LND, $y:rigid")
        second = lat.point_by_description("$n:LND, $p:rigid, $y:rigid")
        cuboid = {("y",): object()}
        assert _pick_source(lat, {first: cuboid, second: cuboid}, target) == first
        assert _pick_source(lat, {second: cuboid, first: cuboid}, target) == second


# ----------------------------------------------------------------------
# the four source rules, asked about every point of the Figure-1 lattice
# ----------------------------------------------------------------------
def figure1_table():
    return extract_fact_table(figure1_document(), query1())


def origins(name, table, oracle, encoding, points=None):
    """Run ``name`` and record what its source rule answered per point
    (on an instance of its own: the recording rule is set on it)."""
    algorithm = type(get_algorithm(name))()
    rule, asked = algorithm.source, {}

    def recording(context, computed, point):
        asked[point] = rule(context, computed, point)
        return asked[point]

    algorithm.source = recording
    algorithm.run(table, oracle=oracle, encoding=encoding, points=points)
    return asked


def described(lat, asked):
    return {
        lat.describe(point): (
            origin.kind,
            None if origin.source is None else lat.describe(origin.source),
        )
        for point, origin in asked.items()
    }


@pytest.mark.parametrize("encoding", ["columnar", "dict"])
class TestSourceRules:
    def test_td_is_always_base_and_asks_only_for_wanted_points(self, encoding):
        table = figure1_table()
        lat = table.lattice
        asked = origins("TD", table, None, encoding)
        assert set(asked) == set(lat.points())
        assert set(asked.values()) == {BASE}
        wanted = [lat.bottom, lat.top]
        asked = origins("TD", table, None, encoding, points=wanted)
        assert asked == {lat.top: BASE, lat.bottom: BASE}

    def test_tdopt_base_iff_every_axis_kept_else_smallest_finer(self, encoding):
        table = figure1_table()
        lat = table.lattice
        asked = origins("TDOPT", table, None, encoding)
        assert set(asked) == set(lat.points())
        for point, origin in asked.items():
            if len(lat.kept_axes(point)) == lat.axis_count:
                assert origin == BASE, lat.describe(point)
                continue
            assert origin.kind == "rollup"
            assert lat.rank(origin.source) < lat.rank(point)
            for axis in lat.kept_axes(point):
                assert origin.source[axis] == point[axis]
        got = described(lat, asked)
        assert got["$n:LND, $p:LND, $y:LND"] == (
            "rollup", "$n:rigid, $p:LND, $y:LND"
        )
        assert got["$n:LND, $p:PC-AD, $y:LND"] == (
            "rollup", "$n:rigid, $p:PC-AD, $y:LND"
        )
        assert got["$n:PC-AD+SP, $p:LND, $y:rigid"] == (
            "rollup", "$n:PC-AD+SP, $p:rigid, $y:rigid"
        )

    def test_tdopt_walks_the_whole_lattice_under_a_subset(self, encoding):
        table = figure1_table()
        lat = table.lattice
        asked = origins("TDOPT", table, None, encoding, points=[lat.bottom])
        assert asked == origins("TDOPT", table, None, encoding)

    def test_tdoptall_one_base_build_twins_and_rigid_rollups(self, encoding):
        table = figure1_table()
        lat = table.lattice
        asked = origins("TDOPTALL", table, None, encoding)
        assert [p for p, origin in asked.items() if origin == BASE] == [lat.top]
        for point, origin in asked.items():
            twin = _rigid_twin(lat, point)
            if twin != point:
                assert origin == Origin("twin", twin), lat.describe(point)
        rigid = {
            label: origin
            for label, origin in described(lat, asked).items()
            if origin[0] != "twin"
        }
        assert rigid == {
            "$n:rigid, $p:rigid, $y:rigid": ("base", None),
            "$n:rigid, $p:rigid, $y:LND": (
                "rollup", "$n:rigid, $p:rigid, $y:rigid"),
            "$n:rigid, $p:LND, $y:rigid": (
                "rollup", "$n:rigid, $p:rigid, $y:rigid"),
            "$n:LND, $p:rigid, $y:rigid": (
                "rollup", "$n:rigid, $p:rigid, $y:rigid"),
            "$n:rigid, $p:LND, $y:LND": (
                "rollup", "$n:rigid, $p:rigid, $y:LND"),
            "$n:LND, $p:rigid, $y:LND": (
                "rollup", "$n:rigid, $p:rigid, $y:LND"),
            "$n:LND, $p:LND, $y:rigid": (
                "rollup", "$n:LND, $p:rigid, $y:rigid"),
            "$n:LND, $p:LND, $y:LND": ("rollup", "$n:rigid, $p:LND, $y:LND"),
        }

    def test_tdcust_deny_all_oracle_is_td(self, encoding):
        table = figure1_table()
        deny = PropertyOracle.from_flags(table.lattice, False, False)
        asked = origins("TDCUST", table, deny, encoding)
        assert set(asked) == set(table.lattice.points())
        assert set(asked.values()) == {BASE}

    def test_tdcust_truthful_oracle_rolls_up_only_from_proven_sources(
        self, encoding
    ):
        """Figure 1 is neither disjoint nor covered: the one cuboid a
        truthful oracle lets TDCUST merge is the grand total."""
        table = figure1_table()
        lat = table.lattice
        truthful = PropertyOracle.from_data(table)
        asked = origins("TDCUST", table, truthful, encoding)
        rolled = {
            label: origin
            for label, origin in described(lat, asked).items()
            if origin[0] != "base"
        }
        assert rolled == {
            "$n:LND, $p:LND, $y:LND": ("rollup", "$n:LND, $p:rigid, $y:LND")
        }
        for origin in asked.values():
            assert origin == BASE or truthful.disjoint(origin.source)

    def test_tdcust_allow_all_oracle_is_tdopt(self, encoding):
        table = figure1_table()
        allow = PropertyOracle.from_flags(table.lattice, True, True)
        assert origins("TDCUST", table, allow, encoding) == origins(
            "TDOPT", table, None, encoding
        )
