"""Unit tests for the columnar encoding itself (layout, views, caching)
and for the group-id kernel that reads it."""

import pickle
from array import array
from dataclasses import replace

import pytest

from repro.core.aggregates import AggregateSpec, get_function
from repro.core.axes import AxisSpec
from repro.core.bindings import AnnotatedValue, FactRow, FactTable
from repro.core.columnar import (
    COLUMNAR_ENTRIES_PER_PAGE,
    ColumnarFactTable,
    StateView,
    count_group_ids,
    extend_group_ids,
    fold_group_ids,
)
from repro.core.extract import extract_fact_table
from repro.core.incremental import ingest_rows, retract_rows
from repro.core.lattice import CubeLattice
from repro.datagen.publications import figure1_document, query1
from repro.datagen.workload import WorkloadConfig, build_workload
from repro.patterns.relaxation import Relaxation
from repro.testing import messy_workload, small_workload
from tests.core.test_columnar_differential import E2E_SHAPED


def two_axis_table(rows):
    axes = [
        AxisSpec.from_path(
            "$a", "a", frozenset({Relaxation.LND, Relaxation.PC_AD})
        ),
        AxisSpec.from_path("$b", "b", frozenset({Relaxation.LND})),
    ]
    return FactTable(CubeLattice(axes), rows)


def make_row(number, a_values, b_values, measure=1.0):
    return FactRow(
        fact_id=(0, number),
        measure=measure,
        axes=(tuple(a_values), tuple(b_values)),
    )


class TestEncoding:
    def test_dictionary_first_seen_order(self):
        table = two_axis_table(
            [
                make_row(0, [AnnotatedValue("x", 0b11)], [AnnotatedValue("p", 1)]),
                make_row(1, [AnnotatedValue("y", 0b11)], [AnnotatedValue("p", 1)]),
                make_row(2, [AnnotatedValue("x", 0b11)], [AnnotatedValue("q", 1)]),
            ]
        )
        encoded = table.columnar()
        assert encoded.columns[0].dictionary == ("x", "y")
        assert encoded.columns[1].dictionary == ("p", "q")
        assert list(encoded.columns[0].codes) == [0, 1, 0]

    def test_offsets_address_multi_valued_rows(self):
        table = two_axis_table(
            [
                make_row(
                    0,
                    [AnnotatedValue("x", 0b11), AnnotatedValue("y", 0b10)],
                    [AnnotatedValue("p", 1)],
                ),
                make_row(1, [], [AnnotatedValue("p", 1)]),
                make_row(2, [AnnotatedValue("y", 0b11)], []),
            ]
        )
        encoded = table.columnar()
        assert list(encoded.columns[0].offsets) == [0, 2, 2, 3]
        assert list(encoded.columns[1].offsets) == [0, 1, 2, 2]

    def test_union_masks_are_participation_bits(self):
        table = two_axis_table(
            [
                make_row(
                    0,
                    [AnnotatedValue("x", 0b10), AnnotatedValue("y", 0b10)],
                    [AnnotatedValue("p", 1)],
                ),
                make_row(1, [AnnotatedValue("x", 0b11)], []),
            ]
        )
        encoded = table.columnar()
        # Row 0 binds axis $a only under PC-AD (bit 1), row 1 under both.
        assert list(encoded.columns[0].union_masks) == [0b10, 0b11]
        assert encoded.null_mask(0, 0) == bytes([1, 0])
        assert encoded.null_mask(0, 1) == bytes([0, 0])
        assert encoded.null_mask(1, 0) == bytes([0, 1])

    def test_state_view_flat_when_single_valued(self):
        table = two_axis_table(
            [
                make_row(0, [AnnotatedValue("x", 0b11)], [AnnotatedValue("p", 1)]),
                make_row(1, [], [AnnotatedValue("q", 1)]),
            ]
        )
        encoded = table.columnar()
        view = encoded.state_view(0, 0)
        assert view.per_row is None
        assert list(view.flat) == [0, -1]
        assert view.missing == 1
        assert view.codes_of(0) == (0,)
        assert view.codes_of(1) == ()

    def test_state_view_per_row_when_multi_valued(self):
        table = two_axis_table(
            [
                make_row(
                    0,
                    [AnnotatedValue("x", 0b11), AnnotatedValue("y", 0b11)],
                    [AnnotatedValue("p", 1)],
                ),
            ]
        )
        encoded = table.columnar()
        view = encoded.state_view(0, 0)
        assert view.flat is None
        assert view.per_row == ((0, 1),)

    def test_state_view_distinct_codes_despite_duplicates(self):
        # The same value annotated twice with different masks must count
        # once under a state both masks match (NAIVE's distinct rule).
        table = two_axis_table(
            [
                make_row(
                    0,
                    [AnnotatedValue("x", 0b11), AnnotatedValue("x", 0b10)],
                    [AnnotatedValue("p", 1)],
                ),
            ]
        )
        encoded = table.columnar()
        assert encoded.state_view(0, 1).codes_of(0) == (0,)
        assert encoded.values_under(0, 0, 1) == ("x",)

    def test_measures_and_fact_ids_lossless(self):
        table = two_axis_table(
            [
                make_row(0, [AnnotatedValue("x", 0b11)], [], measure=0.1),
                make_row(7, [AnnotatedValue("y", 0b11)], [], measure=-3.75),
            ]
        )
        encoded = table.columnar()
        assert list(encoded.measures) == [0.1, -3.75]
        decoded = encoded.to_fact_table()
        assert decoded.rows == table.rows

    def test_memoryview_accessors(self):
        table = small_workload(n_facts=10).fact_table()
        encoded = table.columnar()
        assert isinstance(encoded.measures_view(), memoryview)
        assert encoded.codes_view(0).format == "q"
        assert len(encoded.offsets_view(0)) == len(table) + 1

    def test_stats_and_pages(self):
        table = small_workload(n_facts=20).fact_table()
        encoded = table.columnar()
        stats = encoded.stats()
        assert stats["n_rows"] == 20
        assert stats["encoded_pages"] == max(
            1, -(-encoded.encoded_entries // COLUMNAR_ENTRIES_PER_PAGE)
        )


def row_loop_view(table, encoded, position, state):
    """``(flat, per_row, missing)`` of one state view, read row by row
    off the :class:`FactRow`s: ``flat`` when no row binds two values."""
    code_of = {
        value: code
        for code, value in enumerate(encoded.columns[position].dictionary)
    }
    per_row = tuple(
        tuple(code_of[value] for value in row.values_under(position, state))
        for row in table.rows
    )
    missing = sum(1 for codes in per_row if not codes)
    if any(len(codes) > 1 for codes in per_row):
        return None, per_row, missing
    return [codes[0] if codes else -1 for codes in per_row], None, missing


def e2e_shaped_table(shape):
    config, _ = E2E_SHAPED[shape]
    return build_workload(
        WorkloadConfig(kind="treebank", seed=17, **config)
    ).fact_table()


def single_valued_with_a_gap():
    """Every row binds exactly one ``$a`` value; rows 1 and 3 bind it
    under PC-AD only, so the rigid state has a coverage gap."""
    return two_axis_table(
        [
            make_row(0, [AnnotatedValue("x", 0b11)], [AnnotatedValue("p", 1)]),
            make_row(1, [AnnotatedValue("y", 0b10)], [AnnotatedValue("p", 1)]),
            make_row(2, [AnnotatedValue("y", 0b11)], [AnnotatedValue("q", 1)]),
            make_row(3, [AnnotatedValue("x", 0b10)], [AnnotatedValue("q", 1)]),
        ]
    )


VIEW_TABLES = {
    "figure1": lambda: extract_fact_table(figure1_document(), query1()),
    "xml_to_cube": lambda: e2e_shaped_table("xml_to_cube"),
    "api_hot": lambda: e2e_shaped_table("api_hot"),
    "cluster_scatter": lambda: e2e_shaped_table("cluster_scatter"),
    "single_valued_gap": single_valued_with_a_gap,
    "empty": lambda: two_axis_table([]),
}


class TestStateViewsEqualTheRowLoop:
    @pytest.mark.parametrize("name", sorted(VIEW_TABLES))
    def test_every_axis_and_state(self, name):
        table = VIEW_TABLES[name]()
        encoded = ColumnarFactTable.from_table(table)
        for position, states in enumerate(table.lattice.axis_states):
            for state in range(len(states.states)):
                view = encoded.state_view(position, state)
                flat = None if view.flat is None else list(view.flat)
                assert (flat, view.per_row, view.missing) == row_loop_view(
                    table, encoded, position, state
                ), (position, states.describe(state))

    def test_the_gap_case_takes_the_single_valued_path(self):
        encoded = single_valued_with_a_gap().columnar()
        assert encoded.columns[0].single_valued
        view = encoded.state_view(0, 0)
        assert list(view.flat) == [0, -1, 1, -1] and view.missing == 2
        assert encoded.state_view(0, 1).missing == 0

    def test_single_valued_is_offsets_zero_to_n(self):
        assert two_axis_table([]).columnar().columns[0].single_valued
        multi = two_axis_table(
            [
                make_row(0, [AnnotatedValue("x", 0b11)], [AnnotatedValue("p", 1)]),
                make_row(1, [], [AnnotatedValue("q", 1)]),
            ]
        ).columnar()
        # Axis $a has a row with no value: offsets 0, 1, 1.
        assert not multi.columns[0].single_valued
        assert multi.columns[1].single_valued


class TestSemanticsParity:
    @pytest.mark.parametrize("workload", ["regular", "messy"])
    def test_key_combinations_and_participates_match(self, workload):
        build = small_workload if workload == "regular" else messy_workload
        table = build().fact_table()
        encoded = table.columnar()
        for point in table.lattice.points():
            for index, row in enumerate(table.rows):
                assert encoded.key_combinations(index, point) == (
                    table.key_combinations(row, point)
                )
                assert encoded.participates(index, point) == (
                    table.participates(row, point)
                )

    def test_values_under_matches_rows(self):
        table = messy_workload().fact_table()
        encoded = table.columnar()
        for index, row in enumerate(table.rows):
            for position, states in enumerate(table.lattice.axis_states):
                for state in range(len(states.states)):
                    assert encoded.values_under(
                        index, position, state
                    ) == row.values_under(position, state)


class TestCaching:
    def test_columnar_is_memoized(self):
        table = small_workload(n_facts=10).fact_table()
        assert table.columnar() is table.columnar()

    def test_ingest_invalidates(self):
        table = small_workload(n_facts=10).fact_table()
        first = table.columnar()
        ingest_rows(table, [replace(table.rows[0], fact_id=(99, 99))])
        second = table.columnar()
        assert second is not first
        assert second.n_rows == 11

    def test_retract_invalidates(self):
        table = small_workload(n_facts=10).fact_table()
        first = table.columnar()
        retract_rows(table, [table.rows[-1]])
        second = table.columnar()
        assert second is not first
        assert second.n_rows == 9

    def test_explicit_invalidation(self):
        table = small_workload(n_facts=10).fact_table()
        first = table.columnar()
        table.invalidate_columnar()
        assert table.columnar() is not first

    def test_pickle_drops_caches(self):
        table = small_workload(n_facts=10).fact_table()
        table.columnar()  # warm the table cache
        table.rows[0].values_under(0, 0)  # warm a row memo
        clone = pickle.loads(pickle.dumps(table))
        assert clone._columnar_cache is None
        assert "_values_cache" not in clone.rows[0].__dict__
        assert clone.rows == table.rows

    def test_values_under_memo_returns_same_answer(self):
        table = messy_workload().fact_table()
        row = table.rows[0]
        first = row.values_under(0, 0)
        again = row.values_under(0, 0)
        assert first == again
        fresh = FactRow(row.fact_id, row.measure, row.axes)
        assert fresh.values_under(0, 0) == first


class TestRoundTripAggregates:
    def test_aggregate_spec_preserved(self):
        table = small_workload(n_facts=5).fact_table()
        spec = AggregateSpec("SUM", "@m")
        table = FactTable(table.lattice, table.rows, spec)
        decoded = table.columnar().to_fact_table()
        assert decoded.aggregate == spec

    def test_empty_table(self):
        table = two_axis_table([])
        encoded = table.columnar()
        assert encoded.n_rows == 0
        assert encoded.to_fact_table().rows == []
        assert encoded.encoded_pages == 1

    def test_snapshot_is_json_shaped(self):
        import json

        table = small_workload(n_facts=6).fact_table()
        snapshot = table.columnar().snapshot()
        text = json.dumps(snapshot, sort_keys=True)
        assert json.loads(text) == snapshot

    def test_from_table_equals_accessor(self):
        table = small_workload(n_facts=6).fact_table()
        direct = ColumnarFactTable.from_table(table)
        assert direct.snapshot() == table.columnar().snapshot()


def flat_view(codes):
    return StateView(
        flat=array("q", codes),
        per_row=None,
        missing=sum(1 for code in codes if code < 0),
    )


def per_row_view(codes):
    return StateView(
        flat=None,
        per_row=tuple(tuple(row) for row in codes),
        missing=sum(1 for row in codes if not row),
    )


class TestGroupIdKernel:
    """The long-form ``(rows, gids)`` column on hand-built views."""

    def test_flat_without_gaps_keeps_the_identity(self):
        rows, gids = extend_group_ids(
            None, [0, 0, 0], flat_view([1, 0, 1]), 2
        )
        assert rows is None and gids == [1, 0, 1]
        rows, gids = extend_group_ids(
            rows, gids, flat_view([2, 2, 0]), 3
        )
        assert rows is None and gids == [5, 2, 3]

    def test_flat_with_gaps_compacts_the_rows(self):
        rows, gids = extend_group_ids(
            None, [0, 0, 0, 0], flat_view([1, -1, 0, 1]), 2
        )
        assert rows == [0, 2, 3] and gids == [1, 0, 1]
        # The next axis is read through ``rows``: row 1's code is
        # never looked at, row 3 drops out here.
        rows, gids = extend_group_ids(
            rows, gids, flat_view([0, 9, 1, -1]), 2
        )
        assert rows == [0, 2] and gids == [2, 1]
        # A gap-free axis below a compacted column gathers, drops none.
        same, gids = extend_group_ids(
            rows, gids, flat_view([1, 0, 0, 1]), 2
        )
        assert same == [0, 2] and gids == [5, 2]

    def test_fan_out_is_row_order_then_product_order(self):
        rows, gids = extend_group_ids(
            None, [0, 0, 0], per_row_view([(0, 1), (), (1,)]), 2
        )
        assert rows == [0, 0, 2] and gids == [0, 1, 1]
        rows, gids = extend_group_ids(
            rows, gids, per_row_view([(0, 1), (0,), (1, 0)]), 2
        )
        # Row 0: ids 0 then 1, each times codes 0 then 1 (the earlier
        # axis varies slowest); row 2: id 1 times codes 1 then 0.
        assert rows == [0, 0, 0, 0, 2, 2]
        assert gids == [0, 1, 2, 3, 3, 2]
        # A flat axis under a fanned-out column: one code per entry.
        rows, gids = extend_group_ids(
            rows, gids, flat_view([1, 0, -1]), 2
        )
        assert rows == [0, 0, 0, 0] and gids == [1, 3, 5, 7]

    def test_missing_code_assigns_the_null_digit(self):
        rows, gids = extend_group_ids(
            None, [0, 0, 0], flat_view([1, -1, 0]), 3, missing_code=2
        )
        assert rows is None and gids == [1, 2, 0]
        rows, gids = extend_group_ids(
            rows, gids, per_row_view([(), (0, 1), (1,)]), 3, missing_code=2
        )
        assert rows == [0, 1, 1, 2] and gids == [5, 6, 7, 1]

    @pytest.mark.parametrize(
        "view",
        [flat_view([1, -1, 0]), per_row_view([(0, 1), (), (1,)])],
    )
    def test_keep_rows_false_builds_the_same_gids(self, view):
        rows, gids = extend_group_ids(None, [0, 0, 0], view, 2)
        assert rows is not None
        assert extend_group_ids(
            None, [0, 0, 0], view, 2, keep_rows=False
        ) == (None, gids)

    def test_folds_read_measures_through_rows(self):
        measures = array("d", [1.5, 9.0, 2.25])
        rows, gids = [0, 0, 2], [4, 7, 7]
        assert count_group_ids(gids) == 2
        assert fold_group_ids(
            get_function("COUNT"), None, gids, measures
        ) == ({4: 1, 7: 2}, 3)
        assert fold_group_ids(
            get_function("SUM"), rows, gids, measures
        ) == ({4: 1.5, 7: 3.75}, 3)
        assert fold_group_ids(
            get_function("MIN"), rows, gids, measures
        ) == ({4: 1.5, 7: 1.5}, 3)
        # The identity column pairs entry k with row k.
        assert fold_group_ids(
            get_function("SUM"), None, gids, measures
        ) == ({4: 1.5, 7: 11.25}, 3)
