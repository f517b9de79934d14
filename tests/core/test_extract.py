"""Unit tests for fact-table extraction.

The masks asserted here encode the paper's Figure 1 walk-through; the
axis state order for $n is [rigid, PC-AD, SP, PC-AD+SP] (bits 1,2,4,8)
and for $p [rigid, PC-AD] (bits 1,2).
"""

import pytest

from repro.core.extract import extract_fact_table, extract_from_documents
from repro.datagen.publications import figure1_document, query1


@pytest.fixture(scope="module")
def table():
    return extract_from_documents([figure1_document()], query1())


def row_by_pub(table, pub_id):
    # Figure 1 publications carry @id 1..4; fact rows are in doc order.
    return table.rows[pub_id - 1]


class TestFigure1Annotations:
    def test_four_facts(self, table):
        assert len(table) == 4

    def test_pub1_all_rigid(self, table):
        row = row_by_pub(table, 1)
        names = {v.value: v.mask for v in row.axes[0]}
        assert names == {"John": 0b1111, "Jane": 0b1111}
        assert [v.value for v in row.axes[1]] == ["p1"]
        assert [v.value for v in row.axes[2]] == ["2003"]

    def test_pub2_two_years(self, table):
        row = row_by_pub(table, 2)
        assert sorted(v.value for v in row.axes[2]) == ["2004", "2005"]

    def test_pub3_name_needs_pcad(self, table):
        row = row_by_pub(table, 3)
        (smith,) = row.axes[0]
        assert smith.value == "Smith"
        assert not smith.matches(0)   # rigid misses it
        assert smith.matches(1)       # PC-AD finds it
        assert not smith.matches(2)   # SP alone: author prefix fails
        assert smith.matches(3)       # SP+PC-AD finds it
        assert row.axes[1] == ()      # no publisher at all

    def test_pub4_publisher_found_year_not(self, table):
        row = row_by_pub(table, 4)
        assert [v.value for v in row.axes[1]] == ["p3"]
        assert row.axes[2] == ()      # year hides under pubData; $y is LND-only

    def test_masks_monotone_upward(self, table):
        # A value matching a state also matches every superset state.
        for row in table.rows:
            for position, states in enumerate(table.lattice.axis_states):
                for annotated in row.axes[position]:
                    for i, state_i in enumerate(states.states):
                        for j, state_j in enumerate(states.states):
                            if state_i <= state_j and annotated.matches(i):
                                assert annotated.matches(j)

    def test_count_measures_are_one(self, table):
        assert all(row.measure == 1.0 for row in table.rows)

    def test_aggregate_attached(self, table):
        assert table.aggregate.function == "COUNT"


class TestDispatch:
    def test_dispatch(self):
        doc = figure1_document()
        assert len(extract_fact_table(doc, query1())) == 4
        assert len(extract_fact_table([doc, doc], query1())) == 8


class TestMeasures:
    def test_sum_measure_extraction(self):
        from repro.core.aggregates import AggregateSpec
        from repro.core.axes import AxisSpec
        from repro.core.query import X3Query
        from repro.xmlmodel.parser import parse

        doc = parse(
            '<r><sale price="10"><region>EU</region></sale>'
            '<sale price="5"><region>US</region></sale>'
            '<sale><region>US</region></sale></r>'
        )
        query = X3Query(
            fact_tag="sale",
            axes=(AxisSpec.from_path("$r", "region"),),
            aggregate=AggregateSpec("SUM", "@price"),
            fact_id_path="",
        )
        table = extract_fact_table(doc, query)
        assert [row.measure for row in table.rows] == [10.0, 5.0, 0.0]

    def test_non_numeric_measures_skipped(self):
        from repro.core.aggregates import AggregateSpec
        from repro.core.axes import AxisSpec
        from repro.core.query import X3Query
        from repro.xmlmodel.parser import parse

        doc = parse('<r><sale price="oops"><region>EU</region></sale></r>')
        query = X3Query(
            fact_tag="sale",
            axes=(AxisSpec.from_path("$r", "region"),),
            aggregate=AggregateSpec("SUM", "@price"),
            fact_id_path="",
        )
        table = extract_fact_table(doc, query)
        assert table.rows[0].measure == 0.0
