"""Unit tests for the X3Query object."""

import pytest

from repro.core.aggregates import AggregateSpec
from repro.core.axes import AxisSpec
from repro.core.query import X3Query
from repro.datagen.publications import query1
from repro.errors import QueryError
from repro.patterns.pattern import EdgeAxis
from repro.patterns.relaxation import Relaxation


class TestValidation:
    def test_needs_axes(self):
        with pytest.raises(QueryError):
            X3Query(fact_tag="f", axes=())

    def test_needs_fact_tag(self):
        with pytest.raises(QueryError):
            X3Query(fact_tag="", axes=(AxisSpec.from_path("$a", "a"),))

    def test_duplicate_axis_names(self):
        with pytest.raises(QueryError):
            X3Query(
                fact_tag="f",
                axes=(
                    AxisSpec.from_path("$a", "a"),
                    AxisSpec.from_path("$a", "b"),
                ),
            )


class TestPatterns:
    def test_rigid_pattern_shape(self):
        pattern = query1().rigid_pattern()
        assert pattern.root.test == "publication"
        assert set(pattern.labelled()) == {"$fact", "$n", "$p", "$y"}
        name = pattern.by_label("$n")
        assert name.parent.test == "author"
        assert name.axis is EdgeAxis.CHILD

    def test_rigid_pattern_includes_fact_id(self):
        pattern = query1().rigid_pattern()
        id_nodes = [n for n in pattern.nodes() if n.test == "@id" and not n.label]
        assert id_nodes  # the measure's @id attribute is in the pattern

    def test_most_relaxed_pattern_all_axes_optional(self):
        relaxed = query1().most_relaxed()
        for label in ("$n", "$p", "$y"):
            assert relaxed.by_label(label).optional

    def test_relaxation_specs(self):
        specs = query1().relaxation_specs()
        assert specs["$n"] == {
            Relaxation.LND, Relaxation.SP, Relaxation.PC_AD,
        }
        assert specs["$y"] == {Relaxation.LND}


class TestFlwor:
    def test_render_contains_clauses(self):
        text = query1().to_flwor()
        assert 'doc("book.xml")//publication' in text
        assert "$p in $b//publisher/@id" in text
        assert "X^3 $b/@id by" in text
        assert text.rstrip().endswith("return COUNT($b).")

    def test_render_parse_round_trip(self):
        from repro.lang import parse_x3_query

        original = query1()
        again = parse_x3_query(original.to_flwor())
        assert again.fact_tag == original.fact_tag
        assert [a.name for a in again.axes] == [a.name for a in original.axes]
        for mine, theirs in zip(again.axes, original.axes):
            assert mine.steps == theirs.steps
            assert mine.relaxations == theirs.relaxations
        assert again.aggregate == original.aggregate

    def test_measure_path_rendered(self):
        query = X3Query(
            fact_tag="sale",
            axes=(AxisSpec.from_path("$r", "region"),),
            aggregate=AggregateSpec("SUM", "@amount"),
        )
        assert "return SUM($b/@amount)." in query.to_flwor()
