"""Unit tests for axis specifications."""

import pytest

from repro.core.axes import AxisSpec
from repro.errors import QueryError
from repro.patterns.pattern import EdgeAxis
from repro.patterns.relaxation import Relaxation

ALL = frozenset({Relaxation.LND, Relaxation.SP, Relaxation.PC_AD})


class TestConstruction:
    def test_from_path(self):
        axis = AxisSpec.from_path("$n", "author/name", ALL)
        assert axis.binding_test == "name"
        assert axis.path_text() == "author/name"

    def test_descendant_path(self):
        axis = AxisSpec.from_path("$p", "//publisher/@id")
        assert axis.path_text() == "//publisher/@id"
        assert axis.binding_test == "@id"

    def test_lnd_always_implied(self):
        axis = AxisSpec.from_path("$y", "year", frozenset())
        assert Relaxation.LND in axis.relaxations

    def test_name_must_be_variable(self):
        with pytest.raises(QueryError):
            AxisSpec("y", ((EdgeAxis.CHILD, "year"),))

    def test_empty_path_rejected(self):
        with pytest.raises(QueryError):
            AxisSpec("$y", ())

    def test_sp_needs_intermediate(self):
        with pytest.raises(QueryError):
            AxisSpec.from_path("$y", "year", frozenset({Relaxation.SP}))

    def test_attribute_mid_path_rejected(self):
        with pytest.raises(QueryError):
            AxisSpec(
                "$x",
                ((EdgeAxis.CHILD, "@id"), (EdgeAxis.CHILD, "b")),
            )

    def test_structural_excludes_lnd(self):
        axis = AxisSpec.from_path("$n", "author/name", ALL)
        assert axis.structural == {Relaxation.SP, Relaxation.PC_AD}


class TestStepsForState:
    def test_rigid(self):
        axis = AxisSpec.from_path("$n", "author/name", ALL)
        binding, prefix = axis.steps_for_state(frozenset())
        assert binding == axis.steps
        assert prefix == ()

    def test_pc_ad_generalizes_element_edges(self):
        axis = AxisSpec.from_path("$n", "author/name", ALL)
        binding, _ = axis.steps_for_state(frozenset({Relaxation.PC_AD}))
        assert all(edge is EdgeAxis.DESCENDANT for edge, _ in binding)

    def test_pc_ad_keeps_attribute_edges(self):
        axis = AxisSpec.from_path(
            "$p", "publisher/@id", frozenset({Relaxation.PC_AD})
        )
        binding, _ = axis.steps_for_state(frozenset({Relaxation.PC_AD}))
        assert binding[0] == (EdgeAxis.DESCENDANT, "publisher")
        assert binding[1] == (EdgeAxis.CHILD, "@id")

    def test_sp_promotes_binding(self):
        axis = AxisSpec.from_path("$n", "author/name", ALL)
        binding, prefix = axis.steps_for_state(frozenset({Relaxation.SP}))
        assert binding == ((EdgeAxis.DESCENDANT, "name"),)
        assert prefix == ((EdgeAxis.CHILD, "author"),)

    def test_sp_plus_pcad(self):
        axis = AxisSpec.from_path("$n", "author/name", ALL)
        binding, prefix = axis.steps_for_state(
            frozenset({Relaxation.SP, Relaxation.PC_AD})
        )
        assert binding == ((EdgeAxis.DESCENDANT, "name"),)
        assert prefix == ((EdgeAxis.DESCENDANT, "author"),)


class TestDisplay:
    def test_str_lists_relaxations(self):
        axis = AxisSpec.from_path("$n", "author/name", ALL)
        text = str(axis)
        assert "$n" in text and "LND" in text and "SP" in text
