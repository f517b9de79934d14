"""Failure injection: exhausted budgets, hostile inputs, empty inputs.

Production systems degrade, they don't corrupt: an algorithm starved of
memory must still return the right cube (just more slowly, by spilling),
and hostile XML must be rejected with positioned errors.
"""

import pytest

from repro.core.cube import ExecutionOptions, compute_cube
from repro.datagen.publications import query1
from repro.errors import XmlParseError
from repro.xmlmodel.parser import parse


class TestBudgetExhaustion:
    def test_algorithms_survive_minimal_budget(self, fig1_table):
        reference = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        for name in ("COUNTER", "BUC", "TD"):
            result = compute_cube(
                fig1_table, ExecutionOptions(algorithm=name, memory_entries=1)
            )
            assert result.same_contents(reference), name

    def test_minimal_budget_costs_more(self, fig1_table):
        roomy = compute_cube(
            fig1_table, ExecutionOptions(algorithm="TD", memory_entries=100_000)
        )
        starved = compute_cube(
            fig1_table, ExecutionOptions(algorithm="TD", memory_entries=4)
        )
        assert starved.simulated_seconds > roomy.simulated_seconds


class TestHostileXml:
    @pytest.mark.parametrize(
        "payload",
        [
            "<a>" * 50,                          # never closed
            "<a>" + "&bogus;" + "</a>",          # undefined entity
            "<a b='1' b='2'/>",                  # duplicate attribute
            "<!DOCTYPE a [ <!ELEMENT",           # truncated DOCTYPE
            "<a><![CDATA[",                      # unterminated CDATA
        ],
    )
    def test_rejected_with_parse_error(self, payload):
        with pytest.raises(XmlParseError):
            parse(payload)

    def test_deep_nesting_survives(self):
        depth = 200
        text = "<a>" * depth + "</a>" * depth
        doc = parse(text)
        assert doc.max_depth() == depth - 1


class TestEmptyInputs:
    def test_cube_of_empty_table(self):
        from repro.core.bindings import FactTable

        lattice = query1().lattice()
        table = FactTable(lattice, [])
        for name in ("NAIVE", "COUNTER", "BUC", "TD", "TDOPT", "TDOPTALL"):
            result = compute_cube(table, ExecutionOptions(algorithm=name))
            assert all(
                cuboid == {} for cuboid in result.cuboids.values()
            ), name

    def test_document_without_facts(self):
        doc = parse("<database><nothing/></database>")
        from repro.core.extract import extract_fact_table

        table = extract_fact_table(doc, query1())
        assert len(table) == 0
