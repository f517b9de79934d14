"""Failure injection: tiny resources, exhausted budgets, hostile inputs.

Production systems degrade, they don't corrupt: a one-frame buffer pool
must still return correct data (just slowly), a failed overflow must
raise rather than silently drop work, and hostile XML must be rejected
with positioned errors.
"""

import pytest

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.extract import extract_from_db
from repro.datagen.publications import figure1_document, query1
from repro.errors import MemoryBudgetExceeded, XmlParseError
from repro.timber.database import TimberDB
from repro.timber.stats import MemoryBudget
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize


class TestTinyBufferPool:
    def test_one_frame_pool_still_correct(self):
        db = TimberDB(buffer_pages=1, page_capacity=2)
        db.load(serialize(figure1_document()))
        db.build_index()
        table = extract_from_db(db, query1())
        reference_db = TimberDB()
        reference_db.load(serialize(figure1_document()))
        reference = extract_from_db(reference_db, query1())
        assert len(table) == len(reference)
        for mine, theirs in zip(table.rows, reference.rows):
            assert mine.axes == theirs.axes

    def test_one_frame_pool_pays_io_on_rereference(self):
        """A warm roomy pool serves a second pass from cache; a one-frame
        pool re-reads everything."""

        def double_extract(buffer_pages):
            db = TimberDB(buffer_pages=buffer_pages, page_capacity=2)
            db.load(serialize(figure1_document()))
            db.build_index()
            db.reset_cost()
            extract_from_db(db, query1())
            first = db.cost.io.page_reads
            extract_from_db(db, query1())
            return first, db.cost.io.page_reads

        tiny_first, tiny_total = double_extract(1)
        roomy_first, roomy_total = double_extract(1024)
        assert roomy_total == roomy_first      # second pass fully cached
        assert tiny_total >= 2 * tiny_first    # second pass re-read


class TestBudgetExhaustion:
    def test_fail_on_overflow_raises(self):
        budget = MemoryBudget(8, fail_on_overflow=True)
        budget.acquire(8)
        with pytest.raises(MemoryBudgetExceeded):
            budget.acquire(1)

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

    def test_db_load_rejects_malformed_without_partial_state(self):
        db = TimberDB()
        with pytest.raises(XmlParseError):
            db.load("<a><b></a>")
        assert db.document_count == 0


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
