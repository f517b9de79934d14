"""Unit tests for the warehouse facade and the Sec. 4.6 advisor."""

import pytest

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.properties import PropertyOracle
from repro.datagen.dblp import DBLP_DTD, DblpConfig, generate_dblp
from repro.datagen.publications import QUERY1_TEXT, figure1_document
from repro.errors import QueryError
from repro.schema.dtd_parser import parse_dtd
from repro.schema.inference import infer_dtd
from repro.warehouse import Recommendation, XmlWarehouse, choose_algorithm
from repro.xmlmodel.serializer import serialize


class TestChooseAlgorithm:
    def _oracle(self, lattice, disjoint, covered):
        return PropertyOracle.from_flags(lattice, disjoint, covered)

    def _lattice(self):
        from repro.datagen.publications import query1

        return query1().lattice()

    def test_columnar_counter_for_small_low_dimensional(self):
        oracle = self._oracle(self._lattice(), False, False)
        rec = choose_algorithm(
            oracle, dense=True, n_axes=3,
            cube_cells_estimate=100, memory_entries=10_000,
        )
        assert rec.algorithm == "COLUMNAR"

    def test_tdoptall_for_dense_summarizable(self):
        oracle = self._oracle(self._lattice(), True, True)
        rec = choose_algorithm(
            oracle, dense=True, n_axes=6,
            cube_cells_estimate=10**6, memory_entries=10_000,
        )
        assert rec.algorithm == "TDOPTALL"

    def test_bucopt_when_disjoint(self):
        oracle = self._oracle(self._lattice(), True, False)
        rec = choose_algorithm(
            oracle, dense=False, n_axes=6,
            cube_cells_estimate=10**6, memory_entries=10_000,
        )
        assert rec.algorithm == "BUCOPT"

    def test_buccust_with_partial_disjointness(self):
        from repro.datagen.dblp import dblp_dtd, dblp_query

        lattice = dblp_query().lattice()
        oracle = PropertyOracle.from_schema(lattice, dblp_dtd(), "article")
        rec = choose_algorithm(
            oracle, dense=False, n_axes=4,
            cube_cells_estimate=10**6, memory_entries=10_000,
        )
        assert rec.algorithm == "BUCCUST"

    def test_safe_buc_fallback(self):
        oracle = self._oracle(self._lattice(), False, False)
        rec = choose_algorithm(
            oracle, dense=False, n_axes=6,
            cube_cells_estimate=10**6, memory_entries=10_000,
        )
        assert rec.algorithm == "BUC"
        assert "correct" in rec.rationale


class TestXmlWarehouse:
    def test_empty_warehouse_rejects_query(self):
        with pytest.raises(QueryError):
            XmlWarehouse().query(QUERY1_TEXT)

    def test_end_to_end_with_inferred_schema(self):
        warehouse = XmlWarehouse()
        warehouse.add(serialize(figure1_document()))
        session = warehouse.query(QUERY1_TEXT)
        cube = session.compute()
        assert session.cuboid("$n:LND, $p:LND, $y:rigid") == {
            ("2003",): 2.0, ("2004",): 1.0, ("2005",): 1.0,
        }
        # The chosen algorithm must be a correct one on this data.
        reference = compute_cube(session.table, ExecutionOptions(algorithm="NAIVE"))
        assert cube.same_contents(reference)

    def test_declared_dtd_drives_oracle(self):
        warehouse = XmlWarehouse(dtd=parse_dtd(DBLP_DTD))
        warehouse.add(serialize(generate_dblp(DblpConfig(n_articles=60))))
        text = (
            'for $a in doc("dblp.xml")//article, $y in $a/year, '
            "$j in $a/journal X^3 $a/@key by $y (LND), $j (LND) "
            "return COUNT($a)."
        )
        session = warehouse.query(text)
        report = session.properties_report()
        assert report["$y"] == (True, True)
        assert report["$j"] == (True, True)

    def test_inferred_dtd_refreshes_on_add(self):
        warehouse = XmlWarehouse()
        warehouse.add("<db><f><a>1</a></f></db>")
        first = warehouse.dtd
        assert not first.get("f").children["a"].may_be_absent
        warehouse.add("<db><f/></db>")
        second = warehouse.dtd
        assert second.get("f").children["a"].may_be_absent

    def test_recommendation_shapes(self):
        warehouse = XmlWarehouse()
        warehouse.add(serialize(figure1_document()))
        session = warehouse.query(QUERY1_TEXT)
        rec = session.recommend()
        assert isinstance(rec, Recommendation)
        assert rec.algorithm in {
            "COUNTER", "COLUMNAR", "BUC", "BUCOPT", "BUCCUST", "TDOPTALL",
        }

    def test_fact_count(self):
        warehouse = XmlWarehouse()
        warehouse.add(serialize(figure1_document()))
        warehouse.add(serialize(figure1_document()))
        assert warehouse.fact_count("publication") == 8

    def test_structured_query_accepted(self):
        from repro.datagen.publications import query1

        warehouse = XmlWarehouse()
        warehouse.add(serialize(figure1_document()))
        session = warehouse.query(query1())
        assert len(session.table) == 4

    def test_result_property_computes_lazily(self):
        warehouse = XmlWarehouse()
        warehouse.add(serialize(figure1_document()))
        session = warehouse.query(QUERY1_TEXT)
        assert session.result.total_cells() > 0


def _treebank_family(**knobs):
    from repro.datagen.treebank import (
        TreebankConfig,
        generate_treebank,
        treebank_query,
    )

    config = TreebankConfig(n_facts=60, **knobs)
    return generate_treebank(config), treebank_query(config)


def _catalog_family():
    from repro.datagen.catalog import (
        CatalogConfig,
        catalog_query,
        generate_catalog,
    )

    return generate_catalog(CatalogConfig(n_products=60)), catalog_query("SUM")


def _dblp_family():
    from repro.datagen.dblp import dblp_query

    return generate_dblp(DblpConfig(n_articles=60)), dblp_query()


def _publications_family():
    from repro.datagen.publications import query1, random_publications

    return random_publications(60, seed=3), query1()


#: family -> () -> (generated document, its shipped query)
DATAGEN_FAMILIES = {
    "figure1": lambda: (figure1_document(), QUERY1_TEXT),
    "publications": _publications_family,
    "treebank-messy": lambda: _treebank_family(
        n_axes=4, coverage=False, disjoint=False, seed=5
    ),
    "treebank-dense": lambda: _treebank_family(n_axes=6, density="dense"),
    "dblp": _dblp_family,
    "catalog": _catalog_family,
}


class TestIngestBuildsNoTree:
    """``add(text)`` + ``query(q)`` reads the parser's region table: not
    one ``Element`` is constructed on the way (ISSUE 19)."""

    @pytest.mark.parametrize("family", sorted(DATAGEN_FAMILIES))
    def test_zero_elements(self, family, count_elements):
        built, query = DATAGEN_FAMILIES[family]()
        text = serialize(built)
        before = count_elements()  # the generators build trees
        warehouse = XmlWarehouse()
        warehouse.add(text)
        session = warehouse.query(query)
        fact_tag = session.query.fact_tag
        assert len(session.table) == warehouse.fact_count(fact_tag) > 0
        assert session.recommend().algorithm
        assert count_elements() == before

    def test_the_guard_counts(self, count_elements):
        warehouse = XmlWarehouse()
        doc = warehouse.add(serialize(figure1_document()))
        before = count_elements()
        assert doc.root.tag == "database"  # the tree's first touch
        assert count_elements() - before == doc.element_count()


def verdicts(oracle):
    """Every (disjoint, covered) verdict an oracle holds, as plain data."""
    return [
        (
            position,
            state,
            oracle.axis_disjoint(position, state),
            oracle.axis_covered(position, state),
        )
        for position, states in enumerate(oracle.lattice.axis_states)
        for state in range(len(states.states))
    ]


class TestOracleIsDerivedOnFirstRead:
    """``add`` + ``query`` infer no DTD and build no oracle (ISSUE 23): a
    caller who brings its own oracle to ``CubeServer`` never pays for
    one; whoever reads ``session.oracle`` pays once, and gets what
    ``query`` used to build."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        import repro.warehouse as module

        counts = {"infer_dtd": 0, "from_schema": 0}
        from_schema = PropertyOracle.from_schema

        def counting_infer(docs):
            counts["infer_dtd"] += 1
            return infer_dtd(docs)

        def counting_from_schema(*args):
            counts["from_schema"] += 1
            return from_schema(*args)

        monkeypatch.setattr(module, "infer_dtd", counting_infer)
        monkeypatch.setattr(
            PropertyOracle, "from_schema", staticmethod(counting_from_schema)
        )
        return counts

    def test_query_derives_nothing_and_the_first_read_once(self, calls):
        warehouse = XmlWarehouse()
        warehouse.add(serialize(figure1_document()))
        session = warehouse.query(QUERY1_TEXT)
        assert calls == {"infer_dtd": 0, "from_schema": 0}
        first = session.oracle
        assert calls == {"infer_dtd": 1, "from_schema": 1}
        session.recommend()
        session.properties_report()
        session.compute()
        assert session.oracle is first
        assert calls == {"infer_dtd": 1, "from_schema": 1}

    def test_a_declared_dtd_is_never_inferred(self, calls):
        built, query = _dblp_family()
        warehouse = XmlWarehouse(dtd=parse_dtd(DBLP_DTD))
        warehouse.add(serialize(built))
        session = warehouse.query(query)
        assert calls == {"infer_dtd": 0, "from_schema": 0}
        assert verdicts(session.oracle) == verdicts(
            PropertyOracle.from_schema(
                session.table.lattice, parse_dtd(DBLP_DTD), "article"
            )
        )
        assert calls == {"infer_dtd": 0, "from_schema": 2}

    @pytest.mark.parametrize("family", sorted(DATAGEN_FAMILIES))
    def test_lazy_equals_eager(self, family):
        built, query = DATAGEN_FAMILIES[family]()
        warehouse = XmlWarehouse()
        doc = warehouse.add(serialize(built))
        session = warehouse.query(query)
        fact_tag = session.query.fact_tag
        # Added behind the query: not in the table, so not in the oracle.
        warehouse.add(f"<{doc.root.tag}><{fact_tag}/></{doc.root.tag}>")
        eager = PropertyOracle.from_schema(
            session.table.lattice, infer_dtd([doc]), fact_tag
        )
        assert verdicts(session.oracle) == verdicts(eager)

    def test_a_later_add_reaches_the_next_session_only(self):
        text = (
            'for $f in doc("d.xml")//f, $a in $f/a '
            "X^3 $f by $a (LND) return COUNT($f)."
        )
        warehouse = XmlWarehouse()
        warehouse.add("<db><f><a>1</a></f><f><a>2</a></f></db>")
        session = warehouse.query(text)
        warehouse.add("<db><f/></db>")  # a fact without its axis
        assert session.properties_report() == {"$a": (True, True)}
        assert warehouse.query(text).properties_report() == {
            "$a": (True, False)
        }
