"""The compiled-plan extraction against the per-fact evaluator it
replaced.

Contract (ISSUE 17): ``FactTable.rows`` — fact ids, measures, and per
axis the values, their order and their state masks — are equal on every
input.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregateSpec
from repro.core.axes import AxisSpec
from repro.core.extract import extract_from_documents
from repro.core.query import X3Query
from repro.datagen.catalog import CatalogConfig, catalog_query, generate_catalog
from repro.datagen.dblp import DblpConfig, dblp_query, generate_dblp
from repro.datagen.publications import (
    figure1_document,
    query1,
    random_publications,
)
from repro.datagen.treebank import (
    TreebankConfig,
    generate_treebank,
    treebank_query,
)
from repro.patterns.relaxation import Relaxation
from repro.xmlmodel.nodes import Document
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize
from tests.prop import reference_extract
from tests.prop.test_hypothesis_xml import random_element

LND, SP, PC_AD = Relaxation.LND, Relaxation.SP, Relaxation.PC_AD
RELAXATIONS = {
    "LND": frozenset({LND}),
    "SP": frozenset({LND, SP}),
    "PC-AD": frozenset({LND, PC_AD}),
    "SP+PC-AD": frozenset({LND, SP, PC_AD}),
}

MESSY = TreebankConfig(
    n_facts=80, n_axes=4, coverage=False, disjoint=False, seed=5
)
DENSE = TreebankConfig(n_facts=80, n_axes=6, density="dense")

#: family -> (documents, fact tag, paths of length >= 2 where SP applies)
FAMILIES = {
    "figure1": (
        lambda: [figure1_document()],
        "publication",
        ["author/name", "//publisher/@id", "year", "*/name", "//*"],
    ),
    "publications": (
        lambda: [random_publications(120, seed=3)],
        "publication",
        ["author/name", "//publisher/@id", "year", "authors/author/name"],
    ),
    "treebank-messy": (
        lambda: [generate_treebank(MESSY)],
        "sentence",
        ["m1", "phrase/m2", "//m3", "*/w", "np//w", "@id"],
    ),
    "treebank-dense": (
        lambda: [generate_treebank(DENSE)],
        "sentence",
        ["m1", "m6", "//w", "*/*/w"],
    ),
    "dblp": (
        lambda: [generate_dblp(DblpConfig(n_articles=120))],
        "article",
        ["author", "year", "@key", "//journal"],
    ),
    "catalog": (
        lambda: [generate_catalog(CatalogConfig(n_products=120))],
        "product",
        [
            "category",
            "taxonomy/node/category",
            "details/manufacturer/brand",
            "@sku",
            "//@sku",
        ],
    ),
}


def _query(fact_tag, paths, permitted, aggregate=None):
    axes = []
    for index, path in enumerate(paths):
        allowed = permitted
        if len(AxisSpec.from_path("$probe", path).steps) < 2:
            allowed = permitted - {SP}  # SP needs an intermediate node
        axes.append(AxisSpec.from_path(f"$x{index}", path, allowed))
    return X3Query(
        fact_tag=fact_tag,
        axes=tuple(axes),
        aggregate=aggregate or AggregateSpec("COUNT"),
    )


def _round_trip(docs):
    """The documents as a warehouse sees them: parsed from text."""
    return [parse(serialize(doc), name=doc.name) for doc in docs]


def assert_same_rows(docs, query):
    new = extract_from_documents(docs, query)
    old = reference_extract.extract_from_documents(docs, query)
    assert new.rows == old.rows
    assert new.aggregate == old.aggregate
    return new


# ----------------------------------------------------------------------
# (ii) every datagen family x every relaxation set
# ----------------------------------------------------------------------
@pytest.mark.parametrize("relaxations", sorted(RELAXATIONS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_families_extract_equal(family, relaxations):
    build, fact_tag, paths = FAMILIES[family]
    query = _query(fact_tag, paths, RELAXATIONS[relaxations])
    built = build()
    in_memory = assert_same_rows(built, query)
    parsed = assert_same_rows(_round_trip(built), query)
    # The index the parser assigns while building and the one reindex()
    # assigns slice the same way.
    assert in_memory.rows == parsed.rows


def test_the_shipped_queries_extract_equal():
    for docs, query in [
        ([figure1_document()], query1()),
        ([random_publications(150, seed=9)], query1()),
        ([generate_treebank(MESSY)], treebank_query(MESSY)),
        ([generate_treebank(DENSE)], treebank_query(DENSE)),
        ([generate_dblp(DblpConfig(n_articles=150))], dblp_query()),
        (
            [generate_catalog(CatalogConfig(n_products=150))],
            catalog_query(),
        ),
    ]:
        assert len(assert_same_rows(docs, query).rows) > 0


@pytest.mark.parametrize("function", ["SUM", "AVG", "MIN", "MAX"])
def test_non_count_measures_extract_equal(function):
    docs = [generate_catalog(CatalogConfig(n_products=150))]
    query = catalog_query(function)
    table = assert_same_rows(docs, query)
    assert {row.measure for row in table.rows} - {0.0, 1.0}
    # A measure path that descends, repeats and meets non-numbers.
    messy = _query(
        "product",
        ["brand"],
        RELAXATIONS["PC-AD"],
        AggregateSpec(function, "//*"),
    )
    assert_same_rows(docs, messy)


def test_multi_document_warehouses_extract_equal():
    docs = [
        random_publications(40, seed=1),
        figure1_document(),
        random_publications(40, seed=2),
    ]
    table = assert_same_rows(docs, query1())
    assert {row.fact_id[0] for row in table.rows} == {0, 1, 2}


def test_facts_nested_in_facts_extract_equal():
    doc = parse(
        "<r><f id='1'><g>a</g><f id='2'><g>b</g><h><g>c</g></h></f></f>"
        "<f id='3'/></r>"
    )
    for relaxations in RELAXATIONS.values():
        query = _query("f", ["g", "h/g", "//g", "f/g", "//f//g"], relaxations)
        assert_same_rows([doc], query)


# ----------------------------------------------------------------------
# (v) what a set-at-a-time join can get wrong (ISSUE 19): the in-memory
# extractor evaluates a path once for all facts, so the order in which
# one fact sights its values is no longer the order of a walk
# ----------------------------------------------------------------------
NESTED_PHRASES = (
    "<t>"
    "<s id='1'><np k='o'><w>a</w><np k='i'><w>b</w><pp><w>c</w></pp></np>"
    "<w>d</w></np><w>e</w></s>"
    "<s id='2'><pp><np><w>f</w></np></pp>"
    "<s id='3'><np><np><np><w>g</w></np><w>h</w></np><w>g</w></np></s>"
    "<np><w>i</w></np></s>"
    "<s id='4'/>"
    "<s id='5'><np><np><np><w>j</w></np></np><np><w>k</w></np></np></s>"
    "</t>"
)


def _both_shapes(text):
    """The parsed document (a table) and an equal hand-built one (a
    tree whose table is derived)."""
    return parse(text), Document(parse(text).root.detach())


def test_nested_frontiers_extract_equal():
    # A child of the outer <np> that follows the inner <np> in the
    # document is sighted *before* the inner one's children by the
    # per-fact walk; facts nest in facts on top.
    paths = ["np//w", "//np//w", "//np/w", "*//*", "//*/*", "np/np//w/@k",
             "//np//np/w", "//w"]
    for doc in _both_shapes(NESTED_PHRASES):
        for relaxations in RELAXATIONS.values():
            query = _query("s", paths, relaxations)
            table = assert_same_rows([doc], query)
            assert [row.fact_id for row in table.rows] == [
                (0, node_id) for node_id in doc.region_table().ids("s")
            ]
    # The order is the walk's, not the document's: under the outer <np>
    # "d" is bound before "b".
    table = extract_from_documents(
        [parse(NESTED_PHRASES)], _query("s", ["//np/w"], RELAXATIONS["LND"])
    )
    assert [value.value for value in table.rows[0].axes[0]] == ["a", "d", "b"]
    # ... and a node reached twice keeps the place of its first sighting:
    # the innermost <np> of the last fact is sighted from the outermost
    # (before its sibling's subtree) and again from the middle one.
    table = extract_from_documents(
        [parse(NESTED_PHRASES)],
        _query("s", ["//np//np/w"], RELAXATIONS["LND"]),
    )
    assert [value.value for value in table.rows[-1].axes[0]] == ["j", "k"]


def test_attribute_steps_under_descendant_steps_extract_equal():
    text = (
        "<r><f><a k='1'><b k='2' j='x'/><b k='1'/></a><c j='y'><a k='3'/></c>"
        "</f><f k='own'><b/></f><f><c><c><a k='1' j='x'/></c></c></f></r>"
    )
    paths = ["//@k", "//a/@k", "//a//@k", "a//@k", "//c//a/@j", "*//@j",
             "@k", "//*/@k"]
    for doc in _both_shapes(text):
        for relaxations in RELAXATIONS.values():
            query = _query("f", paths, relaxations)
            assert_same_rows([doc], query)


def test_existence_prefixes_that_fail_for_some_facts_extract_equal():
    # SP binds ``author//name`` only where ``author`` exists; PC-AD binds
    # ``//name`` regardless: the masks differ fact by fact.
    text = (
        "<db>"
        "<p><author><name>n1</name></author></p>"
        "<p><authors><author><name>n2</name></author></authors></p>"
        "<p><author/><editor><name>n3</name></editor></p>"
        "<p><editor><name>n4</name></editor></p>"
        "<p><author><x><name>n5</name></x></author><name>n6</name></p>"
        "<p/>"
        "</db>"
    )
    paths = ["author/name", "authors/author/name", "editor/name", "*/x/name"]
    for doc in _both_shapes(text):
        seen = set()
        for relaxations in RELAXATIONS.values():
            query = _query("p", paths, relaxations)
            table = assert_same_rows([doc], query)
            seen |= {
                value.mask for row in table.rows for value in row.axes[0]
            }
        assert len(seen) > 2  # some states bind, some do not


def test_multi_chunk_and_cdata_text_extract_equal():
    text = (
        "<r><f><v>one<i/>two</v><v><![CDATA[one]]>two</v>"
        "<v> pad<!-- c -->ded </v><v><![CDATA[ <raw> & ]]></v><v/>"
        "<v>&lt;raw&gt; <![CDATA[&]]></v></f>"
        "<f><v>x<?pi?>y<w>z</w></v><v>\n  <w>1</w>\n  2\n</v></f></r>"
    )
    for doc in _both_shapes(text):
        for function in ("COUNT", "SUM"):
            query = _query(
                "f",
                ["v", "//w", "v/*", "//*"],
                RELAXATIONS["PC-AD"],
                AggregateSpec(function, "v/w"),
            )
            table = assert_same_rows([doc], query)
        values = [value.value for value in table.rows[0].axes[0]]
        assert values == ["onetwo", "padded", "<raw> &", ""]


def test_multi_document_warehouses_of_tables_and_trees_extract_equal():
    built = [
        random_publications(30, seed=1),
        figure1_document(),
        generate_treebank(MESSY),  # no fact of this query
        random_publications(30, seed=2),
    ]
    parsed = _round_trip(built)
    mixed = [built[0], parsed[1], parsed[2], built[3]]
    tables = [
        assert_same_rows(docs, query1()) for docs in (built, parsed, mixed)
    ]
    assert tables[0].rows == tables[1].rows == tables[2].rows
    assert {row.fact_id[0] for row in tables[0].rows} == {0, 1, 3}
    # One shared binding across documents, too.
    annotated = [
        value
        for row in tables[1].rows
        for axis in row.axes
        for value in axis
    ]
    assert len({id(value) for value in annotated}) == len(set(annotated))


@pytest.mark.parametrize("shape", ["deep", "wide"])
def test_very_deep_and_very_wide_documents_extract_and_pickle(shape):
    size = 100_000
    if shape == "deep":
        text = (
            "<a>" * size + "<f id='1'><g>v</g><a><g>u</g></a></f>"
            + "</a>" * size
        )
        facts = 1
    else:
        text = (
            "<r>"
            + "".join(f"<f><g>v{n % 7}</g></f>" for n in range(size))
            + "</r>"
        )
        facts = size
    doc = parse(text)
    query = _query("f", ["g", "//g", "a/g"], RELAXATIONS["PC-AD"])
    table = extract_from_documents([doc], query)
    assert len(table.rows) == facts
    assert [value.value for value in table.rows[0].axes[1]] == (
        ["v", "u"] if shape == "deep" else ["v0"]
    )
    assert pickle.loads(pickle.dumps(table)).rows == table.rows
    # The parsed document is flat columns: it pickles at any depth.
    again = pickle.loads(pickle.dumps(doc))
    assert again.region_table().tags == doc.region_table().tags
    assert again.region_table().postings == doc.region_table().postings
    assert extract_from_documents([again], query).rows == table.rows
    assert doc.max_depth() == (size + 2 if shape == "deep" else 2)


# ----------------------------------------------------------------------
# Hypothesis: random trees, random paths
# ----------------------------------------------------------------------
TESTS = st.sampled_from(["a", "b", "item", "x1", "_u", "*"])
STEPS = st.tuples(st.sampled_from(["/", "//"]), TESTS)


@st.composite
def random_paths(draw):
    steps = draw(st.lists(STEPS, min_size=1, max_size=3))
    text = "".join(axis + test for axis, test in steps)
    if draw(st.booleans()):
        text += draw(st.sampled_from(["/@id", "//@k", "/@v"]))
    return text[1:] if text.startswith("/") and text[1] != "/" else text


@given(
    random_element(),
    st.lists(random_paths(), min_size=1, max_size=3),
    st.sampled_from(sorted(RELAXATIONS)),
    st.sampled_from(["a", "b", "item"]),
)
@settings(max_examples=300, deadline=None)
def test_random_trees_and_paths_extract_equal(
    element, paths, relaxations, fact_tag
):
    doc = Document(element.detach())
    query = _query(fact_tag, paths, RELAXATIONS[relaxations])
    assert_same_rows([doc], query)


# ----------------------------------------------------------------------
# (iv) interned values: shared, and equal through pickle
# ----------------------------------------------------------------------
def test_equal_bindings_are_one_object_and_pickle_equal():
    doc = generate_treebank(DENSE)
    query = treebank_query(DENSE)
    table = extract_from_documents([doc], query)
    reference = reference_extract.extract_from_documents([doc], query)
    annotated = [
        value for row in table.rows for axis in row.axes for value in axis
    ]
    assert len(annotated) == DENSE.n_facts * DENSE.n_axes
    # 4 values per axis in the dense domain: that many objects, not one
    # per fact per axis.
    assert len({id(value) for value in annotated}) == len(set(annotated))
    assert len(set(annotated)) <= 4 * DENSE.n_axes

    again = pickle.loads(pickle.dumps(table))
    assert again.rows == table.rows == reference.rows
    assert again.aggregate == table.aggregate
    assert len(pickle.dumps(table)) < len(pickle.dumps(reference))
    # The sharing survives the round trip (pickle memoises by identity).
    assert len(
        {
            id(value)
            for row in again.rows
            for axis in row.axes
            for value in axis
        }
    ) == len(set(annotated))
