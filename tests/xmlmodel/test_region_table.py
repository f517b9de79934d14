"""The region table: what the parser writes, what readers read, and who
owns the truth once the ``Element`` tree exists.

Contract (ISSUE 19): a parsed document is its table until the tree is
first touched and the tree afterwards; a hand-built document is its tree
throughout; ``doc.region_table()`` always describes the document as it
stands — content as of now, structure as of the last ``reindex()``.
"""

import gc
import tracemalloc

import pytest

from repro import obs
from repro.core.extract import extract_from_documents
from repro.datagen.publications import QUERY1_TEXT, figure1_document, query1
from repro.datagen.treebank import TreebankConfig, generate_treebank
from repro.xmlmodel import parser
from repro.schema.inference import infer_dtd
from repro.warehouse import XmlWarehouse
from repro.xmlmodel.nodes import Document, RegionTable
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize
from tests.prop import reference_extract

TEXT = (
    '<a x="1">one<b>hi</b>two<c k="v" j="w"><b/></c><![CDATA[<3>]]>'
    "<d> pad </d></a>"
)


def columns(table):
    return {
        "tags": list(table.tags),
        "parents": list(table.parents),
        "sizes": list(table.sizes),
        "regions": list(table.regions()),
        "chunks": [table.chunks(node) for node in range(len(table))],
        "attrs": [dict(held or {}) for held in table.attrs],
        "postings": {tag: list(ids) for tag, ids in table.postings.items()},
    }


class TestColumns:
    def test_one_row_per_element_in_preorder(self):
        table = parse(TEXT).region_table()
        assert columns(table) == {
            "tags": ["a", "b", "c", "b", "d"],
            "parents": [-1, 0, 0, 2, 0],
            "sizes": [4, 0, 1, 0, 0],
            "regions": [(0, 9, 0), (1, 2, 1), (3, 6, 1), (4, 5, 2), (7, 8, 1)],
            "chunks": [["one", "two", "<3>"], ["hi"], [], [], [" pad "]],
            "attrs": [{"x": "1"}, {}, {"k": "v", "j": "w"}, {}, {}],
            "postings": {"a": [0], "b": [1, 3], "c": [2], "d": [4]},
        }
        assert len(table) == 5
        assert [table.size(node) for node in range(5)] == [4, 0, 1, 0, 0]
        assert table.text_of(range(5)) == ["onetwo<3>", "hi", "", "", "pad"]
        assert table.ids("b") == [1, 3] and not table.ids("missing")

    def test_equal_tags_are_one_string(self):
        table = parse("<r><item/><item a='1'/><item>t</item></r>").region_table()
        assert len({id(tag) for tag in table.tags[1:]}) == 1

    def test_equal_text_cells_are_one_string(self):
        table = parse(
            "<r><v>x1</v><v k='1'>x1</v><w>y</w>x1<v>y</v>"
            "<![CDATA[y]]></r>"
        ).region_table()
        cells = table.texts
        assert cells[1] == "x1" and cells[1] is cells[2]
        assert cells[3] == "y" and cells[3] is cells[4]
        assert cells[0] == ["x1", "y"]
        assert cells[0][0] is cells[1] and cells[0][1] is cells[3]

    def test_a_mixed_content_list_is_never_shared(self):
        doc = parse("<r><m>a<b/>c</m><m>a<b/>c</m></r>")
        table = doc.region_table()
        first, second = table.texts[1], table.texts[3]
        assert first == second == ["a", "c"] and first is not second
        one, other = doc.find_all("m")
        one.append_text("d")
        assert other.text_chunks == ["a", "c"]

    def test_the_encoding_is_derived_from_sizes(self):
        doc = parse("<a><b><c/><c>t</c></b><d/><b><c/></b></a>")
        table = doc.region_table()
        assert not hasattr(table, "starts") and not hasattr(table, "levels")
        assert table.sizes == [6, 2, 0, 0, 0, 1, 0]
        regions = [
            (0, 13, 0), (1, 6, 1), (2, 3, 2), (4, 5, 2), (7, 8, 1),
            (9, 12, 1), (10, 11, 2),
        ]
        assert list(table.regions()) == regions

        def encoding():
            return [(node.start, node.end, node.level) for node in doc.elements]

        assert encoding() == regions  # the tree built from the table
        doc.reindex()
        assert encoding() == regions

    def test_text_is_written_and_read_through_the_table(self):
        table = RegionTable()
        table.tags, table.texts = ["a", "b", "c", "d"], [None] * 4
        table.append_text(1, " ")
        table.append_text(2, "x")
        table.append_text(3, " x")
        table.append_text(3, "<y> ")
        table.append_text(3, "z")
        assert [table.chunks(node) for node in range(4)] == [
            [], [" "], ["x"], [" x", "<y> ", "z"]
        ]
        assert table.text_of(range(4)) == ["", "", "x", "x<y> z"]
        assert [table.has_text([node]) for node in range(4)] == [
            False, False, True, True
        ]
        assert table.has_text(range(4)) and not table.has_text([0, 1])
        assert not table.has_text([])

    def test_a_hand_built_tree_has_the_same_table(self):
        parsed = parse(TEXT)
        built = Document(parse(TEXT).root.detach())
        assert columns(built.region_table()) == columns(parsed.region_table())

    def test_the_tree_of_a_table_is_the_tree_reindex_describes(self):
        doc = parse(TEXT)
        before = columns(doc.region_table())
        index = [
            (node.start, node.end, node.level, node.node_id)
            for node in doc.elements
        ]
        doc.reindex()
        assert index == [
            (node.start, node.end, node.level, node.node_id)
            for node in doc.elements
        ]
        assert columns(doc.region_table()) == before


class TestReadersLeaveTheTreeUnbuilt:
    def test_document_queries(self, count_elements):
        doc = parse(TEXT)
        assert doc.element_count() == 5
        assert doc.max_depth() == 2
        assert list(doc.iter_tags()) == ["a", "b", "c", "d"]
        assert doc.find_all("missing") == []
        assert count_elements() == 0
        # A hit returns elements, so it is the tree's first touch.
        assert [node.node_id for node in doc.find_all("b")] == [1, 3]
        assert count_elements() == 5

    def test_one_column_reads_of_a_tree_derive_no_table(self, monkeypatch):
        """``region_table()`` of a tree-backed document is O(document);
        the reads that need one fact about it must not pay that."""
        built, touched = figure1_document(), parse(TEXT)
        assert touched.root.tag == "a"
        monkeypatch.setattr(
            RegionTable, "from_elements", lambda elements: pytest.fail("derived")
        )
        assert touched.max_depth() == 2 and touched.element_count() == 5
        assert list(touched.iter_tags()) == ["a", "b", "c", "d"]
        assert (touched.tag_count("b"), touched.tag_count("missing")) == (2, 0)
        assert built.tag_count("publication") == len(
            built.find_all("publication")
        ) == 4
        assert list(built.iter_tags())[:2] == ["database", "publication"]
        assert built.max_depth() == max(node.level for node in built.elements)
        warehouse = XmlWarehouse()
        warehouse.add(built)
        assert warehouse.fact_count("publication") == 4

    def test_tag_counts(self, count_elements):
        doc = parse(TEXT)
        counts = {tag: doc.tag_count(tag) for tag in doc.iter_tags()}
        assert counts == {"a": 1, "b": 2, "c": 1, "d": 1}
        assert doc.tag_count("missing") == 0
        assert count_elements() == 0

    def test_the_warehouse(self, count_elements):
        warehouse = XmlWarehouse()
        text = serialize(figure1_document())
        start = count_elements()  # figure1_document() builds a tree
        warehouse.add(text)
        warehouse.add(text)
        assert warehouse.fact_count("publication") == 8
        assert warehouse.fact_count("missing") == 0
        session = warehouse.query(QUERY1_TEXT)
        assert len(session.table) == 8
        assert warehouse.dtd.root == "database"
        assert count_elements() == start

    def test_the_parse_span_counts_the_elements(self):
        with obs.trace() as session:
            parse(TEXT, name="t")
        (record,) = [r for r in session.records() if r.name == "xml.parse"]
        assert record.attrs == {"doc": "t", "chars": len(TEXT), "elements": 5}


class TestElementIdentity:
    def test_repeated_reads_return_the_same_elements(self):
        doc = parse(TEXT)
        first = list(doc.elements)
        assert doc.root is first[0] is doc.elements[0] is doc.by_id(0)
        assert all(a is b for a, b in zip(first, doc.elements))
        assert first[3].parent is first[2] and first[2].parent is first[0]
        assert first[0].children == [first[1], first[2], first[4]]
        assert doc.find_all("b") == [first[1], first[3]]
        assert doc.find_all("b")[1] is first[3]
        assert first[0].parent is None

    def test_a_table_read_does_not_replace_the_tree(self):
        doc = parse(TEXT)
        root = doc.root
        assert columns(doc.region_table())["tags"] == ["a", "b", "c", "b", "d"]
        infer_dtd([doc])
        extract_from_documents([doc], query1())
        assert doc.root is root


# ----------------------------------------------------------------------
# single source of truth
# ----------------------------------------------------------------------
def _mutate_content(doc):
    """Change text and attributes (no structure) through the tree."""
    publication = doc.find_all("publication")[0]
    publication.attrs["id"] = "rewritten"
    for year in doc.find_all("year"):
        year.text_chunks = ["19", "99"]
    name = doc.find_all("name")[0]
    name.text_chunks[:] = []
    name.append_text("Someone Else")
    doc.find_all("publisher")[0].attrs.clear()


def _agrees_with_the_tree(doc):
    new = extract_from_documents([doc], query1())
    old = reference_extract.extract_from_documents([doc], query1())
    assert new.rows == old.rows
    return new


@pytest.mark.parametrize(
    "make",
    [
        figure1_document,
        lambda: parse(serialize(figure1_document())),
    ],
    ids=["hand-built", "parsed"],
)
class TestSingleSourceOfTruth:
    def test_content_mutations_are_seen_at_once(self, make):
        doc = make()
        before = _agrees_with_the_tree(doc)
        _mutate_content(doc)
        after = _agrees_with_the_tree(doc)
        assert after.rows != before.rows
        years = {
            value.value
            for row in after.rows
            for value in row.axes[2]
        }
        assert years == {"1999"}
        # The table says what the tree says, cell by cell.
        table = doc.region_table()
        for node in doc.elements:
            assert table.tags[node.node_id] == node.tag
            assert table.chunks(node.node_id) == node.text_chunks
            assert (table.attrs[node.node_id] or {}) == node.attrs
        assert "rewritten" in {
            attrs["id"] for attrs in table.attrs if attrs and "id" in attrs
        }

    def test_inference_reads_the_tree_as_it_stands(self, make):
        doc = make()
        assert infer_dtd([doc]).get("year").has_text
        for year in doc.find_all("year"):
            year.text_chunks = []
            year.attrs["was"] = "text"
        dtd = infer_dtd([doc])
        assert not dtd.get("year").has_text
        assert "was" in dtd.get("year").attributes

    def test_structure_is_as_of_the_last_reindex(self, make):
        doc = make()
        tags_before = list(doc.region_table().tags)
        publication = doc.find_all("publication")[0]
        extra = publication.make_child("year", text="2042")
        # Exactly as documented: a new child is not in the index (nor,
        # therefore, in the table) until reindex().
        assert extra.node_id == -1
        assert list(doc.region_table().tags) == tags_before
        doc.reindex()
        assert len(doc.region_table()) == len(tags_before) + 1
        assert doc.region_table().tags[extra.node_id] == "year"
        assert doc.region_table().parents[extra.node_id] == publication.node_id
        table = _agrees_with_the_tree(doc)
        assert "2042" in {v.value for v in table.rows[0].axes[2]}
        publication.children.remove(extra)
        extra.parent = None
        doc.reindex()
        assert list(doc.region_table().tags) == tags_before
        _agrees_with_the_tree(doc)


# ----------------------------------------------------------------------
# what a parsed document costs
# ----------------------------------------------------------------------
class TestParsedDocumentSize:
    def test_a_fact_tag_with_attributes_stays_on_the_hot_path(
        self, monkeypatch
    ):
        """A start tag is read by the compiled pattern only the first
        time its name is seen: ``<s id="N">`` after that is a hot shape."""
        calls = []
        pattern = parser._START_TAG

        class Counting:
            def match(self, text, pos):
                calls.append(pos)
                return pattern.match(text, pos)

        monkeypatch.setattr(parser, "_START_TAG", Counting())
        text = "<r>" + "".join(
            f'<s id="{n}" k=\'v\'><w>x</w></s>' for n in range(5)
        ) + "</r>"
        table = parse(text).region_table()
        assert len(calls) == 3  # <r>, the first <s>, the first <w>
        assert [table.attrs[node] for node in table.ids("s")] == [
            {"id": str(n), "k": "v"} for n in range(5)
        ]

    def test_bytes_per_element(self):
        """A parsed ``cluster_scatter``-shaped document (dense treebank,
        6 axes, 4 000 facts) holds its content and no position counter:
        at most 150 bytes per element (it was 227 with stored
        ``start``/``end``/``level`` columns and unshared text)."""
        text = serialize(
            generate_treebank(
                TreebankConfig(
                    n_facts=4000,
                    n_axes=6,
                    density="dense",
                    coverage=True,
                    disjoint=True,
                    seed=17,
                )
            )
        )
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            doc = parse(text)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held / doc.element_count() <= 150
