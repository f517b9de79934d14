"""Unit + property tests for DTD inference from instances."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schema.dtd import Cardinality
from repro.schema.inference import infer_dtd
from repro.xmlmodel.nodes import Document, Element
from repro.xmlmodel.parser import parse
from tests.prop.test_hypothesis_xml import random_element


class TestInference:
    def test_regular_children_are_one(self):
        doc = parse("<r><a><x/></a><a><x/></a></r>")
        dtd = infer_dtd([doc])
        assert dtd.get("a").children["x"] is Cardinality.ONE

    def test_missing_child_optional(self):
        doc = parse("<r><a><x/></a><a/></r>")
        dtd = infer_dtd([doc])
        assert dtd.get("a").children["x"] is Cardinality.OPTIONAL

    def test_late_first_appearance_is_optional(self):
        # x first appears on the SECOND <a>: earlier instances lacked it.
        doc = parse("<r><a/><a><x/></a></r>")
        dtd = infer_dtd([doc])
        assert dtd.get("a").children["x"] is Cardinality.OPTIONAL

    def test_repeated_child_plus(self):
        doc = parse("<r><a><x/><x/></a><a><x/></a></r>")
        dtd = infer_dtd([doc])
        assert dtd.get("a").children["x"] is Cardinality.PLUS

    def test_repeated_and_missing_star(self):
        doc = parse("<r><a><x/><x/></a><a/></r>")
        dtd = infer_dtd([doc])
        assert dtd.get("a").children["x"] is Cardinality.STAR

    def test_attribute_required_vs_implied(self):
        doc = parse('<r><a id="1" x="9"/><a id="2"/></r>')
        dtd = infer_dtd([doc])
        decl = dtd.get("a")
        assert decl.attributes["id"].required
        assert not decl.attributes["x"].required

    def test_text_detection(self):
        doc = parse("<r><a>hi</a><b/></r>")
        dtd = infer_dtd([doc])
        assert dtd.get("a").has_text
        assert not dtd.get("b").has_text

    def test_multiple_documents(self):
        one = parse("<r><a><x/></a></r>")
        two = parse("<r><a/></r>")
        dtd = infer_dtd([one, two])
        assert dtd.get("a").children["x"] is Cardinality.OPTIONAL

    def test_root_recorded(self):
        dtd = infer_dtd([parse("<warehouse><f/></warehouse>")])
        assert dtd.root == "warehouse"

    def test_figure1_inference(self):
        from repro.datagen.publications import figure1_document

        dtd = infer_dtd([figure1_document()])
        pub = dtd.get("publication")
        assert pub.children["author"].may_be_absent  # pub3 nests authors
        assert pub.children["publisher"].may_be_absent
        assert pub.children["year"].may_repeat  # pub2 has two years


# ----------------------------------------------------------------------
# property: the inferred DTD never claims a property the data violates
# ----------------------------------------------------------------------

@st.composite
def random_documents(draw):
    n_parents = draw(st.integers(min_value=1, max_value=6))
    root = Element("root")
    for _ in range(n_parents):
        parent = root.make_child("p")
        for tag in ("x", "y"):
            count = draw(st.integers(min_value=0, max_value=3))
            for _ in range(count):
                parent.make_child(tag)
    return Document(root)


@given(random_documents())
@settings(max_examples=60, deadline=None)
def test_inferred_cardinalities_are_sound(doc):
    dtd = infer_dtd([doc])
    decl = dtd.get("p")
    for node in doc.find_all("p"):
        counts = {}
        for child in node.children:
            counts[child.tag] = counts.get(child.tag, 0) + 1
        for tag, card in (decl.children if decl else {}).items():
            observed = counts.get(tag, 0)
            if observed == 0:
                assert card.may_be_absent
            if observed > 1:
                assert card.may_repeat


# ----------------------------------------------------------------------
# differential: inference reads a document's region table tag by tag
# (ISSUE 19); the definition, element by element over the tree, is the
# oracle
# ----------------------------------------------------------------------
def _inferred_by_definition(docs):
    instances = {}
    for doc in docs:
        for node in doc.elements:
            instances.setdefault(node.tag, []).append(node)
    declared = {}
    for tag, nodes in instances.items():
        children = {}
        for child_tag in {c.tag for node in nodes for c in node.children}:
            counts = [len(node.find_children(child_tag)) for node in nodes]
            absent, repeat = min(counts) == 0, max(counts) > 1
            children[child_tag] = (
                Cardinality.STAR if absent and repeat
                else Cardinality.OPTIONAL if absent
                else Cardinality.PLUS if repeat
                else Cardinality.ONE
            )
        attributes = {
            name: all(name in node.attrs for node in nodes)
            for name in {name for node in nodes for name in node.attrs}
        }
        has_text = any(node.text for node in nodes)
        declared[tag] = (has_text, children, attributes)
    return docs[0].elements[0].tag, declared


def _declarations(dtd):
    return dtd.root, {
        tag: (
            dtd.get(tag).has_text,
            dict(dtd.get(tag).children),
            {
                name: decl.required
                for name, decl in dtd.get(tag).attributes.items()
            },
        )
        for tag in dtd.tags
    }


def test_inference_is_the_definition_on_every_datagen_family():
    from repro.xmlmodel.serializer import serialize
    from tests.prop.test_differential_parser import DATAGEN_DOCUMENTS

    built = [build() for _, build in sorted(DATAGEN_DOCUMENTS.items())]
    for docs in [[doc] for doc in built] + [built]:
        parsed = [parse(serialize(doc, pretty=True)) for doc in docs]
        expected = _inferred_by_definition(docs)
        assert _declarations(infer_dtd(docs)) == expected
        # (read off the parser's table, before the oracle builds the tree)
        assert _declarations(infer_dtd(parsed)) == expected
        assert _inferred_by_definition(parsed) == expected


@given(random_element())
@settings(max_examples=150, deadline=None)
def test_inference_is_the_definition_on_random_trees(element):
    doc = Document(element.detach())
    assert _declarations(infer_dtd([doc])) == _inferred_by_definition([doc])
