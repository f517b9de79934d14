"""Property-based tests for the XML substrate (parser round-trips,
region-encoding invariants)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlmodel.nodes import Document, Element, validate_regions
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize

TAGS = st.sampled_from(["a", "b", "item", "x1", "ns:t", "_u"])
TEXTS = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x2FF
    ),
    max_size=8,
)
ATTR_VALUES = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    max_size=8,
)


@st.composite
def random_element(draw, depth=0):
    element = Element(draw(TAGS))
    for name in draw(
        st.lists(st.sampled_from(["id", "k", "v"]), unique=True, max_size=2)
    ):
        element.attrs[name] = draw(ATTR_VALUES)
    text = draw(TEXTS)
    if text.strip():
        element.append_text(text)
    if depth < 3:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            element.append(draw(random_element(depth=depth + 1)))
    return element


def shape(element):
    return (
        element.tag,
        tuple(sorted(element.attrs.items())),
        element.text,
        tuple(shape(child) for child in element.children),
    )


@given(random_element())
@settings(max_examples=80, deadline=None)
def test_serialize_parse_round_trip(element):
    doc = Document(element.detach())
    again = parse(serialize(doc))
    assert shape(doc.root) == shape(again.root)


@given(random_element())
@settings(max_examples=80, deadline=None)
def test_region_encoding_invariants(element):
    doc = Document(element.detach())
    validate_regions(doc)
    # start values strictly increase in document order.
    starts = [node.start for node in doc.elements]
    assert starts == sorted(starts)
    assert len(set(starts)) == len(starts)


@given(random_element())
@settings(max_examples=60, deadline=None)
def test_ancestor_test_matches_tree_walk(element):
    doc = Document(element.detach())
    nodes = doc.elements
    for anc in nodes[:8]:
        for desc in nodes[:8]:
            region_says = (
                anc.start < desc.start and desc.end <= anc.end
            )
            walk_says = any(node is anc for node in desc.iter_ancestors())
            assert region_says == walk_says


@given(random_element())
@settings(max_examples=60, deadline=None)
def test_pretty_serialization_reparses(element):
    doc = Document(element.detach())
    again = parse(serialize(doc, pretty=True))
    # Pretty output normalizes whitespace but preserves structure and
    # attribute content.
    def skeleton(node):
        return (
            node.tag,
            tuple(sorted(node.attrs.items())),
            tuple(skeleton(child) for child in node.children),
        )

    assert skeleton(doc.root) == skeleton(again.root)
