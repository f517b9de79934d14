"""Infer a DTD (cardinalities and attributes) from document instances.

When XML data arrives without a schema, the customized algorithms
(BUCCUST / TDCUST) can still exploit summarizability locally by *learning*
the schema from the warehouse itself.  The inference is sound for the
properties used downstream:

- a child is marked repeatable iff some instance parent has >= 2 such
  children;
- a child is marked optional iff some instance parent lacks it (including
  parents seen before the child type first appeared);
- an attribute is marked required iff every instance carries it.

Inferred cardinalities are the tightest ones consistent with the sample,
so property inference built on them never asserts a summarizability
property that the sampled data itself violates (tested property-based in
``tests/schema/test_inference.py``).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Set

from repro.schema.dtd import AttributeDecl, Cardinality, Dtd, ElementDecl
from repro.xmlmodel.nodes import Document


def infer_dtd(docs: Iterable[Document]) -> Dtd:
    """Infer a :class:`Dtd` from one or more documents.

    Uses per-tag presence counting, so a child type that first appears on
    the N-th instance of its parent (N > 1) is correctly marked optional.
    """
    doc_list = list(docs)
    instance_counts: Counter = Counter()
    child_presence: Dict[str, Counter] = {}
    child_repeat: Dict[str, Set[str]] = {}
    attr_presence: Dict[str, Counter] = {}
    has_text: Set[str] = set()
    root_tag = ""

    for doc in doc_list:
        if not root_tag:
            root_tag = doc.root.tag
        for node in doc.elements:
            tag = node.tag
            instance_counts[tag] += 1
            if tag not in has_text and node.text:
                has_text.add(tag)
            # Leaves dominate a document: touch the per-tag counters
            # (created once per tag) only for nodes that have something
            # to count.
            if node.children:
                presence = child_presence.get(tag)
                if presence is None:
                    presence = child_presence[tag] = Counter()
                seen: Set[str] = set()
                for child in node.children:
                    child_tag = child.tag
                    if child_tag in seen:
                        child_repeat.setdefault(tag, set()).add(child_tag)
                    else:
                        seen.add(child_tag)
                        presence[child_tag] += 1
            if node.attrs:
                attrs = attr_presence.get(tag)
                if attrs is None:
                    attrs = attr_presence[tag] = Counter()
                for attr in node.attrs:
                    attrs[attr] += 1

    dtd = Dtd(root=root_tag or None)
    for tag in sorted(instance_counts):
        decl = ElementDecl(tag, has_text=tag in has_text)
        total = instance_counts[tag]
        for child_tag, present in sorted(
            child_presence.get(tag, Counter()).items()
        ):
            absent = present < total
            repeat = child_tag in child_repeat.get(tag, ())
            if absent and repeat:
                decl.children[child_tag] = Cardinality.STAR
            elif absent:
                decl.children[child_tag] = Cardinality.OPTIONAL
            elif repeat:
                decl.children[child_tag] = Cardinality.PLUS
            else:
                decl.children[child_tag] = Cardinality.ONE
        for attr, present in sorted(
            attr_presence.get(tag, Counter()).items()
        ):
            decl.attributes[attr] = AttributeDecl(
                attr, required=present == total
            )
        dtd.declare(decl)
    if root_tag:
        dtd.root = root_tag
    return dtd
