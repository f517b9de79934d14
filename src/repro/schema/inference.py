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

from collections import Counter, defaultdict
from typing import Dict, Iterable, Set

from repro.schema.dtd import AttributeDecl, Cardinality, Dtd, ElementDecl
from repro.xmlmodel.nodes import Document


def infer_dtd(docs: Iterable[Document]) -> Dtd:
    """Infer a :class:`Dtd` from one or more documents.

    Uses per-tag presence counting, so a child type that first appears on
    the N-th instance of its parent (N > 1) is correctly marked optional.
    """
    instance_counts: Counter = Counter()
    child_presence: Dict[str, Counter] = defaultdict(Counter)
    child_repeat: Dict[str, Set[str]] = defaultdict(set)
    attr_presence: Dict[str, Counter] = defaultdict(Counter)
    has_text: Set[str] = set()
    root_tag = ""

    # One pass per tag over its posting list (the rows carrying it), not
    # one visit per element: what is counted is counted per tag anyway.
    for doc in docs:
        table = doc.region_table()
        tags, parents, attrs = table.tags, table.parents, table.attrs
        if not root_tag:
            root_tag = tags[0]
        for tag, node_ids in table.postings.items():
            instance_counts[tag] += len(node_ids)
            if tag not in has_text and table.has_text(node_ids):
                has_text.add(tag)
            # The parents of this tag's elements: each distinct one has
            # the child; one that is listed twice has it repeated.
            above = [parents[node_id] for node_id in node_ids]
            distinct = set(above)
            if len(distinct) < len(above):
                seen: Set[int] = set()
                for parent in above:
                    if parent in seen:
                        child_repeat[tags[parent]].add(tag)
                    seen.add(parent)
            distinct.discard(-1)  # the root has no parent
            for parent_tag, present in Counter(
                map(tags.__getitem__, distinct)
            ).items():
                child_presence[parent_tag][tag] += present
            attr_presence[tag].update(
                name
                for held in map(attrs.__getitem__, node_ids)
                if held
                for name in held
            )

    dtd = Dtd(root=root_tag or None)
    for tag in sorted(instance_counts):
        decl = ElementDecl(tag, has_text=tag in has_text)
        total = instance_counts[tag]
        for child_tag, present in sorted(child_presence[tag].items()):
            absent = present < total
            repeat = child_tag in child_repeat[tag]
            if absent and repeat:
                decl.children[child_tag] = Cardinality.STAR
            elif absent:
                decl.children[child_tag] = Cardinality.OPTIONAL
            elif repeat:
                decl.children[child_tag] = Cardinality.PLUS
            else:
                decl.children[child_tag] = Cardinality.ONE
        for attr, present in sorted(attr_presence[tag].items()):
            decl.attributes[attr] = AttributeDecl(
                attr, required=present == total
            )
        dtd.declare(decl)
    if root_tag:
        dtd.root = root_tag
    return dtd
