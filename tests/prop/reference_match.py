"""Witness-tree matching and TAX-style grouping (paper Sec. 2.1), kept
as an independent statement of the grouping the cube computes.

The library extracts a fact table by evaluating compiled paths over the
region table (``repro.core.extract``) and never enumerates witness
trees.  This module does it the way Sec. 2.1 describes, by walking
:class:`Element` trees:

- a non-optional pattern node must bind to exactly one element (attribute
  nodes bind to an attribute *value*); witnesses enumerate every
  combination of bindings (the second publication of Fig. 1, with two
  ``year`` children, yields two witnesses);
- an *optional* node (LND applied, Fig. 2's ``*`` edges) binds ``None``
  when nothing matches — a left outer join — and every node beneath an
  unmatched optional node is ``None`` too.

"We will specify grouping in XML by means of a tree pattern and a
grouping list.  The tree pattern is used to create a set of witness
trees.  An equality check is performed on corresponding nodes belonging
to the grouping list in each witness tree, and all witness trees where
these values match are placed into one group."  :func:`group_witnesses`
implements exactly that, and :func:`group_count` adds the paper's example
semantics on top: the count of *distinct base items* (witness roots) per
group.  ``tests/integration/test_witness_oracle.py`` checks NAIVE's cube
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import PatternError
from repro.patterns.pattern import EdgeAxis, PatternNode, TreePattern
from repro.xmlmodel.nodes import Document, Element

Binding = Union[Element, str, None]
GroupingKey = Tuple[Optional[str], ...]


@dataclass(frozen=True)
class Witness:
    """One witness tree: bindings aligned with ``pattern.nodes()`` order.

    ``by_label`` gives the labelled sub-bindings queries care about.
    """

    bindings: Tuple[Binding, ...]
    labels: Tuple[str, ...]

    def by_label(self, label: str) -> Binding:
        try:
            return self.bindings[self.labels.index(label)]
        except ValueError:
            raise KeyError(label) from None

    def value_of(self, label: str) -> Optional[str]:
        """Grouping value of a labelled binding (text / attr / None)."""
        return binding_value(self.by_label(label))

    @property
    def root_binding(self) -> Binding:
        return self.bindings[0]


def binding_value(binding: Binding) -> Optional[str]:
    """Grouping value of a binding: attribute string, element text, None."""
    if isinstance(binding, Element):
        return binding.text
    return binding


# ----------------------------------------------------------------------
# matching
# ----------------------------------------------------------------------

def match_document(doc: Document, pattern: TreePattern) -> List[Witness]:
    """All witnesses of ``pattern`` in one document."""
    nodes = pattern.nodes()
    labels = tuple(node.label for node in nodes)
    order = {id(node): position for position, node in enumerate(nodes)}
    out: List[Witness] = []

    if pattern.root_axis is EdgeAxis.DESCENDANT:
        candidates = [
            node
            for node in doc.root.iter_subtree()
            if pattern.root.test in ("*", node.tag)
        ]
    else:
        candidates = (
            [doc.root] if pattern.root.test in ("*", doc.root.tag) else []
        )
    if pattern.root.value_test is not None:
        candidates = [
            node
            for node in candidates
            if node.text == pattern.root.value_test
        ]

    for candidate in candidates:
        for partial in _bind_subtree(pattern.root, candidate):
            bindings: List[Binding] = [None] * len(nodes)
            for pattern_node, binding in partial.items():
                bindings[order[pattern_node]] = binding
            out.append(Witness(tuple(bindings), labels))
    return out


def _element_candidates(context: Element, node: PatternNode) -> List[Element]:
    if node.axis is EdgeAxis.CHILD:
        pool: Sequence[Element] = context.children
    else:
        pool = list(context.iter_descendants())
    out = [element for element in pool if node.test in ("*", element.tag)]
    if node.value_test is not None:
        out = [element for element in out if element.text == node.value_test]
    return out


def _attribute_candidates(context: Element, node: PatternNode) -> List[str]:
    name = node.attribute_name
    if node.axis is EdgeAxis.CHILD:
        value = context.attrs.get(name)
        out = [value] if value is not None else []
    else:
        out = []
        for descendant in context.iter_descendants():
            value = descendant.attrs.get(name)
            if value is not None:
                out.append(value)
    if node.value_test is not None:
        out = [value for value in out if value == node.value_test]
    return out


def _bind_subtree(
    node: PatternNode, element: Element
) -> Iterator[Dict[int, Binding]]:
    """Enumerate bindings of the subtree rooted at ``node`` given that
    ``node`` itself is bound to ``element``.  Keys are ``id(pattern_node)``."""
    base: Dict[int, Binding] = {id(node): element}
    yield from _extend_with_children(node, element, base, 0)


def _extend_with_children(
    node: PatternNode,
    element: Element,
    acc: Dict[int, Binding],
    child_index: int,
) -> Iterator[Dict[int, Binding]]:
    if child_index >= len(node.children):
        yield dict(acc)
        return
    child = node.children[child_index]
    matched_any = False
    if child.is_attribute:
        for value in _attribute_candidates(element, child):
            matched_any = True
            acc[id(child)] = value
            yield from _extend_with_children(node, element, acc, child_index + 1)
            del acc[id(child)]
    else:
        for candidate in _element_candidates(element, child):
            for sub in _bind_subtree(child, candidate):
                matched_any = True
                acc.update(sub)
                yield from _extend_with_children(
                    node, element, acc, child_index + 1
                )
                for key in sub:
                    del acc[key]
    if not matched_any:
        if not child.optional:
            return
        # Left outer join: the whole child subtree binds None.
        nulls = {id(desc): None for desc in child.iter_subtree()}
        acc.update(nulls)
        yield from _extend_with_children(node, element, acc, child_index + 1)
        for key in nulls:
            del acc[key]


# ----------------------------------------------------------------------
# grouping
# ----------------------------------------------------------------------

def group_witnesses(
    witnesses: Sequence[Witness],
    grouping_list: Sequence[str],
) -> Dict[GroupingKey, List[Witness]]:
    """Group witness trees by the values of the grouping-list labels.

    Witnesses whose labelled bindings are unmatched (``None``) group
    under ``None`` components — callers can drop or keep those groups
    (the paper's fourth publication simply "is not included in any of
    the groups" when the pattern did not match it at all, which is
    handled upstream by matching).
    """
    if not grouping_list:
        raise PatternError("the grouping list must name at least one label")
    groups: Dict[GroupingKey, List[Witness]] = {}
    for witness in witnesses:
        key = tuple(witness.value_of(label) for label in grouping_list)
        groups.setdefault(key, []).append(witness)
    return groups


def group_count(
    witnesses: Sequence[Witness],
    grouping_list: Sequence[str],
    distinct_roots: bool = True,
) -> Dict[GroupingKey, int]:
    """Per-group counts; by default distinct base items (witness roots).

    This reproduces Sec. 2.1's walk-through: the pattern
    ``//publication/year=$y`` yields four witnesses over Figure 1 (the
    second publication twice), and grouping by ``$y`` gives 2003 -> 2,
    2004 -> 1, 2005 -> 1.
    """
    out: Dict[GroupingKey, int] = {}
    for key, members in group_witnesses(witnesses, grouping_list).items():
        if distinct_roots:
            out[key] = len({id(w.root_binding) for w in members})
        else:
            out[key] = len(members)
    return out


def grouping_basis(pattern: TreePattern) -> List[str]:
    """The default grouping list: every labelled non-root node."""
    return [
        label
        for label, node in pattern.labelled().items()
        if node.parent is not None
    ]
