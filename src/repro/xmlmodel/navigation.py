"""Navigation axes and simple path evaluation over the in-memory model.

These helpers implement the XPath-style axes needed by the pattern matcher
and the data generators.  Steps use ``/`` (child) and ``//`` (descendant)
and may address attributes with ``@name``.  This is *not* a full XPath
engine — predicates and functions live in the tree-pattern layer
(:mod:`repro.patterns`), which is the paper's query formalism.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import PatternParseError
from repro.xmlmodel.nodes import Document, Element


class StepAxis(Enum):
    """Axis of one path step."""

    CHILD = "child"
    DESCENDANT = "descendant"

    def __str__(self) -> str:  # pragma: no cover - display
        return "/" if self is StepAxis.CHILD else "//"


@dataclass(frozen=True)
class Step:
    """One step of a simple path: an axis plus a node test.

    ``test`` is an element tag, ``*`` (any element), or ``@name`` for an
    attribute (only valid as the final step).
    """

    axis: StepAxis
    test: str

    @property
    def is_attribute(self) -> bool:
        return self.test.startswith("@")

    @property
    def attribute_name(self) -> str:
        return self.test[1:]

    def __str__(self) -> str:
        return f"{self.axis}{self.test}"


def parse_path(path: str) -> List[Step]:
    """Parse ``a/b//c/@id``-style relative paths into steps.

    A leading ``/`` or ``//`` sets the axis of the first step; a bare name
    defaults to the child axis.
    """
    if not path or path.strip() != path:
        raise PatternParseError(f"bad path: {path!r}")
    steps: List[Step] = []
    index = 0
    axis = StepAxis.CHILD
    text = path
    while index < len(text):
        if text.startswith("//", index):
            axis = StepAxis.DESCENDANT
            index += 2
        elif text.startswith("/", index):
            axis = StepAxis.CHILD
            index += 1
        begin = index
        while index < len(text) and text[index] != "/":
            index += 1
        name = text[begin:index]
        if not name or name == "@":
            raise PatternParseError(f"empty step in path {path!r}")
        if name.startswith("@") and index < len(text):
            raise PatternParseError(
                f"attribute step {name!r} must be last in path {path!r}"
            )
        steps.append(Step(axis, name))
    if not steps:
        raise PatternParseError(f"empty path: {path!r}")
    return steps


def path_to_string(steps: Sequence[Step]) -> str:
    """Render steps back to path text (first child axis is implicit)."""
    parts: List[str] = []
    for position, step in enumerate(steps):
        if position == 0 and step.axis is StepAxis.CHILD:
            parts.append(step.test)
        else:
            parts.append(str(step))
    return "".join(parts)


def axis_nodes(context: Element, step: Step) -> Iterator[Element]:
    """Elements reachable from ``context`` via one (element) step."""
    if step.is_attribute:
        raise PatternParseError("attribute steps do not yield elements")
    if step.axis is StepAxis.CHILD:
        candidates: Iterator[Element] = iter(context.children)
    else:
        candidates = context.iter_descendants()
    if step.test == "*":
        yield from candidates
    else:
        for node in candidates:
            if node.tag == step.test:
                yield node


PathTarget = Union[Element, Tuple[Element, str]]


def evaluate_path(
    context: Element, steps: Sequence[Step]
) -> List[PathTarget]:
    """Evaluate steps from a context element.

    Returns element nodes, or ``(owner_element, value)`` pairs when the
    path ends with an attribute step.  Results are in document order and
    deduplicated (descendant steps can reach a node through several
    intermediate matches).
    """
    frontier: List[Element] = [context]
    seen: Set[int]
    for step in steps[:-1]:
        next_frontier: List[Element] = []
        seen = set()
        for node in frontier:
            for match in axis_nodes(node, step):
                if id(match) not in seen:
                    seen.add(id(match))
                    next_frontier.append(match)
        frontier = next_frontier
    last = steps[-1]
    if last.is_attribute:
        results: List[PathTarget] = []
        seen = set()
        owners: Iterator[Element]
        for node in frontier:
            if last.axis is StepAxis.CHILD:
                owners = iter([node])
            else:
                # Descendant attribute step: attributes of *proper*
                # descendants (PC-AD never applies to attribute edges, so
                # this arises only from paths that were already //@x).
                owners = node.iter_descendants()
            for owner in owners:
                value = owner.attrs.get(last.attribute_name)
                if value is not None and id(owner) not in seen:
                    seen.add(id(owner))
                    results.append((owner, value))
        return results
    out: List[PathTarget] = []
    seen = set()
    for node in frontier:
        for match in axis_nodes(node, last):
            if id(match) not in seen:
                seen.add(id(match))
                out.append(match)
    return out


def evaluate_path_str(context: Element, path: str) -> List[PathTarget]:
    """Convenience: parse then evaluate a path string."""
    return evaluate_path(context, parse_path(path))


def select(doc: Document, path: str) -> List[PathTarget]:
    """Evaluate an absolute path against a document.

    ``/a/b`` starts at the root (the first step must match the root tag
    when using the child axis); ``//a`` searches the whole tree.
    """
    absolute = path.startswith("/") and not path.startswith("//")
    steps = parse_path(path.lstrip("/") if absolute else path)
    if path.startswith("//"):
        # Descendant-or-self from a virtual super-root.
        first = steps[0]
        rest = steps[1:]
        matches: List[Element] = [
            node
            for node in doc.root.iter_subtree()
            if first.test in ("*", node.tag)
        ]
        if not rest:
            return list(matches)
        out: List[PathTarget] = []
        seen: Set[int] = set()
        for node in matches:
            for result in evaluate_path(node, rest):
                key = id(result[0]) if isinstance(result, tuple) else id(result)
                if key not in seen:
                    seen.add(key)
                    out.append(result)
        return out
    first = steps[0]
    if first.test not in ("*", doc.root.tag):
        return []
    if len(steps) == 1:
        return [doc.root]
    return evaluate_path(doc.root, steps[1:])


def common_ancestor(first: Element, second: Element) -> Optional[Element]:
    """Lowest common ancestor of two elements in the same tree."""
    chain = [first] + list(first.iter_ancestors())
    chain_ids = {id(node) for node in chain}
    for candidate in [second] + list(second.iter_ancestors()):
        if id(candidate) in chain_ids:
            return candidate
    return None
