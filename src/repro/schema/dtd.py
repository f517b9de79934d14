"""A DTD-flavoured schema model.

We keep exactly the information the paper's property inference (Sec. 3.7)
needs: for each element type, which child element types it may contain and
with what cardinality, plus attribute declarations.  Content *order* and
alternation groups are not modelled — they do not affect summarizability.

Cardinality follows the DTD occurrence indicators:

- ``ONE``      (no indicator)  exactly one,
- ``OPTIONAL`` (``?``)         zero or one,
- ``STAR``     (``*``)         zero or more,
- ``PLUS``     (``+``)         one or more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import SchemaError


class Cardinality(Enum):
    """DTD occurrence indicator for a child element type."""

    ONE = ""
    OPTIONAL = "?"
    STAR = "*"
    PLUS = "+"

    @property
    def may_be_absent(self) -> bool:
        """Can a conforming parent lack this child entirely?"""
        return self in (Cardinality.OPTIONAL, Cardinality.STAR)

    @property
    def may_repeat(self) -> bool:
        """Can a conforming parent have more than one such child?"""
        return self in (Cardinality.STAR, Cardinality.PLUS)

    @staticmethod
    def from_indicator(indicator: str) -> "Cardinality":
        for card in Cardinality:
            if card.value == indicator:
                return card
        raise SchemaError(f"unknown occurrence indicator {indicator!r}")

    @staticmethod
    def join(first: "Cardinality", second: "Cardinality") -> "Cardinality":
        """Least upper bound: the loosest constraint covering both."""
        absent = first.may_be_absent or second.may_be_absent
        repeat = first.may_repeat or second.may_repeat
        if absent and repeat:
            return Cardinality.STAR
        if absent:
            return Cardinality.OPTIONAL
        if repeat:
            return Cardinality.PLUS
        return Cardinality.ONE


@dataclass
class AttributeDecl:
    """An attribute declaration (name, required?)."""

    name: str
    required: bool = False


@dataclass
class ElementDecl:
    """Declaration of one element type.

    Attributes:
        tag: element type name.
        children: child tag -> cardinality.
        attributes: attribute name -> declaration.
        has_text: whether #PCDATA is allowed.
    """

    tag: str
    children: Dict[str, Cardinality] = field(default_factory=dict)
    attributes: Dict[str, AttributeDecl] = field(default_factory=dict)
    has_text: bool = False

    def child_cardinality(self, tag: str) -> Optional[Cardinality]:
        return self.children.get(tag)


class Dtd:
    """A set of element declarations with path-level reasoning helpers."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root
        self._decls: Dict[str, ElementDecl] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def declare(self, decl: ElementDecl) -> ElementDecl:
        """Add (or replace) an element declaration."""
        self._decls[decl.tag] = decl
        if self.root is None:
            self.root = decl.tag
        return decl

    def declare_element(
        self,
        tag: str,
        children: Optional[Iterable[Tuple[str, Cardinality]]] = None,
        has_text: bool = False,
        attributes: Optional[Iterable[str]] = None,
    ) -> ElementDecl:
        """Convenience builder used by tests and data generators."""
        decl = ElementDecl(tag, has_text=has_text)
        for child_tag, card in children or ():
            decl.children[child_tag] = card
        for attr in attributes or ():
            decl.attributes[attr] = AttributeDecl(attr)
        return self.declare(decl)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, tag: str) -> Optional[ElementDecl]:
        return self._decls.get(tag)

    def __contains__(self, tag: str) -> bool:
        return tag in self._decls

    @property
    def tags(self) -> List[str]:
        return list(self._decls)

    # ------------------------------------------------------------------
    # path reasoning (used by Sec. 3.7 property inference)
    # ------------------------------------------------------------------
    def reachable_tags(self, from_tag: str, max_hops: int = 64) -> Set[str]:
        """All tags reachable from ``from_tag`` through declared children."""
        out: Set[str] = set()
        frontier = [from_tag]
        hops = 0
        while frontier and hops < max_hops:
            next_frontier: List[str] = []
            for tag in frontier:
                decl = self.get(tag)
                if decl is None:
                    continue
                for child in decl.children:
                    if child not in out:
                        out.add(child)
                        next_frontier.append(child)
            frontier = next_frontier
            hops += 1
        return out

    def descendant_step_cardinality(
        self, from_tag: str, to_tag: str, max_depth: int = 16
    ) -> Optional[Cardinality]:
        """Cardinality of ``from_tag//to_tag`` implied by the declarations.

        Walks every declared downward path from ``from_tag`` to ``to_tag``
        of length <= ``max_depth``; the result joins the per-path products
        and accounts for multiple distinct paths (which make the step
        repeatable).  Returns None when ``to_tag`` is unreachable.
        Recursive schemas that can reach ``to_tag`` through a cycle are
        conservatively reported as ``STAR``.
        """
        paths = self._paths_between(from_tag, to_tag, max_depth)
        if paths is None:
            return Cardinality.STAR  # cycle encountered: be conservative
        if not paths:
            return None
        per_path: List[Cardinality] = []
        for path in paths:
            product = Cardinality.ONE
            for card in path:
                product = _sequence_product(product, card)
            per_path.append(product)
        result = per_path[0]
        for card in per_path[1:]:
            # Two alternative routes both existing means values can repeat;
            # join then upgrade repetition.
            result = Cardinality.join(result, card)
            repeat = (
                Cardinality.STAR
                if result.may_be_absent
                else Cardinality.PLUS
            )
            result = Cardinality.join(result, repeat)
        return result

    def _paths_between(
        self, from_tag: str, to_tag: str, max_depth: int
    ) -> Optional[List[List[Cardinality]]]:
        """Cardinality sequences of every declared path from/to; None on
        cycles that reach ``to_tag``."""
        paths: List[List[Cardinality]] = []
        reaches: Dict[str, bool] = {}  # tag -> can it reach ``to_tag``?

        def walk(
            tag: str, trail: List[Cardinality], visited: Tuple[str, ...]
        ) -> bool:
            """False as soon as a cycle that reaches ``to_tag`` is met:
            the answer is None whatever the rest of the walk finds."""
            if len(trail) > max_depth:
                return True
            decl = self.get(tag)
            if decl is None:
                return True
            for child, card in decl.children.items():
                if child == to_tag:
                    paths.append(trail + [card])
                if child in visited:
                    if child not in reaches:
                        reaches[child] = (
                            child == to_tag
                            or to_tag in self.reachable_tags(child)
                        )
                    if reaches[child]:
                        return False
                    continue
                if not walk(child, trail + [card], visited + (child,)):
                    return False
            return True

        if not walk(from_tag, [], (from_tag,)):
            return None
        return paths

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Dtd root={self.root!r} elements={len(self._decls)}>"


def _sequence_product(outer: Cardinality, inner: Cardinality) -> Cardinality:
    """Cardinality of a two-step path: outer child then inner child."""
    absent = outer.may_be_absent or inner.may_be_absent
    repeat = outer.may_repeat or inner.may_repeat
    if absent and repeat:
        return Cardinality.STAR
    if absent:
        return Cardinality.OPTIONAL
    if repeat:
        return Cardinality.PLUS
    return Cardinality.ONE
