"""Schema-based summarizability reasoning (paper Sec. 3.7).

Given a DTD and an axis *path* (the relative path from the fact element to
the grouping value, already rewritten for the lattice point's relaxation
state, as the ``(EdgeAxis, test)`` steps of
:func:`repro.patterns.parse.parse_steps`), decide:

- **disjointness**: can the path ever bind more than one value for a single
  fact?  If not, every cuboid grouping on this axis keeps facts in a single
  group per axis (pairwise-disjoint partition w.r.t. this axis).
- **coverage**: can the path ever bind *no* value for a fact?  If not,
  total coverage holds between a cuboid keeping this axis and its
  LND-parent.

Both answers are conservative: ``UNKNOWN`` is returned when a tag on the
path is undeclared, and the customized algorithms treat ``UNKNOWN`` as
"property may fail".
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence, Tuple

from repro.patterns.pattern import EdgeAxis
from repro.schema.dtd import Cardinality, Dtd

#: One path step: its axis and its test (a tag, ``*`` or ``@name``).
Step = Tuple[EdgeAxis, str]


class PropertyVerdict(Enum):
    """Three-valued verdict of schema reasoning."""

    HOLDS = "holds"
    FAILS = "may-fail"
    UNKNOWN = "unknown"

    @property
    def guaranteed(self) -> bool:
        return self is PropertyVerdict.HOLDS


def path_cardinality(
    dtd: Dtd, fact_tag: str, steps: Sequence[Step]
) -> Optional[Cardinality]:
    """Cardinality of the whole path from a single fact element.

    Returns None when some tag is not declared (schema cannot help).
    Attribute final steps contribute OPTIONAL/ONE from the attribute
    declaration.
    """
    current = fact_tag
    product = Cardinality.ONE
    for axis, test in steps:
        if test.startswith("@"):
            decl = dtd.get(current)
            if decl is None:
                return None
            attr = decl.attributes.get(test[1:])
            if attr is None:
                # Undeclared attribute: may be absent, never repeats.
                contribution = Cardinality.OPTIONAL
            else:
                contribution = (
                    Cardinality.ONE if attr.required else Cardinality.OPTIONAL
                )
            if axis is EdgeAxis.DESCENDANT:
                # @attr reachable anywhere below: conservatively repeatable.
                contribution = Cardinality.STAR
            return _product(product, contribution)
        if test == "*":
            return None
        if axis is EdgeAxis.CHILD:
            decl = dtd.get(current)
            if decl is None:
                return None
            contribution = decl.child_cardinality(test)
            if contribution is None:
                # Declared parent never has this child: the path is dead;
                # it binds nothing, i.e. absent and non-repeating.
                return Cardinality.OPTIONAL
        else:
            contribution = dtd.descendant_step_cardinality(current, test)
            if contribution is None:
                return Cardinality.OPTIONAL
        product = _product(product, contribution)
        current = test
    return product


def axis_disjointness(
    dtd: Dtd, fact_tag: str, steps: Sequence[Step]
) -> PropertyVerdict:
    """Does the schema guarantee <= 1 binding per fact on this path?"""
    card = path_cardinality(dtd, fact_tag, steps)
    if card is None:
        return PropertyVerdict.UNKNOWN
    return PropertyVerdict.HOLDS if not card.may_repeat else PropertyVerdict.FAILS


def axis_coverage(
    dtd: Dtd, fact_tag: str, steps: Sequence[Step]
) -> PropertyVerdict:
    """Does the schema guarantee >= 1 binding per fact on this path?"""
    card = path_cardinality(dtd, fact_tag, steps)
    if card is None:
        return PropertyVerdict.UNKNOWN
    return PropertyVerdict.HOLDS if not card.may_be_absent else PropertyVerdict.FAILS


def _product(outer: Cardinality, inner: Cardinality) -> Cardinality:
    absent = outer.may_be_absent or inner.may_be_absent
    repeat = outer.may_repeat or inner.may_repeat
    if absent and repeat:
        return Cardinality.STAR
    if absent:
        return Cardinality.OPTIONAL
    if repeat:
        return Cardinality.PLUS
    return Cardinality.ONE
