"""Fact extraction as ``repro.core.extract`` did it until PR 17, kept
verbatim as the differential oracle of the compiled-plan evaluator that
replaced it (``test_differential_extract.py``): the axis states and the
steps of every state are re-derived per fact per axis, a descendant step
walks the tree, and every binding is a fresh :class:`AnnotatedValue`.

The two must produce equal ``FactTable.rows``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.core.axes import AxisSpec, PathStep
from repro.core.bindings import AnnotatedValue, FactRow, FactTable
from repro.core.query import X3Query
from repro.patterns.pattern import EdgeAxis
from repro.xmlmodel.nodes import Document, Element


def extract_from_documents(
    docs: Iterable[Document], query: X3Query
) -> FactTable:
    lattice = query.lattice()
    rows: List[FactRow] = []
    for doc_index, doc in enumerate(docs):
        for fact in doc.find_all(query.fact_tag):
            axes = tuple(
                _annotate_axis_memory(fact, states.axis, len(states.states))
                for states in lattice.axis_states
            )
            measure = _measure_memory(fact, query)
            rows.append(
                FactRow(
                    fact_id=(doc_index, fact.node_id),
                    measure=measure,
                    axes=axes,
                )
            )
    return FactTable(lattice, rows, aggregate=query.aggregate)


def _annotate_axis_memory(
    fact: Element, axis: AxisSpec, state_count: int
) -> Tuple[AnnotatedValue, ...]:
    masks: Dict[str, int] = {}
    order: List[str] = []
    from repro.core.states import AxisStates

    states = AxisStates.for_axis(axis)
    for index in range(state_count):
        applied = states.structural_state(index)
        binding, prefix = axis.steps_for_state(applied)
        if prefix and not _eval_steps_memory(fact, prefix):
            continue
        for value in _eval_steps_memory(fact, binding):
            if value not in masks:
                masks[value] = 0
                order.append(value)
            masks[value] |= 1 << index
    return tuple(AnnotatedValue(value, masks[value]) for value in order)


def _eval_steps_memory(
    context: Element, steps: Tuple[PathStep, ...]
) -> List[str]:
    """Values bound by a step sequence from an element (deduplicated,
    document order)."""
    frontier: List[Element] = [context]
    for axis, test in steps[:-1]:
        next_frontier: List[Element] = []
        seen = set()
        for node in frontier:
            pool = (
                node.children
                if axis is EdgeAxis.CHILD
                else list(node.iter_descendants())
            )
            for candidate in pool:
                if test in ("*", candidate.tag) and id(candidate) not in seen:
                    seen.add(id(candidate))
                    next_frontier.append(candidate)
        frontier = next_frontier
    last_axis, last_test = steps[-1]
    values: List[str] = []
    seen_values = set()
    if last_test.startswith("@"):
        name = last_test[1:]
        for node in frontier:
            owners = (
                [node]
                if last_axis is EdgeAxis.CHILD
                else list(node.iter_descendants())
            )
            for owner in owners:
                value = owner.attrs.get(name)
                if value is not None and value not in seen_values:
                    seen_values.add(value)
                    values.append(value)
        return values
    for node in frontier:
        pool = (
            node.children
            if last_axis is EdgeAxis.CHILD
            else list(node.iter_descendants())
        )
        for candidate in pool:
            if last_test in ("*", candidate.tag):
                value = candidate.text
                if value not in seen_values:
                    seen_values.add(value)
                    values.append(value)
    return values


def _measure_memory(fact: Element, query: X3Query) -> float:
    if query.aggregate.function.upper() == "COUNT":
        return 1.0
    steps = AxisSpec.from_path("$m", query.aggregate.measure_path).steps
    values = _eval_steps_memory(fact, steps)
    total = 0.0
    for value in values:
        try:
            total += float(value)
        except ValueError:
            continue
    return total

