"""Holistic twig matching via stack-based path joins (PathStack + merge).

TIMBER evaluates tree patterns either edge-by-edge (binary structural
joins, :mod:`repro.timber.structural_join`) or holistically.  This
module implements the PathStack/TwigStack family [Bruno, Koudas &
Srivastava, SIGMOD 2002] in its path-decomposition form:

1. the pattern is decomposed into its root-to-leaf *spines*;
2. each spine is evaluated by **PathStack**: one synchronized pass over
   the spine's posting streams with linked stacks, emitting every
   root-to-leaf path solution in one scan (no intermediate pair lists,
   unlike a cascade of binary joins);
3. the per-spine path solutions are merge-joined on their shared prefix
   nodes into full twig matches.

Scope: element-only patterns (no attribute nodes) without optional
nodes.  Ancestor-descendant edges are handled natively; parent-child
edges are checked during path expansion (the classic post-filter — the
holistic algorithms are only optimal for A-D twigs).  The cube layer
does not depend on this module; it exists because the substrate the
paper ran on had holistic joins, and the tests cross-validate it
against the navigational matcher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.errors import PatternError
from repro.patterns.pattern import EdgeAxis, PatternNode, TreePattern
from repro.timber.database import TimberDB
from repro.timber.tag_index import Posting

PathSolution = Tuple[Posting, ...]
TwigMatch = Tuple[Posting, ...]


@dataclass
class _StackEntry:
    posting: Posting
    parent_top: int  # index of the parent stack's top at push time


def path_stack(
    db: TimberDB,
    spine: List[PatternNode],
) -> List[PathSolution]:
    """All root-to-leaf path solutions of a linear chain of nodes.

    ``spine[0]`` is the pattern root; edges are taken from each node's
    ``axis`` (parent-child edges filtered during expansion).  Postings
    stream from the tag index in document order; each stream is scanned
    exactly once.
    """
    streams = [db.postings(node.test) for node in spine]
    positions = [0] * len(spine)
    stacks: List[List[_StackEntry]] = [[] for _ in spine]
    solutions: List[PathSolution] = []
    depth = len(spine)

    def eof(level: int) -> bool:
        return positions[level] >= len(streams[level])

    def head(level: int) -> Posting:
        return streams[level][positions[level]]

    def clean(level: int, current: Posting) -> None:
        stack = stacks[level]
        while stack and (
            stack[-1].posting.doc_id != current.doc_id
            or stack[-1].posting.end < current.start
        ):
            stack.pop()
            db.cost.charge_cpu()

    def expand(level: int, index: int) -> Iterator[List[Posting]]:
        """Every path ending at stacks[level][index]."""
        entry = stacks[level][index]
        if level == 0:
            yield [entry.posting]
            return
        limit = entry.parent_top
        for parent_index in range(limit + 1):
            parent_entry = stacks[level - 1][parent_index]
            if spine[level].axis is EdgeAxis.CHILD:
                valid = parent_entry.posting.is_parent_of(entry.posting)
            else:
                # Proper containment; the explicit check matters for
                # recursive spines like a//a, where the same posting can
                # sit on two adjacent stacks.
                valid = parent_entry.posting.contains(entry.posting)
            if not valid:
                db.cost.charge_cpu()
                continue
            for prefix in expand(level - 1, parent_index):
                yield prefix + [entry.posting]

    while not all(eof(level) for level in range(depth)):
        # Pick the node whose next posting comes first in document order.
        q = min(
            (level for level in range(depth) if not eof(level)),
            key=lambda level: head(level).sort_key,
        )
        current = head(q)
        db.cost.charge_cpu()
        for level in range(depth):
            clean(level, current)
        if q == 0 or stacks[q - 1]:
            stacks[q].append(
                _StackEntry(
                    current,
                    len(stacks[q - 1]) - 1 if q > 0 else -1,
                )
            )
            if q == depth - 1:
                for path in expand(q, len(stacks[q]) - 1):
                    solutions.append(tuple(path))
                    db.cost.charge_cpu()
                stacks[q].pop()
        positions[q] += 1
    return solutions


class HolisticTwigJoin:
    """Twig matching by spine decomposition + path-solution merge."""

    def __init__(self, db: TimberDB, pattern: TreePattern) -> None:
        self.db = db
        self.pattern = pattern
        self.nodes = pattern.nodes()
        for node in self.nodes:
            if node.is_attribute:
                raise PatternError(
                    "holistic twig join operates on element-only patterns"
                )
            if node.optional:
                raise PatternError(
                    "holistic twig join does not support optional nodes"
                )
        self.index_of = {
            id(node): position for position, node in enumerate(self.nodes)
        }
        self.spines: List[List[int]] = []
        for position, node in enumerate(self.nodes):
            if node.children:
                continue
            spine = [position]
            cursor = node
            while cursor.parent is not None:
                cursor = cursor.parent
                spine.append(self.index_of[id(cursor)])
            self.spines.append(list(reversed(spine)))

    # ------------------------------------------------------------------
    def run(self) -> List[TwigMatch]:
        per_spine: List[List[Dict[int, Posting]]] = []
        for spine in self.spines:
            nodes = [self.nodes[position] for position in spine]
            paths = path_stack(self.db, nodes)
            per_spine.append(
                [dict(zip(spine, path)) for path in paths]
            )

        partial = per_spine[0]
        for candidates in per_spine[1:]:
            merged: List[Dict[int, Posting]] = []
            for assignment in partial:
                for candidate in candidates:
                    if all(
                        node not in assignment
                        or assignment[node] == posting
                        for node, posting in candidate.items()
                    ):
                        union = dict(assignment)
                        union.update(candidate)
                        merged.append(union)
                    self.db.cost.charge_cpu()
            partial = merged

        out: List[TwigMatch] = []
        seen = set()
        for assignment in partial:
            match = tuple(
                assignment[position] for position in range(len(self.nodes))
            )
            key = tuple(
                (posting.doc_id, posting.node_id) for posting in match
            )
            if key not in seen:
                seen.add(key)
                out.append(match)
        return out


def twig_join(db: TimberDB, pattern: TreePattern) -> List[TwigMatch]:
    """Match an element-only pattern holistically.

    Returns one tuple of postings per match, aligned with
    ``pattern.nodes()`` order.  Root-axis filtering mirrors
    :func:`repro.patterns.match.match_db`: a CHILD root axis anchors at
    document roots.
    """
    from repro import obs

    with obs.span(
        "timber.twig_join",
        category="timber",
        cost=db.cost,
        pattern_nodes=len(list(pattern.nodes())),
    ) as span:
        matches = HolisticTwigJoin(db, pattern).run()
        if pattern.root_axis is EdgeAxis.CHILD:
            matches = [match for match in matches if match[0].level == 0]
        span.annotate(matches=len(matches))
    obs.count("x3_join_pairs_total", len(matches), join="twig")
    return matches
