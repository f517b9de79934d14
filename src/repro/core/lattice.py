"""The relaxed-cube lattice (paper Fig. 3).

A :class:`LatticePoint` is a vector of per-axis state indices; the lattice
is the product of the per-axis posets of :mod:`repro.core.states`.  The
*top* (in the paper's orientation: the finest aggregation) is the
all-rigid point; the *bottom* is all-DROPPED, where every fact falls into
one group.  An edge is a single relaxation step on a single axis: adding
one structural relaxation, or applying LND (dropping the axis).

The paper draws the lattice with the rigid pattern first and the most
relaxed pattern last; ``finer``/``coarser`` here follow that reading:
``p`` is *finer* than ``q`` when ``p``'s states are all below ``q``'s.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.core.axes import AxisSpec
from repro.core.states import AxisStates

LatticePoint = Tuple[int, ...]


class CubeLattice:
    """The product lattice over the axes' relaxation states."""

    def __init__(self, axes: Sequence[AxisSpec]) -> None:
        if not axes:
            raise ValueError("a cube needs at least one axis")
        self.axes: Tuple[AxisSpec, ...] = tuple(axes)
        self.axis_states: Tuple[AxisStates, ...] = tuple(
            AxisStates.for_axis(axis) for axis in axes
        )
        self._labels: Dict[LatticePoint, str] = {}

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def axis_count(self) -> int:
        return len(self.axes)

    @property
    def top(self) -> LatticePoint:
        """The finest point: every axis rigid."""
        return tuple(states.rigid_index for states in self.axis_states)

    @property
    def bottom(self) -> LatticePoint:
        """The coarsest point: every axis dropped (one global group)."""
        return tuple(states.dropped_index for states in self.axis_states)

    def size(self) -> int:
        total = 1
        for states in self.axis_states:
            total *= states.state_count
        return total

    def points(self) -> Iterator[LatticePoint]:
        """All lattice points (product enumeration)."""
        ranges = [range(states.state_count) for states in self.axis_states]
        for combo in product(*ranges):
            yield tuple(combo)

    # ------------------------------------------------------------------
    # order and edges
    # ------------------------------------------------------------------
    def leq(self, finer: LatticePoint, coarser: LatticePoint) -> bool:
        """Is ``finer`` less-or-equally relaxed than ``coarser``?"""
        return all(
            states.leq(first, second)
            for states, first, second in zip(self.axis_states, finer, coarser)
        )

    def successors(self, point: LatticePoint) -> List[LatticePoint]:
        """Points one relaxation step *more relaxed* than ``point``."""
        out: List[LatticePoint] = []
        for position, states in enumerate(self.axis_states):
            for next_state in states.successors(point[position]):
                candidate = list(point)
                candidate[position] = next_state
                out.append(tuple(candidate))
        return out

    def predecessors(self, point: LatticePoint) -> List[LatticePoint]:
        """Points one relaxation step *less relaxed* (finer)."""
        out: List[LatticePoint] = []
        for position, states in enumerate(self.axis_states):
            current = point[position]
            for prev in range(states.state_count):
                if prev != current and current in states.successors(prev):
                    candidate = list(point)
                    candidate[position] = prev
                    out.append(tuple(candidate))
        return out

    def lnd_parents(self, point: LatticePoint) -> List[Tuple[int, LatticePoint]]:
        """The finer points obtained by *undoing* one LND: for each dropped
        axis, the variants that keep it (one per structural state).

        Returns (axis position, finer point) pairs.  Used for coverage
        accounting: coverage fails between ``finer`` and ``point`` when
        some fact participates in ``point`` but not in ``finer``.
        """
        out: List[Tuple[int, LatticePoint]] = []
        for position, states in enumerate(self.axis_states):
            if point[position] == states.dropped_index:
                for state in range(len(states.states)):
                    candidate = list(point)
                    candidate[position] = state
                    out.append((position, tuple(candidate)))
        return out

    # ------------------------------------------------------------------
    # traversal orders
    # ------------------------------------------------------------------
    def topo_finer_first(self) -> List[LatticePoint]:
        """All points ordered finest -> coarsest (topological)."""
        return sorted(self.points(), key=self._rank)

    def topo_coarser_first(self) -> List[LatticePoint]:
        return sorted(self.points(), key=self._rank, reverse=True)

    def rank(self, point: LatticePoint) -> int:
        """Total relaxation steps from the top: structural set size per
        axis, DROPPED counting as (max structural size + 1) steps.  Points
        of equal rank form an antichain."""
        steps = 0
        for states, index in zip(self.axis_states, point):
            if index == states.dropped_index:
                steps += len(states.axis.structural) + 1
            else:
                steps += len(states.states[index])
        return steps

    def _rank(self, point: LatticePoint) -> Tuple[int, LatticePoint]:
        return (self.rank(point), point)

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def kept_axes(self, point: LatticePoint) -> List[int]:
        """Positions of axes not dropped at this point."""
        return [
            position
            for position, states in enumerate(self.axis_states)
            if point[position] != states.dropped_index
        ]

    def describe(self, point: LatticePoint) -> str:
        """Human-readable point label, e.g. ``$n:SP+PC-AD, $p:rigid, $y:LND``.

        One string per point, built on first use and shared by every
        later caller (the lattice never changes)."""
        label = self._labels.get(point)
        if label is None:
            label = self._labels.setdefault(
                point,
                ", ".join(
                    f"{states.axis.name}:{states.describe(index)}"
                    for states, index in zip(self.axis_states, point)
                ),
            )
        return label

    def point_by_description(self, text: str) -> LatticePoint:
        """Inverse of :meth:`describe` (used in tests and the CLI)."""
        wanted: Dict[str, str] = {}
        for chunk in text.split(","):
            if not chunk.strip():
                continue
            name, _, state = chunk.strip().partition(":")
            wanted[name] = state
        known = {states.axis.name for states in self.axis_states}
        unknown = set(wanted) - known
        if unknown:
            raise KeyError(
                f"unknown axes {sorted(unknown)}; this lattice has "
                f"{sorted(known)}"
            )
        point: List[int] = []
        for states in self.axis_states:
            label = wanted.get(states.axis.name, "rigid")
            for index in range(states.state_count):
                if states.describe(index) == label:
                    point.append(index)
                    break
            else:
                raise KeyError(
                    f"axis {states.axis.name} has no state {label!r}"
                )
        return tuple(point)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CubeLattice axes={[a.name for a in self.axes]} "
            f"points={self.size()}>"
        )
