"""Summarizability property oracles.

Sec. 3.6/3.7: whether an optimized (or locally customized) algorithm is
*allowed* to take a shortcut at a lattice point depends on whether
disjointness / total coverage are guaranteed there.  Three oracle
constructions, all exposing the same interface:

- :meth:`PropertyOracle.from_flags` — the experiment *declares* the
  regime globally (how the paper configures its Treebank settings);
- :meth:`PropertyOracle.from_schema` — inferred per axis state from a
  DTD (Sec. 3.7; what BUCCUST/TDCUST use on DBLP);
- :meth:`PropertyOracle.from_data` — ground truth measured on the fact
  table (used by tests to check the schema oracle is conservative).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.core.bindings import FactTable
from repro.core.lattice import CubeLattice, LatticePoint
from repro.schema.dtd import Dtd
from repro.schema.properties import axis_coverage, path_cardinality


class PropertyOracle:
    """Per-(axis, structural state) property verdicts, combined per point.

    ``axis_disjoint[(position, state)]`` is True when the axis is
    guaranteed to bind at most one value under that structural state;
    ``axis_covered`` likewise for at least one value.
    """

    def __init__(
        self,
        lattice: CubeLattice,
        axis_disjoint: Dict[Tuple[int, int], bool],
        axis_covered: Dict[Tuple[int, int], bool],
    ) -> None:
        self.lattice = lattice
        self._axis_disjoint = axis_disjoint
        self._axis_covered = axis_covered

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_flags(
        lattice: CubeLattice, disjointness: bool, coverage: bool
    ) -> "PropertyOracle":
        """Globally declared regime (the controlled Treebank settings)."""
        disjoint: Dict[Tuple[int, int], bool] = {}
        covered: Dict[Tuple[int, int], bool] = {}
        for position, states in enumerate(lattice.axis_states):
            for state in range(len(states.states)):
                disjoint[(position, state)] = disjointness
                covered[(position, state)] = coverage
        return PropertyOracle(lattice, disjoint, covered)

    @staticmethod
    def from_schema(
        lattice: CubeLattice, dtd: Dtd, fact_tag: str
    ) -> "PropertyOracle":
        """Sec. 3.7: infer per-axis-state verdicts from the DTD.

        A state's binding path decides both properties; for SP states the
        existence prefix must also always match for coverage to hold.
        ``UNKNOWN`` verdicts count as "may fail" (conservative).
        """
        disjoint: Dict[Tuple[int, int], bool] = {}
        covered: Dict[Tuple[int, int], bool] = {}
        for position, states in enumerate(lattice.axis_states):
            axis = states.axis
            for state in range(len(states.states)):
                applied = states.structural_state(state)
                binding, prefix = axis.steps_for_state(applied)
                # One walk of the DTD answers both questions.
                card = path_cardinality(dtd, fact_tag, binding)
                disjoint[(position, state)] = (
                    card is not None and not card.may_repeat
                )
                holds = card is not None and not card.may_be_absent
                if prefix and holds:
                    holds = axis_coverage(dtd, fact_tag, prefix).guaranteed
                covered[(position, state)] = holds
        return PropertyOracle(lattice, disjoint, covered)

    @staticmethod
    def from_data(table: FactTable) -> "PropertyOracle":
        """Ground truth measured on the extracted fact table (read off
        its columnar encoding's state views)."""
        encoded = table.columnar()
        disjoint: Dict[Tuple[int, int], bool] = {}
        covered: Dict[Tuple[int, int], bool] = {}
        for position, states in enumerate(table.lattice.axis_states):
            for state in range(len(states.states)):
                stats = encoded.statistics(position, state)
                disjoint[(position, state)] = stats.disjoint
                covered[(position, state)] = stats.covered
        return PropertyOracle(table.lattice, disjoint, covered)

    # ------------------------------------------------------------------
    # point-level queries
    # ------------------------------------------------------------------
    def axis_disjoint(self, position: int, state: int) -> bool:
        return self._axis_disjoint.get((position, state), False)

    def axis_covered(self, position: int, state: int) -> bool:
        return self._axis_covered.get((position, state), False)

    def disjoint(self, point: LatticePoint) -> bool:
        """Is the cuboid at ``point`` guaranteed pairwise disjoint?"""
        for position, states in enumerate(self.lattice.axis_states):
            state = point[position]
            if states.is_dropped(state):
                continue
            if not self.axis_disjoint(position, state):
                return False
        return True

    def covered(self, point: LatticePoint) -> bool:
        """Is every fact guaranteed to participate at ``point`` (so any
        roll-up dropping further axes from it has total coverage)?"""
        for position, states in enumerate(self.lattice.axis_states):
            state = point[position]
            if states.is_dropped(state):
                continue
            if not self.axis_covered(position, state):
                return False
        return True

    def globally_disjoint(self) -> bool:
        """Is every cuboid disjoint?  Each (axis, structural state) is
        kept at some point, so this asks every axis verdict once."""
        return all(self._every_state(self.axis_disjoint))

    def globally_covered(self) -> bool:
        return all(self._every_state(self.axis_covered))

    def _every_state(
        self, verdict: Callable[[int, int], bool]
    ) -> Iterator[bool]:
        for position, states in enumerate(self.lattice.axis_states):
            for state in range(len(states.states)):
                yield verdict(position, state)


def oracle_from(
    lattice: CubeLattice,
    disjointness: Optional[bool] = None,
    coverage: Optional[bool] = None,
    dtd: Optional[Dtd] = None,
    fact_tag: str = "",
    table: Optional[FactTable] = None,
) -> PropertyOracle:
    """Convenience dispatcher: flags > schema > data > pessimistic."""
    if disjointness is not None and coverage is not None:
        return PropertyOracle.from_flags(lattice, disjointness, coverage)
    if dtd is not None and fact_tag:
        return PropertyOracle.from_schema(lattice, dtd, fact_tag)
    if table is not None:
        return PropertyOracle.from_data(table)
    return PropertyOracle.from_flags(lattice, False, False)
