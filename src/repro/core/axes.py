"""Axis specifications: the entries of an ``X^3`` clause.

Query 1 of the paper binds three axes::

    $n in $b/author/name      X^3 ... by $n (LND, SP, PC-AD)
    $p in $b//publisher/@id               $p (LND, PC-AD)
    $y in $b/year                         $y (LND)

An :class:`AxisSpec` is one such entry: a *relative path* from the fact
binding to the grouping value, plus the set of permitted relaxations.  The
structural relaxations (SP, PC-AD) generate the axis's *state poset* (see
:mod:`repro.core.states`); LND generates the DROPPED state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Tuple

from repro.errors import QueryError
from repro.patterns.parse import parse_steps
from repro.patterns.pattern import EdgeAxis
from repro.patterns.relaxation import Relaxation

PathStep = Tuple[EdgeAxis, str]


@dataclass(frozen=True)
class AxisSpec:
    """One grouping axis.

    Attributes:
        name: the variable label, e.g. ``$n``.
        steps: the relative path from the fact, e.g.
            ``((CHILD, 'author'), (CHILD, 'name'))``.
        relaxations: permitted relaxations; LND is always implied (it is
            what produces roll-ups) and included for clarity.
    """

    name: str
    steps: Tuple[PathStep, ...]
    relaxations: FrozenSet[Relaxation] = field(
        default_factory=lambda: frozenset({Relaxation.LND})
    )

    def __post_init__(self) -> None:
        if not self.name.startswith("$"):
            raise QueryError(f"axis name must start with '$': {self.name!r}")
        if not self.steps:
            raise QueryError(f"axis {self.name} has an empty path")
        for position, (_, test) in enumerate(self.steps):
            if test.startswith("@") and position != len(self.steps) - 1:
                raise QueryError(
                    f"axis {self.name}: attribute step must be last"
                )
        if Relaxation.SP in self.relaxations and len(self.steps) < 2:
            raise QueryError(
                f"axis {self.name}: SP needs an intermediate node "
                "(path length >= 2)"
            )
        if Relaxation.LND not in self.relaxations:
            # Normalize: LND is always available (the cube needs roll-ups).
            object.__setattr__(
                self,
                "relaxations",
                frozenset(self.relaxations | {Relaxation.LND}),
            )

    # ------------------------------------------------------------------
    @staticmethod
    def from_path(
        name: str, path: str, relaxations: FrozenSet[Relaxation] = frozenset()
    ) -> "AxisSpec":
        """Build from path text like ``author/name`` or ``//publisher/@id``."""
        steps = tuple(parse_steps(path))
        return AxisSpec(
            name,
            steps,
            frozenset(relaxations | {Relaxation.LND}),
        )

    # ------------------------------------------------------------------
    @property
    def structural(self) -> FrozenSet[Relaxation]:
        """Permitted structural relaxations (everything but LND)."""
        return frozenset(
            r for r in self.relaxations if r is not Relaxation.LND
        )

    @property
    def binding_test(self) -> str:
        """The node test of the binding (last) step."""
        return self.steps[-1][1]

    def path_text(self) -> str:
        parts: List[str] = []
        for position, (axis, test) in enumerate(self.steps):
            if position == 0 and axis is EdgeAxis.CHILD:
                parts.append(test)
            else:
                parts.append(f"{axis.value}{test}")
        return "".join(parts)

    # ------------------------------------------------------------------
    def steps_for_state(
        self, applied: FrozenSet[Relaxation]
    ) -> Tuple[Tuple[PathStep, ...], Tuple[PathStep, ...]]:
        """The (binding path, existence-prefix path) of a structural state.

        - With SP applied, the binding path collapses to a single
          descendant step to the binding test, and the original
          intermediate prefix remains as an existence requirement
          (``publication[./author][.//name]``).
        - With PC-AD applied, every child edge (of whichever paths remain)
          becomes a descendant edge.
        - The rigid state returns the original steps and an empty prefix.
        """
        binding: Tuple[PathStep, ...]
        prefix: Tuple[PathStep, ...]
        if Relaxation.SP in applied:
            binding = ((EdgeAxis.DESCENDANT, self.binding_test),)
            prefix = self.steps[:-1]
        else:
            binding = self.steps
            prefix = ()
        if Relaxation.PC_AD in applied:
            # PC-AD generalizes element edges only; an attribute edge is
            # not a structural relationship between two elements.
            binding = tuple(
                (axis if test.startswith("@") else EdgeAxis.DESCENDANT, test)
                for axis, test in binding
            )
            prefix = tuple(
                (axis if test.startswith("@") else EdgeAxis.DESCENDANT, test)
                for axis, test in prefix
            )
        return binding, prefix

    def __str__(self) -> str:
        names = ", ".join(sorted(r.value for r in self.relaxations))
        return f"{self.name} in $fact/{self.path_text()} ({names})"
