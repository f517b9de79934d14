"""Aggregate functions: distributive and algebraic, with partial states.

The cube algorithms only interact with aggregates through this protocol:

- :meth:`AggregateFunction.new` — an empty partial state;
- :meth:`AggregateFunction.add` — fold one fact's measure in;
- :meth:`AggregateFunction.merge` — combine two partials (what makes a
  function distributive/algebraic, and what roll-up uses);
- :meth:`AggregateFunction.finalize` — partial -> reported value.

COUNT counts *facts*; SUM/MIN/MAX/AVG fold a numeric measure extracted
from the fact (see :class:`AggregateSpec`).  The paper evaluates COUNT and
notes other distributive/algebraic operators behave similarly — all of
them are provided so the claim is testable here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import QueryError


class AggregateFunction:
    """Base protocol for aggregate functions over fact measures."""

    name = "?"

    def new(self) -> Any:
        raise NotImplementedError

    def add(self, state: Any, measure: float) -> Any:
        raise NotImplementedError

    def merge(self, left: Any, right: Any) -> Any:
        raise NotImplementedError

    def finalize(self, state: Any) -> float:
        raise NotImplementedError


#: ``COUNT_VALUES[n] == float(n)``, built once.  A cube holds ~10^5
#: cells whose COUNT values are nearly all small whole numbers; every
#: cell with the same count below the table's end holds the same float
#: object instead of a 24-byte float of its own (a count past the end
#: gets a fresh ``float``).  Values, equality and JSON are unchanged.
COUNT_VALUES: Tuple[float, ...] = tuple(map(float, range(1024)))
_COUNT_TABLE_SIZE = len(COUNT_VALUES)


class CountAggregate(AggregateFunction):
    """COUNT(fact): measures are ignored; every fact contributes 1."""

    name = "COUNT"

    def new(self) -> int:
        return 0

    def add(self, state: int, measure: float) -> int:
        return state + 1

    def merge(self, left: int, right: int) -> int:
        return left + right

    def finalize(self, state: float) -> float:
        """The count as a float: the shared object of
        :data:`COUNT_VALUES` when the count is in the table.  ``state``
        is an int partial, or a finalized cell's integral float (the
        roll-up and the write patches finalize those)."""
        if 0 <= state < _COUNT_TABLE_SIZE:
            return COUNT_VALUES[int(state)]
        return float(state)


class SumAggregate(AggregateFunction):
    name = "SUM"

    def new(self) -> float:
        return 0.0

    def add(self, state: float, measure: float) -> float:
        return state + measure

    def merge(self, left: float, right: float) -> float:
        return left + right

    def finalize(self, state: float) -> float:
        return state


class MinAggregate(AggregateFunction):
    name = "MIN"

    def new(self) -> Optional[float]:
        return None

    def add(self, state: Optional[float], measure: float) -> float:
        return measure if state is None else min(state, measure)

    def merge(
        self, left: Optional[float], right: Optional[float]
    ) -> Optional[float]:
        if left is None:
            return right
        if right is None:
            return left
        return min(left, right)

    def finalize(self, state: Optional[float]) -> float:
        if state is None:
            raise QueryError("MIN of an empty group")
        return state


class MaxAggregate(AggregateFunction):
    name = "MAX"

    def new(self) -> Optional[float]:
        return None

    def add(self, state: Optional[float], measure: float) -> float:
        return measure if state is None else max(state, measure)

    def merge(
        self, left: Optional[float], right: Optional[float]
    ) -> Optional[float]:
        if left is None:
            return right
        if right is None:
            return left
        return max(left, right)

    def finalize(self, state: Optional[float]) -> float:
        if state is None:
            raise QueryError("MAX of an empty group")
        return state


class AvgAggregate(AggregateFunction):
    """AVG: the canonical *algebraic* function — partial is (sum, count)."""

    name = "AVG"

    def new(self) -> Tuple[float, int]:
        return (0.0, 0)

    def add(self, state: Tuple[float, int], measure: float) -> Tuple[float, int]:
        return (state[0] + measure, state[1] + 1)

    def merge(
        self, left: Tuple[float, int], right: Tuple[float, int]
    ) -> Tuple[float, int]:
        return (left[0] + right[0], left[1] + right[1])

    def finalize(self, state: Tuple[float, int]) -> float:
        if state[1] == 0:
            raise QueryError("AVG of an empty group")
        return state[0] / state[1]


_FUNCTIONS: Dict[str, AggregateFunction] = {
    "COUNT": CountAggregate(),
    "SUM": SumAggregate(),
    "MIN": MinAggregate(),
    "MAX": MaxAggregate(),
    "AVG": AvgAggregate(),
}


def get_function(name: str) -> AggregateFunction:
    try:
        return _FUNCTIONS[name.upper()]
    except KeyError:
        raise QueryError(f"unknown aggregate function {name!r}") from None


def registered_functions() -> Dict[str, AggregateFunction]:
    """Every registered aggregate, by name.

    The merge-law property tests quantify over this mapping, so a newly
    registered aggregate is automatically held to the associativity /
    commutativity / identity laws the distributed layers depend on.
    """
    return dict(_FUNCTIONS)


@dataclass(frozen=True)
class AggregateSpec:
    """What the RETURN clause computes.

    Attributes:
        function: COUNT / SUM / MIN / MAX / AVG.
        measure_path: relative path from the fact to a numeric measure
            (ignored by COUNT).  ``""`` means "the fact itself".
    """

    function: str = "COUNT"
    measure_path: str = ""

    def __post_init__(self) -> None:
        get_function(self.function)  # validate eagerly
        if self.function.upper() != "COUNT" and not self.measure_path:
            raise QueryError(
                f"{self.function} needs a measure path (e.g. '@price')"
            )

    @property
    def fn(self) -> AggregateFunction:
        return get_function(self.function)

    def __str__(self) -> str:
        inner = self.measure_path or "$fact"
        return f"{self.function.upper()}({inner})"
