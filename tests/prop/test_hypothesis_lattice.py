"""Property-based tests: lattice laws and external sort correctness."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.axes import AxisSpec
from repro.core.lattice import CubeLattice
from repro.cost import CostModel, MemoryBudget, sorted_with_cost
from repro.patterns.relaxation import Relaxation


@st.composite
def lattices(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    axes = []
    for index in range(k):
        relaxations = {Relaxation.LND}
        if draw(st.booleans()):
            relaxations.add(Relaxation.PC_AD)
        axes.append(
            AxisSpec.from_path(f"$v{index}", "t", frozenset(relaxations))
        )
    return CubeLattice(axes)


@given(lattices())
@settings(max_examples=40, deadline=None)
def test_size_equals_enumeration(lattice):
    assert lattice.size() == len(list(lattice.points()))


@given(lattices())
@settings(max_examples=40, deadline=None)
def test_edge_counts_consistent(lattice):
    forward = sum(
        len(lattice.successors(point)) for point in lattice.points()
    )
    backward = sum(
        len(lattice.predecessors(point)) for point in lattice.points()
    )
    assert forward == backward


@given(lattices())
@settings(max_examples=40, deadline=None)
def test_transitivity_on_sample(lattice):
    points = list(lattice.points())[:8]
    for a in points:
        for b in points:
            for c in points:
                if lattice.leq(a, b) and lattice.leq(b, c):
                    assert lattice.leq(a, c)


@given(lattices())
@settings(max_examples=40, deadline=None)
def test_topo_respects_order(lattice):
    order = lattice.topo_finer_first()
    position = {point: index for index, point in enumerate(order)}
    for point in order:
        for succ in lattice.successors(point):
            assert position[point] < position[succ]


# ----------------------------------------------------------------------
# sorting laws
# ----------------------------------------------------------------------

@given(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=300),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_sorted_with_cost_equals_sorted(data, budget_entries):
    cost = CostModel()
    budget = MemoryBudget(budget_entries, entries_per_page=8)
    assert sorted_with_cost(data, cost, budget=budget) == sorted(data)

