"""Unit tests for the summarizability property oracles."""

import repro.core.properties as oracle_module
from repro.core.extract import extract_from_documents
from repro.core.properties import PropertyOracle, oracle_from
from repro.datagen.dblp import DblpConfig, dblp_dtd, dblp_query, generate_dblp
from repro.datagen.publications import figure1_document, query1
from repro.schema.inference import infer_dtd
from repro.schema.properties import (
    axis_coverage,
    axis_disjointness,
    path_cardinality,
)


def fig1_table():
    return extract_from_documents([figure1_document()], query1())


class TestFlagsOracle:
    def test_all_true(self):
        lattice = query1().lattice()
        oracle = PropertyOracle.from_flags(lattice, True, True)
        assert oracle.globally_disjoint()
        assert oracle.globally_covered()

    def test_all_false(self):
        lattice = query1().lattice()
        oracle = PropertyOracle.from_flags(lattice, False, False)
        for point in lattice.points():
            if lattice.kept_axes(point):
                assert not oracle.disjoint(point)
                assert not oracle.covered(point)

    def test_bottom_point_trivially_fine(self):
        lattice = query1().lattice()
        oracle = PropertyOracle.from_flags(lattice, False, False)
        # No kept axes: one big group, both properties vacuous.
        assert oracle.disjoint(lattice.bottom)
        assert oracle.covered(lattice.bottom)


class TestDataOracle:
    def test_figure1_ground_truth(self):
        table = fig1_table()
        oracle = PropertyOracle.from_data(table)
        lattice = table.lattice
        # $n (position 0) rigid: pub1 has two author names -> not disjoint.
        assert not oracle.axis_disjoint(0, 0)
        # $p rigid: at most one publisher each -> disjoint, but pub3
        # lacks one -> not covered.
        assert oracle.axis_disjoint(1, 0)
        assert not oracle.axis_covered(1, 0)
        # $y rigid: pub2 repeats the year, pub4 lacks it.
        assert not oracle.axis_disjoint(2, 0)
        assert not oracle.axis_covered(2, 0)
        assert not oracle.globally_disjoint()
        assert not oracle.globally_covered()

    def test_oracle_matches_observed(self):
        table = fig1_table()
        oracle = PropertyOracle.from_data(table)
        for point in table.lattice.points():
            assert oracle.disjoint(point) == table.observed_disjointness(
                point
            )

    def test_coverage_matches_observed_on_every_edge(self):
        """A covered point is one every fact reaches: exactly
        ``observed_coverage`` down to the most relaxed point, and enough
        for total coverage on every lattice edge out of it."""
        table = fig1_table()
        oracle = PropertyOracle.from_data(table)
        lattice = table.lattice
        edges = 0
        for finer in lattice.points():
            assert oracle.covered(finer) == table.observed_coverage(
                finer, lattice.bottom
            )
            for coarser in lattice.successors(finer):
                edges += 1
                if oracle.covered(finer):
                    assert table.observed_coverage(finer, coarser)
        assert edges and not oracle.globally_covered()


class TestSchemaOracle:
    def test_dblp_matches_data(self):
        """The DTD-derived oracle must be conservative w.r.t. the data."""
        doc = generate_dblp(DblpConfig(n_articles=150, seed=2))
        table = extract_from_documents([doc], dblp_query())
        schema_oracle = PropertyOracle.from_schema(
            table.lattice, dblp_dtd(), "article"
        )
        data_oracle = PropertyOracle.from_data(table)
        for point in table.lattice.points():
            # Whatever the schema guarantees must actually hold in data.
            if schema_oracle.disjoint(point):
                assert data_oracle.disjoint(point)
            if schema_oracle.covered(point):
                assert data_oracle.covered(point)

    def test_dblp_axis_verdicts(self):
        lattice = dblp_query().lattice()
        oracle = PropertyOracle.from_schema(lattice, dblp_dtd(), "article")
        # Axis order: $a, $m, $y, $j; rigid state index 0.
        assert not oracle.axis_disjoint(0, 0)   # author*
        assert oracle.axis_disjoint(1, 0)        # month?
        assert not oracle.axis_covered(1, 0)
        assert oracle.axis_covered(2, 0)         # year
        assert oracle.axis_covered(3, 0)         # journal


    def test_one_walk_per_state_agrees_with_the_verdict_functions(
        self, monkeypatch
    ):
        """Both properties are read off one ``path_cardinality`` of the
        binding path, and equal what the two stand-alone verdict
        functions say about it (SP existence prefixes included)."""
        walks = []

        def counting(dtd, fact_tag, steps):
            walks.append(tuple(steps))
            return path_cardinality(dtd, fact_tag, steps)

        monkeypatch.setattr(oracle_module, "path_cardinality", counting)
        saw_prefix = False
        for lattice, dtd, fact_tag in (
            (dblp_query().lattice(), dblp_dtd(), "article"),
            (
                query1().lattice(),
                infer_dtd([figure1_document()]),
                query1().fact_tag,
            ),
        ):
            del walks[:]
            oracle = PropertyOracle.from_schema(lattice, dtd, fact_tag)
            pairs = [
                (position, state)
                for position, states in enumerate(lattice.axis_states)
                for state in range(len(states.states))
            ]
            assert len(walks) == len(pairs)
            for position, state in pairs:
                states = lattice.axis_states[position]
                axis = states.axis
                binding, prefix = axis.steps_for_state(
                    states.structural_state(state)
                )
                steps = binding
                assert oracle.axis_disjoint(position, state) == (
                    axis_disjointness(dtd, fact_tag, steps).guaranteed
                )
                covered = axis_coverage(dtd, fact_tag, steps).guaranteed
                if prefix:
                    saw_prefix = True
                    covered = covered and axis_coverage(
                        dtd, fact_tag, prefix
                    ).guaranteed
                assert oracle.axis_covered(position, state) == covered
        assert saw_prefix


class TestDispatcher:
    def test_flags_win(self):
        lattice = query1().lattice()
        oracle = oracle_from(lattice, disjointness=True, coverage=True)
        assert oracle.globally_disjoint()

    def test_schema_next(self):
        lattice = dblp_query().lattice()
        oracle = oracle_from(lattice, dtd=dblp_dtd(), fact_tag="article")
        assert not oracle.axis_disjoint(0, 0)

    def test_data_fallback(self):
        table = fig1_table()
        oracle = oracle_from(table.lattice, table=table)
        assert not oracle.globally_disjoint()

    def test_pessimistic_default(self):
        lattice = query1().lattice()
        oracle = oracle_from(lattice)
        assert not oracle.disjoint(lattice.top)
