"""Unit tests for schema-driven lattice pruning (Sec. 3.7)."""

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.extract import extract_fact_table
from repro.core.prune import (
    axis_state_aliases,
    compute_cube_pruned,
    prune_lattice,
)
from repro.core.states import AxisStates
from repro.datagen.publications import figure1_document, query1
from repro.schema.dtd import Cardinality, Dtd


def rigid_schema() -> Dtd:
    """A schema where author/name never nest deeper and name only occurs
    under author: both PC-AD and SP are provably no-ops."""
    dtd = Dtd()
    dtd.declare_element(
        "database", children=[("publication", Cardinality.STAR)]
    )
    dtd.declare_element(
        "publication",
        children=[
            ("author", Cardinality.ONE),
            ("publisher", Cardinality.OPTIONAL),
            ("year", Cardinality.ONE),
        ],
        attributes=["id"],
    )
    dtd.declare_element("author", children=[("name", Cardinality.ONE)])
    dtd.declare_element("name", has_text=True)
    dtd.declare_element("publisher", attributes=["id"])
    dtd.declare_element("year", has_text=True)
    return dtd


def nesting_schema() -> Dtd:
    """A schema where authors may nest under an authors wrapper: PC-AD
    genuinely matters and must NOT be pruned."""
    dtd = rigid_schema()
    dtd.declare_element(
        "publication",
        children=[
            ("author", Cardinality.STAR),
            ("authors", Cardinality.OPTIONAL),
            ("publisher", Cardinality.OPTIONAL),
            ("year", Cardinality.ONE),
        ],
        attributes=["id"],
    )
    dtd.declare_element(
        "authors", children=[("author", Cardinality.PLUS)]
    )
    return dtd


class TestAliases:
    def test_rigid_schema_collapses_everything(self):
        query = query1()
        states = AxisStates.for_axis(query.axes[0])  # $n: SP+PC-AD
        aliases = axis_state_aliases(rigid_schema(), states, "publication")
        # Every structural state collapses to rigid.
        assert set(aliases.values()) == {states.rigid_index}

    def test_nesting_schema_keeps_pcad(self):
        query = query1()
        states = AxisStates.for_axis(query.axes[0])
        aliases = axis_state_aliases(
            nesting_schema(), states, "publication"
        )
        from repro.patterns.relaxation import Relaxation

        pcad = states.index_of(frozenset({Relaxation.PC_AD}))
        assert aliases[pcad] == pcad  # PC-AD is NOT a no-op here


class TestPruneLattice:
    def test_rigid_schema_prunes_structural_points(self):
        query = query1()
        lattice = query.lattice()
        mapping = prune_lattice(lattice, rigid_schema(), "publication")
        canonical = set(mapping.values())
        assert len(canonical) < lattice.size()
        # LND structure is untouched: the classic 2^3 cube remains.
        assert len(canonical) == 8

    def test_mapping_is_idempotent(self):
        query = query1()
        lattice = query.lattice()
        mapping = prune_lattice(lattice, rigid_schema(), "publication")
        for point, canonical in mapping.items():
            assert mapping[canonical] == canonical


class TestComputePruned:
    def test_results_match_full_cube_on_conforming_data(self):
        """On data that conforms to the rigid schema, pruned computation
        must equal the full cube."""
        from repro.datagen.publications import random_publications

        doc = random_publications(
            60,
            p_missing_publisher=0.3,
            p_extra_author=0,
            p_nested_author=0,
            p_pubdata=0,
            p_second_year=0,
        )
        table = extract_fact_table(doc, query1())
        pruned, saved = compute_cube_pruned(
            table, rigid_schema(), "publication"
        )
        full = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        assert saved == 30 - 8
        assert pruned.same_contents(full)

    def test_unsound_schema_detected_by_comparison(self):
        """Pruning with a schema the data violates yields wrong cuboids
        (the schema is an assumption, like disjointness for BUCOPT)."""
        table = extract_fact_table(figure1_document(), query1())
        pruned, _ = compute_cube_pruned(
            table, rigid_schema(), "publication"
        )
        full = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        assert not pruned.same_contents(full)

    def test_sound_schema_on_figure1(self):
        """With the schema that actually describes Figure 1 (nesting
        allowed), only provably-coincident points collapse and the
        result stays correct."""
        table = extract_fact_table(figure1_document(), query1())
        pruned, saved = compute_cube_pruned(
            table, nesting_schema(), "publication"
        )
        full = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        assert pruned.same_contents(full)
        assert saved >= 0
