"""Unit + property tests for cube XML export/import."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cube import CubeResult, ExecutionOptions, compute_cube
from repro.core.export import cube_from_xml, cube_to_xml
from repro.core.packed import PackedCuboid
from repro.datagen.publications import query1
from repro.errors import CubeError


class TestRoundTrip:
    def test_figure1_cube_round_trips(self, fig1_table):
        cube = compute_cube(fig1_table, ExecutionOptions(algorithm="BUC"))
        text = cube_to_xml(cube, query=query1())
        again = cube_from_xml(text, fig1_table.lattice)
        assert again.same_contents(cube)
        assert again.algorithm == "BUC"
        assert again.aggregate == "COUNT"

    def test_axes_metadata_written(self, fig1_table):
        cube = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        text = cube_to_xml(cube, query=query1())
        assert 'name="$n"' in text
        assert 'path="author/name"' in text
        assert "LND,PC-AD,SP" in text

    def test_partial_cube(self, fig1_table):
        top = fig1_table.lattice.top
        cube = compute_cube(
            fig1_table, ExecutionOptions(algorithm="NAIVE", points=[top])
        )
        again = cube_from_xml(
            cube_to_xml(cube), fig1_table.lattice
        )
        assert list(again.cuboids) == [top]

    def test_groups_are_written_in_stored_order(self, fig1_table):
        cube = compute_cube(fig1_table, ExecutionOptions(algorithm="TD"))
        again = cube_from_xml(cube_to_xml(cube), fig1_table.lattice)
        for point, cuboid in again.cuboids.items():
            assert isinstance(cuboid, PackedCuboid)
            assert list(cuboid.items()) == list(cube.cuboids[point].items())


class TestErrors:
    def test_wrong_root_rejected(self, fig1_table):
        with pytest.raises(CubeError):
            cube_from_xml("<notacube/>", fig1_table.lattice)

    def test_foreign_point_rejected(self, fig1_table):
        text = '<cube><cuboid point="$zz:rigid"/></cube>'
        with pytest.raises(CubeError):
            cube_from_xml(text, fig1_table.lattice)

    def test_null_component_refused(self, fig1_table):
        """No cube holds a null part (the top-down family strips its
        null groups before it reports), so none is loaded."""
        text = (
            '<cube><cuboid point="$n:rigid, $p:rigid, $y:rigid">'
            '<group result="7.0"><k null="true"/><k>p1</k><k>2003</k></group>'
            "</cuboid></cube>"
        )
        with pytest.raises(CubeError, match="null key component"):
            cube_from_xml(text, fig1_table.lattice)

    def test_duplicate_key_refused(self, fig1_table):
        text = (
            '<cube><cuboid point="$n:LND, $p:LND, $y:rigid">'
            '<group result="1.0"><k>2003</k></group>'
            '<group result="5.0"><k>2003</k></group>'
            "</cuboid></cube>"
        )
        with pytest.raises(CubeError, match="appears twice"):
            cube_from_xml(text, fig1_table.lattice)

    def test_arity_mismatch_rejected(self, fig1_table):
        text = (
            '<cube><cuboid point="$n:LND, $p:LND, $y:rigid">'
            '<group result="1.0"><k>a</k><k>b</k></group>'
            "</cuboid></cube>"
        )
        with pytest.raises(CubeError):
            cube_from_xml(text, fig1_table.lattice)


VALUE = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E),
    min_size=1,
    max_size=8,
)


@given(
    st.dictionaries(
        st.tuples(VALUE, VALUE, VALUE),
        st.floats(
            min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        max_size=12,
    )
)
@settings(max_examples=50, deadline=None)
def test_random_cuboids_round_trip(cells):
    lattice = query1().lattice()
    cube = CubeResult(
        lattice=lattice,
        cuboids={lattice.top: dict(cells)},
        algorithm="NAIVE",
    )
    again = cube_from_xml(cube_to_xml(cube), lattice)
    assert again.cuboids[lattice.top] == cube.cuboids[lattice.top]
