"""Integration tests: every concrete claim in the paper's narrative.

Each test quotes the paper's statement it verifies against Figure 1 and
Query 1.
"""

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.extract import extract_fact_table
from repro.datagen.publications import figure1_document, query1


def cube():
    table = extract_fact_table(figure1_document(), query1())
    return table, compute_cube(table, ExecutionOptions(algorithm="NAIVE"))


class TestSection1Motivation:
    def test_group_by_year_publisher_misses_third_publication(self):
        """'the group-by year, publisher will not contain the third
        publication'"""
        table, result = cube()
        cuboid = result.cuboid_by_description(
            "$n:LND, $p:rigid, $y:rigid"
        )
        total = sum(cuboid.values())
        assert total == 3.0  # pub1 once, pub2 twice; pub3 and pub4 absent

    def test_rollup_from_finer_misses_count(self):
        """'if we employ the result of this finer group-by to determine
        yearly count ... we will miss the count of the third
        publication'"""
        table, result = cube()
        finer = result.cuboid_by_description("$n:LND, $p:rigid, $y:rigid")
        coarser = result.cuboid_by_description("$n:LND, $p:LND, $y:rigid")
        rolled_2003 = sum(
            value for (publisher, year), value in finer.items()
            if year == "2003"
        )
        assert rolled_2003 == 1.0
        assert coarser[("2003",)] == 2.0  # the roll-up misses pub3

    def test_first_publication_in_two_author_groups(self):
        """'The first publication is a member of both the groups
        (John, p1, 2003) and (Jane, p1, 2003).'"""
        _, result = cube()
        top = result.cuboid_by_description(
            "$n:rigid, $p:rigid, $y:rigid"
        )
        assert top[("John", "p1", "2003")] == 1.0
        assert top[("Jane", "p1", "2003")] == 1.0

    def test_group_p1_2003_counts_one_but_rollup_says_two(self):
        """'the group (p1, 2003) contains only the first publication and
        its count should be one. However, the roll-up from the finer
        level groups mentioned each count as one; added up, the result
        is two, which is wrong.'"""
        _, result = cube()
        correct = result.cuboid_by_description(
            "$n:LND, $p:rigid, $y:rigid"
        )
        assert correct[("p1", "2003")] == 1.0
        finer = result.cuboid_by_description(
            "$n:rigid, $p:rigid, $y:rigid"
        )
        wrong_rollup = sum(
            value for (name, publisher, year), value in finer.items()
            if (publisher, year) == ("p1", "2003")
        )
        assert wrong_rollup == 2.0


class TestSection21Grouping:
    def test_simple_year_pattern_groups(self):
        """'we get three groups. The first, for year 2003, has the first
        and third publications ... The fourth publication did not match
        the specified tree pattern'"""
        _, result = cube()
        years = result.cuboid_by_description("$n:LND, $p:LND, $y:rigid")
        assert years == {
            ("2003",): 2.0, ("2004",): 1.0, ("2005",): 1.0,
        }


class TestSection22Relaxation:
    def test_pcad_makes_all_four_match_author(self):
        """'the relaxed pattern publication//author will match all four
        publications'"""
        table, result = cube()
        relaxed = result.cuboid_by_description(
            "$n:PC-AD, $p:LND, $y:LND"
        )
        assert sum(relaxed.values()) == 5.0  # pub1 twice (2 authors)
        assert set(relaxed) == {
            ("John",), ("Jane",), ("Smith",), ("Anna",),
        }


class TestFigure2MostRelaxed:
    def test_most_relaxed_point_covers_everything(self):
        """One evaluation of the most relaxed pattern covers the lattice:
        the bottom cuboid counts every publication."""
        _, result = cube()
        bottom = result.cuboid_by_description("$n:LND, $p:LND, $y:LND")
        assert bottom == {(): 4.0}

    def test_publisher_descendant_covers_pub4(self):
        """$p uses //publisher so pub4's pubData/publisher matches even
        rigidly."""
        _, result = cube()
        publishers = result.cuboid_by_description(
            "$n:LND, $p:rigid, $y:LND"
        )
        assert publishers[("p3",)] == 1.0


class TestFigure3Lattice:
    def test_thirty_points(self):
        table, _ = cube()
        assert table.lattice.size() == 30

    def test_every_cuboid_computed(self):
        table, result = cube()
        assert len(result.cuboids) == 30
        for point, cuboid in result.cuboids.items():
            for key in cuboid:
                assert len(key) == len(table.lattice.kept_axes(point))
