"""Unit tests for the Figure 1 database and its scalable variant."""

from repro.datagen.publications import (
    QUERY1_TEXT,
    query1,
    random_publications,
)
from repro.xmlmodel.nodes import validate_regions


class TestFigure1:
    def test_four_publications(self, fig1_doc):
        pubs = fig1_doc.find_all("publication")
        assert [pub.attrs["id"] for pub in pubs] == ["1", "2", "3", "4"]

    def test_pub1_two_authors(self, fig1_doc):
        pub1 = fig1_doc.find_all("publication")[0]
        names = [n.text for n in pub1.find_descendants("name")]
        assert names == ["John", "Jane"]

    def test_pub2_two_editions(self, fig1_doc):
        pub2 = fig1_doc.find_all("publication")[1]
        years = [y.text for y in pub2.find_children("year")]
        assert years == ["2004", "2005"]

    def test_pub3_no_publisher_nested_author(self, fig1_doc):
        pub3 = fig1_doc.find_all("publication")[2]
        assert pub3.find_descendants("publisher") == []
        assert pub3.find_children("author") == []
        assert len(pub3.find_descendants("author")) == 1

    def test_pub4_pubdata_wrapper(self, fig1_doc):
        pub4 = fig1_doc.find_all("publication")[3]
        assert pub4.find_children("year") == []
        pubdata = pub4.find_children("pubData")[0]
        assert pubdata.find_children("publisher")
        assert pubdata.find_children("year")

    def test_regions_valid(self, fig1_doc):
        validate_regions(fig1_doc)

    def test_query1_text_parses_to_query1(self):
        from repro.lang import parse_x3_query

        parsed = parse_x3_query(QUERY1_TEXT)
        built = query1()
        assert parsed.fact_tag == built.fact_tag
        assert [a.steps for a in parsed.axes] == [a.steps for a in built.axes]
        assert [a.relaxations for a in parsed.axes] == [
            a.relaxations for a in built.axes
        ]


class TestRandomPublications:
    def test_deterministic(self):
        one = random_publications(30, seed=5)
        two = random_publications(30, seed=5)
        from repro.xmlmodel.serializer import serialize

        assert serialize(one) == serialize(two)

    def test_count(self):
        doc = random_publications(25)
        assert len(doc.find_all("publication")) == 25

    def test_zero_knobs_regular(self):
        doc = random_publications(
            40,
            p_missing_publisher=0,
            p_extra_author=0,
            p_nested_author=0,
            p_pubdata=0,
            p_second_year=0,
        )
        for pub in doc.find_all("publication"):
            assert len(pub.find_children("author")) == 1
            assert len(pub.find_children("publisher")) == 1
            assert len(pub.find_children("year")) == 1

    def test_knobs_inject_heterogeneity(self):
        doc = random_publications(
            120, seed=3,
            p_missing_publisher=0.5, p_nested_author=0.5, p_second_year=0.5,
        )
        pubs = doc.find_all("publication")
        assert any(not pub.find_descendants("publisher") for pub in pubs)
        assert any(pub.find_children("authors") for pub in pubs)
        assert any(len(pub.find_children("year")) == 2 for pub in pubs)
