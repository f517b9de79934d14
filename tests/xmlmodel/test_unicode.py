"""Unicode handling across parser, serializer and grouping."""

from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize


class TestUnicodeContent:
    def test_non_ascii_text_round_trips(self):
        doc = parse("<a>héllo wörld — ünïcode ✓</a>")
        assert doc.root.text == "héllo wörld — ünïcode ✓"
        again = parse(serialize(doc))
        assert again.root.text == doc.root.text

    def test_cjk_and_emoji(self):
        doc = parse("<名前>山田🌸</名前>")
        assert doc.root.tag == "名前"
        assert doc.root.text == "山田🌸"
        assert parse(serialize(doc)).root.text == "山田🌸"

    def test_character_references_beyond_bmp(self):
        doc = parse("<a>&#x1F338;</a>")
        assert doc.root.text == "🌸"

    def test_unicode_attribute_values(self):
        doc = parse('<a name="Ünïcode &#233;"/>')
        assert doc.root.attrs["name"] == "Ünïcode é"
        assert parse(serialize(doc)).root.attrs["name"] == "Ünïcode é"


class TestUnicodeGroupingValues:
    def test_cube_keys_preserve_unicode(self):
        from repro.core.axes import AxisSpec
        from repro.core.cube import ExecutionOptions, compute_cube
        from repro.core.extract import extract_fact_table
        from repro.core.query import X3Query

        doc = parse(
            "<r><f><g>日本</g></f><f><g>日本</g></f><f><g>España</g></f></r>"
        )
        query = X3Query(
            fact_tag="f",
            axes=(AxisSpec.from_path("$g", "g"),),
            fact_id_path="",
        )
        table = extract_fact_table(doc, query)
        cube = compute_cube(table, ExecutionOptions(algorithm="BUC"))
        cuboid = cube.cuboid_by_description("$g:rigid")
        assert cuboid == {("日本",): 2.0, ("España",): 1.0}
