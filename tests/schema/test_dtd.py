"""Unit tests for the DTD model and its path reasoning."""

import pytest

from repro.errors import SchemaError
from repro.schema.dtd import Cardinality, Dtd, ElementDecl


def build_pub_dtd() -> Dtd:
    dtd = Dtd()
    dtd.declare_element(
        "database", children=[("publication", Cardinality.STAR)]
    )
    dtd.declare_element(
        "publication",
        children=[
            ("author", Cardinality.STAR),
            ("publisher", Cardinality.OPTIONAL),
            ("year", Cardinality.PLUS),
        ],
        attributes=["id"],
    )
    dtd.declare_element(
        "author", children=[("name", Cardinality.ONE)], attributes=["id"]
    )
    dtd.declare_element("name", has_text=True)
    dtd.declare_element("publisher", attributes=["id"])
    dtd.declare_element("year", has_text=True)
    return dtd


class TestCardinality:
    def test_flags(self):
        assert Cardinality.ONE.may_be_absent is False
        assert Cardinality.ONE.may_repeat is False
        assert Cardinality.OPTIONAL.may_be_absent is True
        assert Cardinality.STAR.may_repeat is True
        assert Cardinality.PLUS.may_repeat is True
        assert Cardinality.PLUS.may_be_absent is False

    def test_from_indicator(self):
        assert Cardinality.from_indicator("") is Cardinality.ONE
        assert Cardinality.from_indicator("?") is Cardinality.OPTIONAL
        assert Cardinality.from_indicator("*") is Cardinality.STAR
        assert Cardinality.from_indicator("+") is Cardinality.PLUS
        with pytest.raises(SchemaError):
            Cardinality.from_indicator("!")

    @pytest.mark.parametrize(
        "first,second,expected",
        [
            (Cardinality.ONE, Cardinality.ONE, Cardinality.ONE),
            (Cardinality.ONE, Cardinality.OPTIONAL, Cardinality.OPTIONAL),
            (Cardinality.ONE, Cardinality.PLUS, Cardinality.PLUS),
            (Cardinality.OPTIONAL, Cardinality.PLUS, Cardinality.STAR),
            (Cardinality.STAR, Cardinality.ONE, Cardinality.STAR),
        ],
    )
    def test_join(self, first, second, expected):
        assert Cardinality.join(first, second) is expected


class TestDtd:
    def test_first_declared_is_root(self):
        dtd = build_pub_dtd()
        assert dtd.root == "database"

    def test_contains_and_tags(self):
        dtd = build_pub_dtd()
        assert "author" in dtd
        assert "nope" not in dtd
        assert set(dtd.tags) >= {"database", "publication", "name"}

    def test_reachable_tags(self):
        dtd = build_pub_dtd()
        reachable = dtd.reachable_tags("publication")
        assert {"author", "name", "publisher", "year"} <= reachable
        assert "database" not in reachable

    def test_descendant_cardinality_single_path(self):
        dtd = build_pub_dtd()
        card = dtd.descendant_step_cardinality("publication", "name")
        # publication -> author(*) -> name(1): repeatable and optional.
        assert card is Cardinality.STAR

    def test_descendant_cardinality_unreachable(self):
        dtd = build_pub_dtd()
        assert dtd.descendant_step_cardinality("author", "year") is None

    def test_descendant_cardinality_mandatory_chain(self):
        dtd = Dtd()
        dtd.declare_element("a", children=[("b", Cardinality.ONE)])
        dtd.declare_element("b", children=[("c", Cardinality.ONE)])
        dtd.declare_element("c")
        assert (
            dtd.descendant_step_cardinality("a", "c") is Cardinality.ONE
        )

    def test_descendant_cardinality_multiple_routes(self):
        dtd = Dtd()
        dtd.declare_element(
            "a",
            children=[("b", Cardinality.ONE), ("c", Cardinality.ONE)],
        )
        dtd.declare_element("b", children=[("x", Cardinality.ONE)])
        dtd.declare_element("c", children=[("x", Cardinality.ONE)])
        dtd.declare_element("x")
        card = dtd.descendant_step_cardinality("a", "x")
        assert card is not None and card.may_repeat

    def test_recursive_schema_conservative(self):
        dtd = Dtd()
        dtd.declare_element(
            "a", children=[("a", Cardinality.OPTIONAL), ("x", Cardinality.ONE)]
        )
        dtd.declare_element("x")
        assert (
            dtd.descendant_step_cardinality("a", "x") is Cardinality.STAR
        )

    def test_declare_replaces(self):
        dtd = build_pub_dtd()
        dtd.declare(ElementDecl("year", has_text=False))
        assert dtd.get("year").has_text is False


def _paths_between_exhaustive(dtd, from_tag, to_tag, max_depth=16):
    """``Dtd._paths_between`` as it was before it learnt to stop at the
    first cycle that reaches ``to_tag``: the whole walk, reachability
    recomputed at every back edge.  The reference the verdicts are
    pinned against."""
    paths = []
    saw_cycle = [False]

    def walk(tag, trail, visited):
        if len(trail) > max_depth:
            return
        decl = dtd.get(tag)
        if decl is None:
            return
        for child, card in decl.children.items():
            if child == to_tag:
                paths.append(trail + [card])
            if child in visited:
                if to_tag in dtd.reachable_tags(child) or child == to_tag:
                    saw_cycle[0] = True
                continue
            walk(child, trail + [card], visited + (child,))

    walk(from_tag, [], (from_tag,))
    return None if saw_cycle[0] else paths


def _inferred_treebank_dtd() -> Dtd:
    from repro.datagen.treebank import TreebankConfig, generate_treebank
    from repro.schema.inference import infer_dtd

    config = TreebankConfig(
        n_facts=150, n_axes=4, coverage=False, disjoint=False, seed=3
    )
    return infer_dtd([generate_treebank(config)])


def _inferred_publications_dtd() -> Dtd:
    from repro.datagen.publications import random_publications
    from repro.schema.inference import infer_dtd

    return infer_dtd([random_publications(80, seed=5)])


class TestDescendantCardinalityOnInferredSchemas:
    """The oracle asks ``from//to`` of schemas inferred from data; on the
    treebank one (filler phrases nest in each other) nearly every walk
    meets a cycle."""

    @pytest.mark.parametrize(
        "build", [_inferred_treebank_dtd, _inferred_publications_dtd]
    )
    def test_every_verdict_is_the_exhaustive_walks(self, build):
        dtd = build()
        for from_tag in dtd.tags:
            for to_tag in dtd.tags:
                assert dtd._paths_between(
                    from_tag, to_tag, 16
                ) == _paths_between_exhaustive(dtd, from_tag, to_tag), (
                    from_tag,
                    to_tag,
                )

    def test_pinned_verdicts(self):
        treebank = _inferred_treebank_dtd()
        verdict = treebank.descendant_step_cardinality
        assert verdict("treebank", "sentence") is Cardinality.PLUS
        assert verdict("sentence", "w") is Cardinality.STAR  # via a cycle
        assert verdict("sentence", "m1") is Cardinality.STAR
        assert verdict("np", "np") is Cardinality.STAR
        assert verdict("phrase", "m2") is Cardinality.STAR
        assert verdict("phrase", "w") is None
        assert verdict("w", "sentence") is None
        publications = _inferred_publications_dtd()
        verdict = publications.descendant_step_cardinality
        assert verdict("database", "publication") is Cardinality.PLUS
        assert verdict("publication", "name") is Cardinality.STAR
        assert verdict("author", "name") is Cardinality.ONE
        assert verdict("author", "year") is None

    def test_reachability_is_computed_once_per_tag_per_question(
        self, monkeypatch
    ):
        dtd = _inferred_treebank_dtd()
        calls = []
        reachable_tags = dtd.reachable_tags
        monkeypatch.setattr(
            dtd,
            "reachable_tags",
            lambda tag: calls.append(tag) or reachable_tags(tag),
        )
        for to_tag in dtd.tags:
            del calls[:]
            dtd.descendant_step_cardinality("sentence", to_tag)
            # (the exhaustive walk asks thousands of times here)
            assert len(calls) == len(set(calls)) <= len(dtd.tags), to_tag
