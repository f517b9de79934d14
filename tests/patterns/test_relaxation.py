"""Unit tests for the three relaxation operators (paper Sec. 2.2)."""

import pytest

from repro.errors import RelaxationError
from repro.patterns.parse import parse_pattern
from repro.patterns.pattern import EdgeAxis
from repro.patterns.relaxation import (
    Relaxation,
    applicable_relaxations,
    apply_lnd,
    apply_pc_ad,
    apply_sp,
    most_relaxed_pattern,
    relaxation_chain,
)

PATTERN = "//publication[/author/name=$n][//publisher[/@id=$p]][/year=$y]"


def base():
    return parse_pattern(PATTERN)


class TestRelaxationEnum:
    def test_from_text_variants(self):
        assert Relaxation.from_text("lnd") is Relaxation.LND
        assert Relaxation.from_text("PC-AD") is Relaxation.PC_AD
        assert Relaxation.from_text("pc_ad") is Relaxation.PC_AD
        assert Relaxation.from_text(" SP ") is Relaxation.SP

    def test_unknown(self):
        with pytest.raises(RelaxationError):
            Relaxation.from_text("XX")


class TestPcAd:
    def test_paper_example(self):
        # publication/author -> publication//author makes the pattern
        # match publications whose author hides below a wrapper.
        pattern = parse_pattern("//publication/author=$a")
        relaxed = apply_pc_ad(pattern, "$a")
        assert relaxed.by_label("$a").axis is EdgeAxis.DESCENDANT

    def test_original_untouched(self):
        pattern = parse_pattern("//a/b=$b")
        apply_pc_ad(pattern, "$b")
        assert pattern.by_label("$b").axis is EdgeAxis.CHILD

    def test_already_descendant_rejected(self):
        pattern = parse_pattern("//a//b=$b")
        with pytest.raises(RelaxationError):
            apply_pc_ad(pattern, "$b")

    def test_root_rejected(self):
        pattern = parse_pattern("//a=$a")
        with pytest.raises(RelaxationError):
            apply_pc_ad(pattern, "$a")

    def test_attribute_edge_rejected(self):
        pattern = parse_pattern("//a[/@id=$i]")
        with pytest.raises(RelaxationError):
            apply_pc_ad(pattern, "$i")


class TestSp:
    def test_paper_example(self):
        # publication[./author/name] -> publication[./author][.//name]
        pattern = parse_pattern("//publication[/author/name=$n]")
        relaxed = apply_sp(pattern, "$n")
        name = relaxed.by_label("$n")
        assert name.parent is relaxed.root
        assert name.axis is EdgeAxis.DESCENDANT
        author = relaxed.root.children[0]
        assert author.test == "author" and author.is_leaf

    def test_no_grandparent_rejected(self):
        pattern = parse_pattern("//a/b=$b")
        with pytest.raises(RelaxationError):
            apply_sp(pattern, "$b")

    def test_subtree_moves_whole(self):
        pattern = parse_pattern("//r[/a/b=$b[/c]]")
        relaxed = apply_sp(pattern, "$b")
        b = relaxed.by_label("$b")
        assert [child.test for child in b.children] == ["c"]


class TestLnd:
    def test_delete_leaf(self):
        pattern = parse_pattern("//a[/b=$b][/c]")
        relaxed = apply_lnd(pattern, "$b")
        assert [child.test for child in relaxed.root.children] == ["c"]

    def test_keep_optional(self):
        pattern = parse_pattern("//a[/b=$b]")
        relaxed = apply_lnd(pattern, "$b", keep_optional=True)
        assert relaxed.by_label("$b").optional

    def test_non_leaf_rejected(self):
        pattern = parse_pattern("//a[/b=$b/c]")
        with pytest.raises(RelaxationError):
            apply_lnd(pattern, "$b")

    def test_root_rejected(self):
        pattern = parse_pattern("//a=$a")
        with pytest.raises(RelaxationError):
            apply_lnd(pattern, "$a")


class TestApplicability:
    def test_rules(self):
        pattern = base()
        all_three = {Relaxation.LND, Relaxation.SP, Relaxation.PC_AD}
        # $n has a grandparent and a child edge: everything applies.
        assert applicable_relaxations(pattern, "$n", all_three) == all_three
        # $y sits right under the root: no SP.
        assert applicable_relaxations(pattern, "$y", all_three) == {
            Relaxation.LND, Relaxation.PC_AD,
        }
        # $p is an attribute: PC-AD does not apply to attribute edges.
        assert applicable_relaxations(pattern, "$p", all_three) == {
            Relaxation.LND, Relaxation.SP,
        }


class TestMostRelaxed:
    def test_figure2_shape(self):
        pattern = base()
        specs = {
            "$n": {Relaxation.LND, Relaxation.SP, Relaxation.PC_AD},
            "$p": {Relaxation.LND, Relaxation.PC_AD},
            "$y": {Relaxation.LND},
        }
        relaxed = most_relaxed_pattern(pattern, specs)
        name = relaxed.by_label("$n")
        # SP promoted name to the root with a descendant edge, optional.
        assert name.parent is relaxed.root
        assert name.axis is EdgeAxis.DESCENDANT
        assert name.optional
        assert relaxed.by_label("$p").optional
        assert relaxed.by_label("$y").optional
        # The original pattern is untouched.
        assert not pattern.by_label("$y").optional

    def test_matches_superset_of_rigid(self):
        from repro.datagen.publications import figure1_document
        from tests.prop.reference_match import match_document

        doc = figure1_document()
        pattern = base()
        specs = {
            "$n": {Relaxation.LND, Relaxation.SP, Relaxation.PC_AD},
            "$p": {Relaxation.LND, Relaxation.PC_AD},
            "$y": {Relaxation.LND},
        }
        relaxed = most_relaxed_pattern(pattern, specs)
        rigid_roots = {
            id(witness.root_binding)
            for witness in match_document(doc, pattern)
        }
        relaxed_roots = {
            id(witness.root_binding)
            for witness in match_document(doc, relaxed)
        }
        assert rigid_roots <= relaxed_roots
        assert len(relaxed_roots) == 4  # every publication matches Fig. 2


class TestRelaxationChain:
    def test_chain_enumerates_unique_patterns(self):
        pattern = parse_pattern("//r[/a/b=$b]")
        chain = relaxation_chain(
            pattern, "$b", {Relaxation.SP, Relaxation.PC_AD, Relaxation.LND}
        )
        signatures = {p.signature() for p in chain}
        assert len(signatures) == len(chain) >= 4
