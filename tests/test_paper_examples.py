"""Every worked example of the paper, reproduced as an executable test.

* Example in the introduction (D = abcca, the (b|c)* ⊿x a ◁x Σ* ⊿y c+ ◁y Σ* spanner)
* Example 3.2 (subword-marked words, e/p/m)
* Example 4.1 (SLP of size 16 for a 25-symbol document)
* Example 4.2 / Figure 3 (normal-form SLP for aabccaabaa)
* Example 6.1 (partial marker sets and the ⊗ operator)
* Example 8.2 / Figure 4 (the relation, including the Figure 4 tuple)
* Section 4.2 (a^(2^n) needs only n+1 rules; log d lower bound)
"""

import math

from repro.slp.derive import text
from repro.slp.families import example_4_1, example_4_2, power_slp
from repro.slp.construct import balanced_slp
from repro.spanner.marked_words import e, m, p
from repro.spanner.markers import (
    cl,
    combine,
    from_span_tuple,
    make_pairs,
    op,
    to_span_tuple,
)
from repro.spanner.regex import compile_spanner
from repro.spanner.spans import Span, SpanTuple
from repro.core.computation import compute
from repro.workloads.queries import figure2_spanner


class TestIntroductionExample:
    """Page 1: D = abcca maps to {([1,2⟩,[3,4⟩), ([1,2⟩,[4,5⟩), ([1,2⟩,[3,5⟩)}."""

    def test_relation(self):
        spanner = compile_spanner(r"[bc]*(?P<x>a).*(?P<y>c+).*", alphabet="abc")
        got = compute(balanced_slp("abcca"), spanner)
        assert got == frozenset(
            {
                SpanTuple({"x": Span(1, 2), "y": Span(3, 4)}),
                SpanTuple({"x": Span(1, 2), "y": Span(4, 5)}),
                SpanTuple({"x": Span(1, 2), "y": Span(3, 5)}),
            }
        )

    def test_subword_marked_encodings(self):
        """The three subword-marked words given on page 2 all encode D with
        the respective span-tuples."""
        spanner = compile_spanner(r"[bc]*(?P<x>a).*(?P<y>c+).*", alphabet="abc")
        words = [
            # ⊿x a ◁x b ⊿y c ◁y ca
            (frozenset({op("x")}), "a", frozenset({cl("x")}), "b",
             frozenset({op("y")}), "c", frozenset({cl("y")}), "c", "a"),
            # ⊿x a ◁x bc ⊿y c ◁y a
            (frozenset({op("x")}), "a", frozenset({cl("x")}), "b", "c",
             frozenset({op("y")}), "c", frozenset({cl("y")}), "a"),
            # ⊿x a ◁x b ⊿y cc ◁y a
            (frozenset({op("x")}), "a", frozenset({cl("x")}), "b",
             frozenset({op("y")}), "c", "c", frozenset({cl("y")}), "a"),
        ]
        for word in words:
            assert e(word) == "abcca"
            assert spanner.accepts(word)


class TestExample32:
    def test_marker_set(self):
        word = (
            frozenset({op("x")}), "a", "b",
            frozenset({op("y"), op("z"), cl("x")}), "b", "c",
            frozenset({cl("z")}), "a", "b", frozenset({cl("y")}), "a", "c",
        )
        assert e(word) == "abbcabac"
        assert to_span_tuple(p(word)) == SpanTuple(
            {"x": Span(1, 3), "y": Span(3, 7), "z": Span(3, 5)}
        )

    def test_m_of_d_and_t(self):
        doc = "aaabcbb"
        tup = SpanTuple({"x": Span(6, 8), "z": Span(3, 8)})
        word = m(doc, from_span_tuple(tup))
        # aa{⊿z}abc{⊿x}bb{◁x,◁z}
        assert word == (
            "a", "a", frozenset({op("z")}), "a", "b", "c",
            frozenset({op("x")}), "b", "b", frozenset({cl("x"), cl("z")}),
        )


class TestExample41:
    def test_document(self):
        slp = example_4_1()
        assert text(slp) == "baababaabbabaababaabbaabb"

    def test_sub_derivations(self):
        # D(B) = baab, D(A) = D(B) a D(B) = baababaab
        slp = example_4_1()
        assert text(slp, root="B") == "baab"
        assert text(slp, root="A") == "baababaab"

    def test_compression(self):
        """The paper: size(S) = 16 < 25 = |D(S)| for the original rules."""
        general_rules = {"S0": list("A") + ["b", "a", "A", "B", "b"],
                         "A": ["B", "a", "B"], "B": list("baab")}
        original_size = len(general_rules) + sum(len(r) for r in general_rules.values())
        assert original_size == 16 < 25
        # the normal-form (binarised) version pays a constant factor but
        # still derives the same 25-symbol document
        slp = example_4_1()
        assert slp.length() == 25
        assert slp.size <= 3 * original_size


class TestExample42:
    def test_document_and_figure3_tree(self):
        slp = example_4_2()
        assert text(slp) == "aabccaabaa"
        for name, derived in [
            ("E", "aa"), ("C", "aab"), ("D", "cc"), ("A", "aabcc"), ("B", "aabaa"),
        ]:
            assert text(slp, root=name) == derived

    def test_depths(self):
        slp = example_4_2()
        # Figure 3: leaves at depth 1, E=2, C=3, D=2, A=4, B=4, S0=5
        assert slp.depth("E") == 2
        assert slp.depth("C") == 3
        assert slp.depth("A") == 4
        assert slp.depth() == 5


class TestExample61:
    def test_combination(self):
        lam1 = make_pairs([(2, op("y")), (4, op("z")), (4, op("x")), (6, cl("z"))])
        lam2 = make_pairs([(2, cl("x")), (4, cl("y"))])
        combined = combine(lam1, lam2, 6)
        assert to_span_tuple(combined) == SpanTuple(
            {"y": Span(2, 10), "z": Span(4, 6), "x": Span(4, 8)}
        )

    def test_m_d1_lambda1(self):
        lam1 = make_pairs([(2, op("y")), (4, op("z")), (4, op("x")), (6, cl("z"))])
        word = m("ababcc", lam1)
        assert word == (
            "a", frozenset({op("y")}), "b", "a",
            frozenset({op("z"), op("x")}), "b", "c", frozenset({cl("z")}), "c",
        )


class TestExample82:
    def test_relation_on_figure2_dfa(self):
        result = compute(example_4_2(), figure2_spanner())
        expected = {
            SpanTuple({v: s}) for v in ("x", "y") for s in (Span(4, 5), Span(4, 6))
        }
        assert result == expected

    def test_figure4_yield(self):
        """yield(T) = {{(⊿y,4), (◁y,6)}} for the tree of Figure 4."""
        target = SpanTuple({"y": Span(4, 6)})
        assert target in compute(example_4_2(), figure2_spanner())


class TestSection42Bounds:
    def test_a_power_2n_has_n_plus_1_rules(self):
        """Sec 4.2: strings a^(2^n) can be represented by n+1 rules."""
        slp = power_slp("a", 10)
        # our encoding: 1 leaf rule + 10 doubling rules = 11 = n + 1
        assert slp.num_nonterminals == 11

    def test_log_lower_bound(self):
        """size(S) >= log |D| for every SLP (Charikar et al., Lemma 1)."""
        for slp in (example_4_1(), example_4_2(), power_slp("a", 20)):
            assert slp.size >= math.log2(slp.length())
