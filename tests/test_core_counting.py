"""Tests for repro.core.counting (counting + ranked access extension)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.slp.construct import balanced_slp
from repro.slp.families import caterpillar_slp, power_slp
from repro.slp.repair import repair_slp
from repro.spanner.regex import compile_spanner
from repro.spanner.spans import Span, SpanTuple
from repro.spanner.transform import pad_slp, pad_spanner
from repro.baselines.naive import naive_evaluate
from repro.core.computation import compute
from repro.core.counting import (
    CountingTables,
    RankedAccess,
    count_results,
    ranked_access,
)
from repro.core.matrices import Preprocessing
from repro.workloads.documents import server_log
from repro.workloads.queries import pair_spanner

from tests.conftest import WELLFORMED_PATTERNS, random_doc


class TestCounting:
    @pytest.mark.parametrize("pattern,alphabet", WELLFORMED_PATTERNS)
    def test_count_matches_reference(self, pattern, alphabet, compiled_patterns):
        nfa = compiled_patterns[pattern]
        rng = random.Random(hash(pattern) & 0xFFF)
        for _ in range(4):
            doc = random_doc(rng, alphabet, 8)
            assert count_results(balanced_slp(doc), nfa) == len(
                naive_evaluate(nfa, doc)
            ), doc

    def test_exponential_count_exact(self):
        nfa = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
        assert count_results(power_slp("ab", 40), nfa) == 2**40
        assert count_results(power_slp("ab", 50), nfa) == 2**50

    def test_empty_relation(self):
        nfa = compile_spanner(r"(?P<x>aa)", alphabet="ab")
        assert count_results(balanced_slp("ab"), nfa) == 0

    def test_empty_tuple_counted(self):
        nfa = compile_spanner(r"b+|(?P<x>a)", alphabet="ab")
        assert count_results(balanced_slp("bb"), nfa) == 1

    def test_nfa_preprocessing_rejected(self):
        nfa = compile_spanner(r".*(?P<x>ab).*", alphabet="ab").eliminate_epsilon()
        prep = Preprocessing(pad_slp(balanced_slp("abab")), pad_spanner(nfa))
        with pytest.raises(EvaluationError):
            CountingTables(prep)

    def test_quadratic_join_count(self):
        nfa = compile_spanner(r".*(?P<x>c).*(?P<y>c).*", alphabet="abc")
        doc = ("ab" * 3 + "c") * 30
        assert count_results(balanced_slp(doc), nfa) == 30 * 29 // 2


class TestRankedAccess:
    def test_select_covers_relation(self, compiled_patterns):
        rng = random.Random(5)
        for pattern, alphabet in WELLFORMED_PATTERNS[:8]:
            nfa = compiled_patterns[pattern]
            doc = random_doc(rng, alphabet, 9)
            slp = balanced_slp(doc)
            ra = ranked_access(slp, nfa)
            selected = [ra.select_tuple(r) for r in range(ra.total)]
            assert len(selected) == len(set(selected)), (pattern, doc)
            assert set(selected) == compute(slp, nfa), (pattern, doc)

    def test_out_of_range(self):
        nfa = compile_spanner(r"(?P<x>a)", alphabet="a")
        ra = ranked_access(balanced_slp("a"), nfa)
        assert ra.total == 1
        with pytest.raises(IndexError):
            ra.select(1)
        with pytest.raises(IndexError):
            ra.select(-1)

    def test_select_on_terabyte_relation(self):
        nfa = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
        ra = ranked_access(power_slp("ab", 40), nfa)
        assert ra.total == 2**40
        # the canonical order here walks 'ab' blocks right-to-left
        assert ra.select_tuple(0)["x"].start == 2**41 - 1
        assert ra.select_tuple(ra.total - 1)["x"] == Span(1, 3)
        middle = ra.select_tuple(2**39)["x"]
        assert middle.start % 2 == 1  # every result is a real 'ab' position

    def test_slice(self):
        nfa = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
        ra = ranked_access(power_slp("ab", 4), nfa)
        window = ra.slice(3, 7)
        assert len(window) == 4
        assert window == [ra.select_tuple(r) for r in range(3, 7)]
        with pytest.raises(IndexError):
            ra.slice(0, ra.total + 1)

    def test_deep_grammar_select(self):
        nfa = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        slp = caterpillar_slp(2000)
        ra = ranked_access(slp, nfa)
        assert ra.total > 0
        selected = {ra.select_tuple(r) for r in range(min(ra.total, 30))}
        assert all(isinstance(t, SpanTuple) for t in selected)

    def test_stream_order_matches_canonical_order(self, compiled_patterns):
        # Regression: final_states used to be built in set-iteration order,
        # so enumerate_raw() and the canonical select(0..total-1) order
        # could disagree.  They must be the *same sequence*, not just the
        # same set.
        from repro.core.evaluator import CompressedSpannerEvaluator

        rng = random.Random(17)
        for pattern, alphabet in WELLFORMED_PATTERNS[:8]:
            nfa = compiled_patterns[pattern]
            doc = random_doc(rng, alphabet, 9)
            ev = CompressedSpannerEvaluator(nfa, balanced_slp(doc))
            ra = ev.ranked()
            assert list(ev.enumerate_raw()) == [
                ra.select(r) for r in range(ra.total)
            ], (pattern, doc)
        # Two variables over a RePair grammar, and an unbalanced depth-1600
        # grammar.
        log = CompressedSpannerEvaluator(pair_spanner(), repair_slp(server_log(40)))
        deep = CompressedSpannerEvaluator(
            compile_spanner(r".*(?P<x>ab).*", alphabet="ab"),
            caterpillar_slp(1600),
            balance=False,
        )
        for ev in (log, deep):
            ra = ev.ranked()
            assert list(ev.enumerate_raw()) == [ra.select(r) for r in range(ra.total)]

    def test_evaluator_integration(self):
        from repro.core.evaluator import CompressedSpannerEvaluator

        nfa = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
        ev = CompressedSpannerEvaluator(nfa, power_slp("ab", 8))
        assert ev.count() == 256
        ra = ev.ranked()
        assert ra.total == 256
        assert {ra.select_tuple(r) for r in range(256)} == ev.evaluate()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from([p for p, _ in WELLFORMED_PATTERNS]),
    st.data(),
)
def test_counting_and_selection_consistency(pattern, data):
    """Property: total == |relation| and select is a bijection onto it."""
    alphabet = dict(WELLFORMED_PATTERNS)[pattern]
    nfa = compile_spanner(pattern, alphabet=alphabet)
    doc = data.draw(st.text(alphabet=alphabet, min_size=1, max_size=10))
    slp = balanced_slp(doc)
    relation = compute(slp, nfa)
    ra = ranked_access(slp, nfa)
    assert ra.total == len(relation)
    assert {ra.select_tuple(r) for r in range(ra.total)} == relation


def test_evaluator_count_and_ranked_share_tables():
    from repro.core.evaluator import CompressedSpannerEvaluator

    nfa = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
    ev = CompressedSpannerEvaluator(nfa, power_slp("ab", 6))
    ra = ev.ranked()
    assert ra.tables is ev.ranked().tables  # one build, shared
    assert ev.count() == 64
    assert ev.ranked().tables is ra.tables  # count() built no second table
    assert ra.total == 64
