"""Tests for repro.core.enumeration (Theorem 8.10)."""

import itertools
import random
import sys

import pytest

from repro.errors import EvaluationError
from repro.slp.balance import balance
from repro.slp.construct import balanced_slp
from repro.slp.derive import text
from repro.slp.families import caterpillar_slp, example_4_2, power_slp
from repro.spanner.markers import cl, op, to_span_tuple
from repro.spanner.regex import compile_spanner
from repro.spanner.spans import Span, SpanTuple
from repro.spanner.transform import pad_slp, pad_spanner
from repro.baselines.naive import naive_evaluate
from repro.core.computation import compute
from repro.core.enumeration import enumerate_marker_sets, enumerate_spanner
from repro.core.matrices import Preprocessing
from repro.workloads.queries import figure2_spanner

from tests.conftest import WELLFORMED_PATTERNS, random_doc


class TestCorrectness:
    @pytest.mark.parametrize("pattern,alphabet", WELLFORMED_PATTERNS)
    def test_matches_naive_reference(self, pattern, alphabet, compiled_patterns):
        nfa = compiled_patterns[pattern]
        rng = random.Random(hash(pattern) & 0xABCDE)
        for _ in range(4):
            doc = random_doc(rng, alphabet, 7)
            got = list(enumerate_spanner(balanced_slp(doc), nfa))
            assert len(got) == len(set(got)), f"duplicates for {doc!r}"
            assert set(got) == naive_evaluate(nfa, doc), doc

    def test_agrees_with_computation(self, compiled_patterns):
        rng = random.Random(99)
        for pattern, alphabet in WELLFORMED_PATTERNS[:6]:
            nfa = compiled_patterns[pattern]
            doc = random_doc(rng, alphabet, 10)
            slp = balanced_slp(doc)
            assert set(enumerate_spanner(slp, nfa)) == compute(slp, nfa)

    def test_empty_relation_yields_nothing(self):
        nfa = compile_spanner(r"(?P<x>aa)", alphabet="ab")
        assert list(enumerate_spanner(balanced_slp("ab"), nfa)) == []

    def test_empty_tuple_enumerated(self):
        nfa = compile_spanner(r"b+|(?P<x>a)", alphabet="ab")
        assert list(enumerate_spanner(balanced_slp("bbb"), nfa)) == [SpanTuple()]


class TestDuplicateFreedom:
    def test_nfa_without_determinization_requires_dedup(self):
        nfa = compile_spanner(r".*(?P<x>ab).*", alphabet="ab").eliminate_epsilon()
        prep = Preprocessing(pad_slp(balanced_slp("abab")), pad_spanner(nfa))
        with pytest.raises(EvaluationError):
            list(enumerate_marker_sets(prep))

    def test_nfa_with_dedup_matches_dfa(self):
        nfa = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        slp = balanced_slp("ababab")
        via_dedup = set(
            enumerate_spanner(slp, nfa, determinize=False, deduplicate=True)
        )
        via_dfa = set(enumerate_spanner(slp, nfa, determinize=True))
        assert via_dedup == via_dfa

    def test_dfa_stream_has_no_duplicates(self):
        nfa = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
        slp = power_slp("ab", 5)
        got = list(enumerate_spanner(slp, nfa))
        assert len(got) == len(set(got)) == 32


class TestRecursionLimit:
    # The walk keeps its own stack, so enumeration never touches the
    # process-wide recursion limit: however deep the grammar, the limit
    # reads what the caller set while streaming, after close, and across
    # interleaved streams and threads.

    def test_deep_grammar_streams_under_the_callers_limit(self):
        deep = caterpillar_slp(1600)
        nfa = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        expected = compute(balanced_slp(text(deep)), nfa)
        outer = sys.getrecursionlimit()
        got = set()
        try:
            sys.setrecursionlimit(1000)
            for tup in enumerate_spanner(deep, nfa):
                assert sys.getrecursionlimit() == 1000
                got.add(tup)
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(outer)
        assert got == expected

    def test_limit_restored_after_exhaustion(self):
        outer = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(10_000)
            nfa = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
            results = list(enumerate_spanner(caterpillar_slp(2000), nfa))
            assert results
            assert sys.getrecursionlimit() == 10_000
        finally:
            sys.setrecursionlimit(outer)

    def test_limit_restored_after_close(self):
        outer = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1000)
            nfa = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
            stream = enumerate_spanner(caterpillar_slp(2000), nfa)
            next(stream)
            assert sys.getrecursionlimit() == 1000  # untouched while streaming
            stream.close()
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(outer)

    def test_closing_one_stream_keeps_limit_for_the_other(self):
        outer = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1500)
            nfa = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
            deep = caterpillar_slp(2000)
            stream_a = enumerate_spanner(deep, nfa)
            stream_b = enumerate_spanner(deep, nfa)
            first = next(stream_a)
            assert next(stream_b) == first
            stream_a.close()
            rest = list(stream_b)  # a depth-2000 grammar under a 1500 limit
            assert len(rest) == 1000
            assert sys.getrecursionlimit() == 1500
        finally:
            sys.setrecursionlimit(outer)


class TestWorkPerResult:
    """Lemma 8.4 as a delay bound: between two consecutive results the walk
    visits at most one (M,S)-tree's triples, at most 4·|X|·depth(S) + 2."""

    @staticmethod
    def visits_between_results(prep):
        counter = [0]

        class CountingPreprocessing(Preprocessing):
            __slots__ = ()

            def r_value(self, name, i, j):
                counter[0] += 1
                return Preprocessing.r_value(self, name, i, j)

        prep.__class__ = CountingPreprocessing
        gaps = []
        for _ in enumerate_marker_sets(prep):
            gaps.append(counter[0])
            counter[0] = 0
        return gaps

    @pytest.mark.parametrize(
        "pattern", [r".*(?P<x>ab).*", r".*(?P<x>a)b(?P<y>a).*", r"(?P<x>a*)(?P<y>.*)"]
    )
    def test_triples_per_result_within_lemma_8_4(self, pattern):
        nfa = compile_spanner(pattern, alphabet="ab").determinize().trim()
        deep = caterpillar_slp(300)
        for slp in (balanced_slp(text(deep)), deep):
            prep = Preprocessing(pad_slp(slp), pad_spanner(nfa))
            bound = 4 * len(nfa.variables) * prep.slp.depth() + 2
            gaps = self.visits_between_results(prep)
            assert gaps
            assert max(gaps) <= bound, (pattern, max(gaps), bound)

    def test_empty_leaves_are_not_descended(self):
        # Variable-free spanner: R = ℮ at the root, one triple per result.
        nfa = compile_spanner(r"(a|b)*", alphabet="ab").determinize().trim()
        prep = Preprocessing(pad_slp(power_slp("ab", 6)), pad_spanner(nfa))
        assert self.visits_between_results(prep) == [1]


class TestScale:
    def test_streaming_early_exit_is_cheap(self):
        """Pull only 10 of ~2^20 results from a huge compressed document."""
        nfa = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
        slp = power_slp("ab", 20)
        stream = enumerate_spanner(slp, nfa)
        first = list(itertools.islice(stream, 10))
        assert len(first) == len(set(first)) == 10
        for tup in first:
            start = tup["x"].start
            assert start % 2 == 1  # 'ab' occurrences sit at odd positions

    def test_full_enumeration_count_on_medium_doc(self):
        nfa = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
        slp = power_slp("ab", 10)  # 1024 'ab' blocks
        assert sum(1 for _ in enumerate_spanner(slp, nfa)) == 1024

    def test_deep_unbalanced_grammar(self):
        """Enumeration works on caterpillars (delay degrades, results don't)."""
        deep = caterpillar_slp(800)
        nfa = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        expected = compute(balanced_slp(text(deep)), nfa)
        assert set(enumerate_spanner(deep, nfa)) == expected

    def test_balanced_equals_unbalanced_results(self):
        deep = caterpillar_slp(300)
        flat = balance(deep)
        nfa = compile_spanner(r".*(?P<x>ba)(?P<y>ab?).*", alphabet="ab")
        assert set(enumerate_spanner(deep, nfa)) == set(enumerate_spanner(flat, nfa))


class TestRecursionLimitThreads:
    def test_concurrent_streams_across_threads(self):
        # No process-global state: threads streaming deep grammars at once
        # under a limit below their depth all finish, and leave it alone.
        import threading

        outer = sys.getrecursionlimit()
        errors = []

        def worker():
            try:
                nfa = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
                for _ in range(3):
                    results = list(enumerate_spanner(caterpillar_slp(1200), nfa))
                    assert len(results) == 601
                    assert sys.getrecursionlimit() == 1000
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        try:
            sys.setrecursionlimit(1000)
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(outer)


class TestRecursionLimitDeepConsumer:
    def test_exhaustion_under_deep_consumer_recursion(self):
        # A consumer already deep in its own recursion can exhaust a stream
        # over a deep grammar: the walk adds a constant number of frames.
        outer = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1000)
            nfa = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
            stream = enumerate_spanner(caterpillar_slp(2000), nfa)
            first = next(stream)

            def consume(depth):
                if depth:
                    return consume(depth - 1)
                return list(stream)

            rest = consume(800)
            assert len([first] + rest) == 1001
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(outer)


class TestExample82:
    """Example 8.2 / Figure 4: the running SLP of Example 4.2
    (D = aabccaabaa) under the Figure 2 DFA."""

    @pytest.fixture(scope="class")
    def prep(self):
        return Preprocessing(pad_slp(example_4_2()), pad_spanner(figure2_spanner()))

    def test_full_result(self, prep):
        """Spans of the c-block starting at position 4, marked with x or y.

        ([5,6⟩ is *not* in the relation: a span starting at 5 would need a
        ``c`` inside the ``{a,b}*`` prefix of the Figure 2 automaton.)
        """
        result = {to_span_tuple(p) for p in enumerate_marker_sets(prep)}
        expected = set()
        for var in ("x", "y"):
            for span in (Span(4, 5), Span(4, 6)):
                expected.add(SpanTuple({var: span}))
        assert result == expected

    def test_figure4_tuple_is_produced(self, prep):
        """The specific yield of Figure 4: {(⊿y,4), (◁y,6)} = t(y)=[4,6⟩."""
        target = ((4, op("y")), (6, cl("y")))
        assert target in set(enumerate_marker_sets(prep))
