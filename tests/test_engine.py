"""Tests for repro.engine (LRU caches, Engine facade, batch helpers)."""

import gc
import random
import weakref

import pytest

from repro.slp.construct import balanced_slp
from repro.spanner.regex import compile_spanner
from repro.core.evaluator import CompressedSpannerEvaluator
from repro.engine import (
    BATCH_TASKS,
    Engine,
    LRUCache,
    PreprocessingCache,
    evaluate_corpus,
    evaluate_many,
    run_batch,
)

from tests.conftest import WELLFORMED_PATTERNS, random_doc

PATTERNS = [
    r".*(?P<x>ab).*",
    r"(?P<x>a+)b",
    r"(?P<x>a*)(?P<y>b*)",
    r"a(?P<x>.*)b",
]


def make_spanners():
    return [compile_spanner(p, alphabet="ab") for p in PATTERNS]


class TestLRUCache:
    def test_get_or_build_counts_hits_and_misses(self):
        cache = LRUCache(4)
        assert cache.get_or_build("k", lambda: 1) == 1
        assert cache.get_or_build("k", lambda: 2) == 1  # cached, not rebuilt
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'
        cache.put("c", 3)  # evicts 'b'
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables_storage(self):
        cache = LRUCache(0)
        assert cache.get_or_build("k", lambda: 1) == 1
        assert cache.get_or_build("k", lambda: 2) == 2  # rebuilt every time
        assert len(cache) == 0

    def test_hit_rate(self):
        cache = LRUCache(4)
        assert cache.stats.hit_rate == 0.0
        cache.get_or_build("k", lambda: 1)
        cache.get_or_build("k", lambda: 1)
        assert cache.stats.hit_rate == 0.5


class TestPreprocessingCache:
    def _pair(self, doc="abab"):
        from repro.spanner.transform import pad_slp, pad_spanner

        nfa = pad_spanner(
            compile_spanner(r".*(?P<x>ab).*", alphabet="ab").eliminate_epsilon()
        )
        slp = pad_slp(balanced_slp(doc))
        return slp, nfa

    def test_same_objects_hit(self):
        cache = PreprocessingCache(4)
        slp, nfa = self._pair()
        first = cache.get(slp, nfa)
        assert cache.get(slp, nfa) is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_identity_not_structure_keyed(self):
        # Two structurally equal SLP objects are distinct cache entries.
        cache = PreprocessingCache(4)
        slp_a, nfa = self._pair()
        slp_b, _ = self._pair()
        assert slp_a.same_structure(slp_b)
        prep_a = cache.get(slp_a, nfa)
        prep_b = cache.get(slp_b, nfa)
        assert prep_a is not prep_b
        assert cache.stats.misses == 2

    def test_eviction_rebuilds(self):
        cache = PreprocessingCache(1)
        slp_a, nfa = self._pair("abab")
        slp_b, _ = self._pair("aabb")
        first = cache.get(slp_a, nfa)
        cache.get(slp_b, nfa)  # evicts the slp_a entry
        assert len(cache) == 1
        again = cache.get(slp_a, nfa)
        assert again is not first  # rebuilt after eviction
        assert cache.stats.evictions >= 1


class TestEngineParity:
    """Engine results must equal the single-pair evaluator on every task."""

    def test_all_tasks_match_evaluator(self, compiled_patterns):
        engine = Engine()
        rng = random.Random(23)
        for pattern, alphabet in WELLFORMED_PATTERNS[:6]:
            nfa = compiled_patterns[pattern]
            doc = random_doc(rng, alphabet, 9)
            slp = balanced_slp(doc)
            ev = CompressedSpannerEvaluator(nfa, slp)
            assert engine.is_nonempty(nfa, slp) == ev.is_nonempty()
            assert engine.evaluate(nfa, slp) == ev.evaluate()
            assert engine.count(nfa, slp) == ev.count()
            assert list(engine.enumerate(nfa, slp)) == list(ev.enumerate())
            ra_engine, ra_ev = engine.ranked(nfa, slp), ev.ranked()
            assert ra_engine.total == ra_ev.total
            assert [ra_engine.select(r) for r in range(ra_engine.total)] == [
                ra_ev.select(r) for r in range(ra_ev.total)
            ]
            for tup in list(ev.evaluate())[:3]:
                assert engine.model_check(nfa, slp, tup)

    def test_ranked_shares_counting_tables(self):
        engine = Engine()
        slp = balanced_slp("abab")
        nfa = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        engine.count(nfa, slp)
        ra = engine.ranked(nfa, slp)
        assert engine.cache_stats()["counting"].hits >= 1
        assert ra.total == engine.count(nfa, slp)


class TestEngineCaching:
    def test_repeat_query_hits_preprocessing_cache(self):
        engine = Engine()
        slp = balanced_slp("ababab")
        nfa = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        engine.count(nfa, slp)
        misses = engine.cache_stats()["preprocessings"].misses
        engine.count(nfa, slp)
        stats = engine.cache_stats()["preprocessings"]
        assert stats.misses == misses  # no rebuild
        assert stats.hits >= 1

    def test_evaluate_many_shares_document(self):
        engine = Engine()
        slp = balanced_slp("aababb")
        spanners = make_spanners()
        results = engine.evaluate_many(spanners, slp)
        assert len(results) == len(spanners)
        assert engine.cache_stats()["documents"].misses == 1
        for spanner, result in zip(spanners, results):
            assert result == CompressedSpannerEvaluator(spanner, slp).evaluate()

    def test_evaluate_corpus_shares_spanner(self):
        engine = Engine()
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        docs = [balanced_slp(d) for d in ("abab", "bbbb", "aab", "ba")]
        results = engine.evaluate_corpus(spanner, docs)
        assert len(results) == len(docs)
        assert engine.cache_stats()["spanners"].misses == 1
        for slp, result in zip(docs, results):
            assert result == CompressedSpannerEvaluator(spanner, slp).evaluate()

    def test_eviction_keeps_results_correct(self):
        engine = Engine(max_preprocessings=1)
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        docs = [balanced_slp(d) for d in ("abab", "aabb")]
        baseline = [CompressedSpannerEvaluator(spanner, d).count() for d in docs]
        for _ in range(3):  # alternate pairs: every lookup evicts the other
            assert engine.count_corpus(spanner, docs) == baseline
        assert engine.cache_stats()["preprocessings"].evictions >= 1

    def test_clear_caches(self):
        engine = Engine()
        slp = balanced_slp("abab")
        nfa = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        engine.count(nfa, slp)
        engine.clear_caches()
        assert engine.cache_stats()["preprocessings"].size == 0
        assert engine.count(nfa, slp) == 2  # rebuilds fine


class TestBatchHelpers:
    def test_evaluate_many_module_level(self):
        slp = balanced_slp("aabab")
        spanners = make_spanners()
        expected = [
            CompressedSpannerEvaluator(sp, slp).evaluate() for sp in spanners
        ]
        assert evaluate_many(spanners, slp) == expected

    def test_evaluate_corpus_module_level(self):
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        docs = [balanced_slp(d) for d in ("abab", "ba")]
        expected = [
            CompressedSpannerEvaluator(spanner, d).evaluate() for d in docs
        ]
        assert evaluate_corpus(spanner, docs) == expected

    def test_run_batch_grid_row_major(self):
        spanners = make_spanners()[:2]
        docs = [balanced_slp(d) for d in ("abab", "bb")]
        items = run_batch(spanners, docs, task="count")
        assert [(i.document_index, i.spanner_index) for i in items] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]
        assert all(i.task == "count" for i in items)

    def test_run_batch_enumerate_limit(self):
        spanner = compile_spanner(r".*(?P<x>a).*", alphabet="ab")
        items = run_batch([spanner], [balanced_slp("aaaa")], task="enumerate", limit=2)
        assert len(items[0].result) == 2

    def test_run_batch_rejects_unknown_task(self):
        with pytest.raises(ValueError):
            run_batch([], [], task="frobnicate")
        assert "count" in BATCH_TASKS

    def test_run_batch_unknown_task_message_names_valid_tasks(self):
        # The library-path validation satellite: a clear ValueError that
        # tells the caller what *is* accepted.
        with pytest.raises(ValueError, match="unknown batch task 'select'"):
            run_batch([], [], task="select")
        with pytest.raises(ValueError, match="evaluate"):
            run_batch([], [], task="select")

    def test_run_task_validates_and_dispatches(self):
        from repro.engine import Engine, run_task

        spanner = compile_spanner(r".*(?P<x>a).*", alphabet="ab")
        slp = balanced_slp("aaba")
        engine = Engine()
        with pytest.raises(ValueError, match="unknown batch task"):
            run_task(engine, "frobnicate", spanner, slp)
        assert run_task(engine, "count", spanner, slp) == 3
        assert run_task(engine, "nonempty", spanner, slp) is True
        assert len(run_task(engine, "enumerate", spanner, slp, limit=2)) == 2
        assert run_task(engine, "evaluate", spanner, slp) == engine.evaluate(
            spanner, slp
        )

    def test_run_batch_evaluate_is_library_only(self):
        # ``evaluate`` is a valid library task (full relation as a
        # frozenset) but deliberately not in the CLI's printable subset.
        from repro.engine import PRINTABLE_BATCH_TASKS

        spanner = compile_spanner(r".*(?P<x>a).*", alphabet="ab")
        items = run_batch([spanner], [balanced_slp("aa")], task="evaluate")
        assert isinstance(items[0].result, frozenset)
        assert "evaluate" in BATCH_TASKS
        assert "evaluate" not in PRINTABLE_BATCH_TASKS
        assert set(PRINTABLE_BATCH_TASKS) < set(BATCH_TASKS)

    def test_run_batch_enumerate_limit_zero(self):
        spanner = compile_spanner(r".*(?P<x>a).*", alphabet="ab")
        items = run_batch([spanner], [balanced_slp("aaaa")], task="enumerate", limit=0)
        assert items[0].result == []

    def test_run_batch_enumerate_negative_limit(self):
        spanner = compile_spanner(r".*(?P<x>a).*", alphabet="ab")
        items = run_batch(
            [spanner], [balanced_slp("aaaa")], task="enumerate", limit=-3
        )
        assert items[0].result == []


class TestCountingCoEviction:
    def test_counting_tables_evict_with_their_preprocessing(self):
        from repro.engine import PreprocessingEntry

        engine = Engine(max_preprocessings=1)
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        doc_a, doc_b = balanced_slp("abab"), balanced_slp("aabb")
        assert engine.count(spanner, doc_a) == 2
        entry_a = engine._entry(spanner, doc_a, deterministic=True)
        assert isinstance(entry_a, PreprocessingEntry)
        assert entry_a.counting is not None
        engine.count(spanner, doc_b)  # evicts doc_a's entry (and its tables)
        stats = engine.cache_stats()
        assert stats["preprocessings"].size == 1
        assert stats["counting"].size == 1  # bounded together, no strays
        assert engine.count(spanner, doc_a) == 2  # rebuilds cleanly

    def test_enumerate_only_workload_reports_no_counting_tables(self):
        engine = Engine()
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        slp = balanced_slp("abab")
        list(engine.enumerate(spanner, slp))
        stats = engine.cache_stats()
        assert stats["preprocessings"].size == 1
        assert stats["counting"].size == 0  # no tables were ever built
        assert stats["counting"].misses == 0


class TestDocumentEvictionResilience:
    def test_prep_cache_survives_document_lru_thrash(self):
        # Regression: prep entries used to be keyed by id() of the derived
        # padded forms, so evicting a document from its (smaller) LRU
        # orphaned its prep entries and a repeat pass missed everything.
        engine = Engine(max_documents=3)
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        docs = [balanced_slp("ab" * (k + 1)) for k in range(6)]
        first = engine.count_corpus(spanner, docs)
        misses_after_first = engine.cache_stats()["preprocessings"].misses
        second = engine.count_corpus(spanner, docs)
        stats = engine.cache_stats()["preprocessings"]
        assert second == first
        assert stats.misses == misses_after_first  # pass 2 is all hits
        assert stats.size == len(docs)  # no orphaned duplicates

    def test_deterministic_padded_nfa_shares_one_prep_entry(self):
        # When the padded NFA is already deterministic, the NFA and DFA
        # tasks must share one cache entry instead of building the same
        # tables twice.
        engine = Engine()
        spanner = compile_spanner(r"(?P<x>a)", alphabet="a")
        slp = balanced_slp("a")
        assert engine._spanner(spanner).padded_nfa.is_deterministic
        engine.evaluate(spanner, slp)   # NFA path
        engine.count(spanner, slp)      # DFA path
        assert engine.cache_stats()["preprocessings"].size == 1

    def test_clear_caches_counts_evictions(self):
        engine = Engine()
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        engine.count(spanner, balanced_slp("abab"))
        engine.clear_caches()
        stats = engine.cache_stats()
        assert stats["preprocessings"].evictions == 1
        assert stats["counting"].evictions == 1

    def test_dropped_engine_is_freed_without_the_cycle_collector(self):
        # Regression: the eviction hook was a bound method, so engine ->
        # cache -> engine was a cycle and a dropped engine kept every
        # table it cached until the cyclic collector ran.
        engine = Engine()
        engine.count(compile_spanner(r".*(?P<x>ab).*", alphabet="ab"), balanced_slp("abab"))
        dropped = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert dropped() is None
        finally:
            gc.enable()

    def test_prep_hit_skips_spanner_repreparation(self):
        # Regression: a preprocessing-cache hit must not re-run the spanner
        # preparation chain after the spanner was evicted from its own LRU.
        engine = Engine(max_spanners=2)
        slp = balanced_slp("abab")
        spanners = make_spanners()  # 4 distinct > max_spanners
        first = engine.count_many(spanners, slp)
        spanner_misses = engine.cache_stats()["spanners"].misses
        second = engine.count_many(spanners, slp)
        assert second == first
        stats = engine.cache_stats()
        assert stats["spanners"].misses == spanner_misses  # no re-preparation
        assert stats["preprocessings"].size == len(spanners)

class TestStructuralKeys:
    def test_equal_grammars_share_one_entry(self):
        engine = Engine(structural_keys=True)
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        first, second = balanced_slp("abab"), balanced_slp("abab")
        assert first is not second and first.same_structure(second)
        assert engine.count(spanner, first) == engine.count(spanner, second) == 2
        stats = engine.cache_stats()
        assert stats["preprocessings"].size == 1
        assert stats["preprocessings"].hits >= 1
        assert stats["documents"].misses == 1  # prepared once, shared

    def test_key_mode_exposed_in_stats(self):
        for structural, expected in ((False, "identity"), (True, "structural")):
            engine = Engine(structural_keys=structural)
            for stats in engine.cache_stats().values():
                assert stats.key_mode == expected

    def test_structural_eviction_order_is_lru(self):
        # Regression for the structural-key path: eviction must follow
        # recency of *structural* use — touching an entry through a fresh
        # (but equal) SLP object must refresh it, and the key evicted must
        # be the least recently used digest, not the least recently seen
        # object.
        engine = Engine(structural_keys=True, max_preprocessings=2)
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
        doc_a, doc_b, doc_c = "abab", "aabb", "bbaa"
        engine.count(spanner, balanced_slp(doc_a))
        engine.count(spanner, balanced_slp(doc_b))
        # refresh A through a *different object* with the same structure
        engine.count(spanner, balanced_slp(doc_a))
        assert engine.cache_stats()["preprocessings"].hits == 1
        # C evicts the LRU entry, which must be B (A was refreshed)
        engine.count(spanner, balanced_slp(doc_c))
        assert engine.cache_stats()["preprocessings"].evictions == 1
        misses = engine.cache_stats()["preprocessings"].misses
        engine.count(spanner, balanced_slp(doc_a))  # still cached: hit
        assert engine.cache_stats()["preprocessings"].misses == misses
        engine.count(spanner, balanced_slp(doc_b))  # was evicted: rebuild
        assert engine.cache_stats()["preprocessings"].misses == misses + 1

    def test_results_match_identity_mode(self, compiled_patterns):
        identity, structural = Engine(), Engine(structural_keys=True)
        rng = random.Random(7)
        for pattern, alphabet in WELLFORMED_PATTERNS[:4]:
            nfa = compiled_patterns[pattern]
            slp = balanced_slp(random_doc(rng, alphabet, 8))
            assert structural.evaluate(nfa, slp) == identity.evaluate(nfa, slp)
            assert structural.count(nfa, slp) == identity.count(nfa, slp)
            assert structural.is_nonempty(nfa, slp) == identity.is_nonempty(nfa, slp)


class TestNondeterministicProbe:
    def test_nondeterministic_fallback_probe_not_counted_as_hit(self):
        # The silent probe of the NFA-keyed entry must not inflate the hit
        # rate or promote an unusable entry when a DFA has to be built.
        engine = Engine()
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")  # NFA ≠ DFA
        slp = balanced_slp("abab")
        engine.evaluate(spanner, slp)  # builds the NFA entry
        engine.count(spanner, slp)     # probes, rejects, builds the DFA entry
        stats = engine.cache_stats()["preprocessings"]
        assert stats.size == 2
        assert stats.misses == 2
        assert stats.hits == 0  # the rejected probe is not a hit
