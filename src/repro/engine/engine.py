"""The batch evaluation engine: one facade, shared work across queries.

Every front end reaches the paper's tasks through an :class:`Engine`: the
single-pair :class:`~repro.core.evaluator.CompressedSpannerEvaluator` is
a view over a private one, a :class:`~repro.session.Session` holds one
in process, and every parallel or daemon worker hydrates one.  It builds
the shared artifacts — the balanced/padded SLP, the ε-eliminated/
determinized/padded automaton and the Lemma 6.5
:class:`~repro.core.matrices.Preprocessing` tables — at most once each,
caching each in its own LRU, so that

* ``evaluate_many(spanners, slp)`` pads and balances the document once and
  reuses it across all spanners,
* ``evaluate_corpus(spanner, slps)`` ε-eliminates/determinizes/pads the
  automaton once and reuses it across all documents,
* repeating *the same* (spanner, document) pair hits the preprocessing
  cache and skips the dominant ``O(size(S) · q²)`` table build entirely.

Caches are keyed by object identity by default (see
:mod:`repro.engine.cache`): reuse the same ``SLP`` / ``SpannerNFA``
objects to share work.  ``Engine(structural_keys=True)`` switches every
layer to content-digest keys, so structurally equal grammars loaded twice
(e.g. the same document re-read from disk) share one entry.  With
``Engine(store=PreprocessingStore(dir))`` a cache miss additionally
consults the on-disk store before building, and writes freshly built
tables back — warm starts survive process restarts.  All four paper tasks
plus the counting/ranked-access extensions are exposed.
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)

from repro.slp.grammar import SLP
from repro.spanner.automaton import SpannerNFA
from repro.spanner.markers import Pairs, from_span_tuple, to_span_tuple
from repro.spanner.spans import SpanTuple
from repro.spanner.transform import END_SYMBOL

from repro.core.computation import compute_marker_sets
from repro.core.counting import CountingTables, RankedAccess
from repro.core.enumeration import enumerate_marker_sets
from repro.core.kernels import Kernel, resolve_kernel
from repro.core.matrices import Preprocessing
from repro.core.membership import slp_in_language
from repro.core.model_checking import splice_markers
from repro.core.prepared import PreparedDocument, PreparedSpanner

from repro.obs.metrics import TIME_BUCKETS, get_registry
from repro.obs.trace import get_tracer

from repro.engine.cache import (
    CacheStats,
    LRUCache,
    PreprocessingCache,
    PreprocessingEntry,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store -> core -> slp)
    from repro.store.prepstore import CountRows, PreprocessingStore, StoreStats


class Engine:
    """Batch spanner evaluation with cross-query work sharing.

    Parameters
    ----------
    balance:
        Rebalance documents to depth ``O(log d)`` on first use (same
        default as :class:`CompressedSpannerEvaluator`).
    end_symbol:
        The padding sentinel shared by all cached artifacts.
    max_documents / max_spanners / max_preprocessings:
        LRU capacities of the three cache layers.  A preprocessing entry is
        the big one (``O(size(S) · q²)`` words), so its capacity bounds the
        engine's memory footprint.
    structural_keys:
        Key every cache layer by content digest instead of object
        identity, so structurally equal grammars/automata loaded twice
        share one entry.  Costs one ``O(size)`` hash per *object* (cached
        on it), not per lookup.
    store:
        An optional :class:`~repro.store.prepstore.PreprocessingStore`.
        Cache misses consult it before building, and freshly built tables
        (plus counting tables, once built) are written back, so warm
        starts survive process restarts.  Works in both key modes — the
        store is always content-addressed.
    kernel:
        The bit-plane backend for every preprocessing this engine builds
        or restores (:mod:`repro.core.kernels`): ``None``/``"auto"``
        auto-detects (numpy when available), ``"python"``/``"numpy"``
        select explicitly, and a :class:`~repro.core.kernels.Kernel`
        instance is used as-is.  Backends are bit-identical; this is a
        performance choice only.

    >>> from repro.slp.construct import balanced_slp
    >>> from repro.spanner.regex import compile_spanner
    >>> engine = Engine()
    >>> slp = balanced_slp("aabab")
    >>> spanner = compile_spanner(r".*(?P<x>a+)b.*", alphabet="ab")
    >>> engine.count(spanner, slp)
    3
    >>> sorted(str(t) for t in engine.evaluate(spanner, slp))
    ['SpanTuple(x=[1,3⟩)', 'SpanTuple(x=[2,3⟩)', 'SpanTuple(x=[4,5⟩)']
    """

    def __init__(
        self,
        *,
        balance: bool = True,
        end_symbol: str = END_SYMBOL,
        max_documents: int = 64,
        max_spanners: int = 64,
        max_preprocessings: int = 128,
        structural_keys: bool = False,
        store: "Optional[PreprocessingStore]" = None,
        kernel: Union[str, Kernel, None] = None,
    ) -> None:
        self.balance = balance
        self.end_symbol = end_symbol
        self.structural_keys = structural_keys
        self.store = store
        self.kernel = resolve_kernel(kernel)
        key_mode = "structural" if structural_keys else "identity"
        self._documents = LRUCache(max_documents, key_mode=key_mode)
        self._spanners = LRUCache(max_spanners, key_mode=key_mode)
        # The eviction hook closes over a counter, not the engine: a bound
        # method would make engine -> cache -> engine a reference cycle,
        # and a dropped engine, with every table it caches, would then
        # wait for the cyclic garbage collector instead of being freed.
        counting_evictions = self._counting_evictions = [0]

        def on_evict(entry: PreprocessingEntry) -> None:
            if entry.counting is not None:
                counting_evictions[0] += 1

        self._preps = PreprocessingCache(
            max_preprocessings, on_evict=on_evict, key_mode=key_mode
        )
        self._counting_hits = 0
        self._counting_misses = 0

    # -- shared artifact lookups ----------------------------------------

    def _document_key(self, slp: SLP) -> Hashable:
        return slp.structural_digest() if self.structural_keys else id(slp)

    def _spanner_key(self, spanner: SpannerNFA) -> Hashable:
        return spanner.structural_digest() if self.structural_keys else id(spanner)

    def _document(self, slp: SLP) -> PreparedDocument:
        return self._documents.get_or_build(
            self._document_key(slp),
            lambda: PreparedDocument(slp, self.balance, self.end_symbol),
        )

    def _spanner(self, spanner: SpannerNFA) -> PreparedSpanner:
        return self._spanners.get_or_build(
            self._spanner_key(spanner),
            lambda: PreparedSpanner(spanner, self.end_symbol),
        )

    def _entry(
        self,
        spanner: SpannerNFA,
        slp: SLP,
        deterministic: bool,
        defer_store_save: bool = False,
    ) -> PreprocessingEntry:
        # Keyed by the *source* objects (pinned in the entry when identity-
        # keyed), not by the derived padded forms: evicting a document/
        # spanner from its own LRU must not orphan the preprocessing built
        # from it — a repeat query still hits here even after the prepared
        # forms were dropped.  Probe the cache before touching the prepared
        # artifacts, so a hit costs no spanner/document re-preparation.
        skey, dkey = self._spanner_key(spanner), self._document_key(slp)
        cached = self._preps.cached((skey, dkey, deterministic))
        if cached is not None:
            return cached
        if deterministic:
            # The pair may live under the NFA key when the padded automaton
            # was already deterministic (the keys are collapsed on build).
            # Inspect silently first: a nondeterministic entry is unusable
            # here and must not count as a hit or be promoted to MRU.
            alt_key = (skey, dkey, False)
            alt = self._preps.cached(alt_key, record_hit=False)
            if alt is not None and alt.prep.automaton.is_deterministic:
                return self._preps.cached(alt_key)  # real hit: count + promote

        span = self._spanner(spanner)
        if deterministic and span.padded_dfa is span.padded_nfa:
            deterministic = False  # already a DFA: share one cache entry

        restored_counts: List[CountRows] = []

        def build() -> Preprocessing:
            doc = self._document(slp)
            automaton = span.padded_dfa if deterministic else span.padded_nfa
            tracer = get_tracer()
            if self.store is not None:
                with tracer.span("engine.store_restore", kernel=self.kernel.name):
                    restored = self.store.load(
                        slp.structural_digest(),
                        automaton.structural_digest(),
                        doc.padded,
                        automaton,
                        kernel=self.kernel,
                    )
                if restored is not None:
                    prep, counts = restored
                    if counts is not None:
                        restored_counts.append(counts)
                    return prep
            registry = get_registry()
            started = time.monotonic()
            with tracer.span("engine.kernel_build", kernel=self.kernel.name):
                prep = Preprocessing(doc.padded, automaton, kernel=self.kernel)
            registry.counter("engine.prep_builds").inc()
            registry.histogram("engine.build_seconds", TIME_BUCKETS).observe(
                time.monotonic() - started
            )
            # A caller about to build counting tables defers this write:
            # it re-persists with the counts right away, so an immediate
            # counts-less write of the same full payload would be wasted.
            if self.store is not None and not defer_store_save:
                self.store.save(
                    slp.structural_digest(), automaton.structural_digest(), prep
                )
            return prep

        key = (skey, dkey, deterministic)
        pinned = () if self.structural_keys else (spanner, slp)
        entry = self._preps.entry_keyed(key, pinned, build)
        if restored_counts and entry.counting is None:
            entry.counting = CountingTables.from_rows(entry.prep, restored_counts[0])
        return entry

    def preprocessing(
        self, spanner: SpannerNFA, slp: SLP, deterministic: bool = False
    ) -> Preprocessing:
        """The (cached) Lemma 6.5 tables for the pair."""
        return self._entry(spanner, slp, deterministic).prep

    def _counting_tables(self, spanner: SpannerNFA, slp: SLP) -> CountingTables:
        # Stored on the preprocessing entry so both evict together and the
        # preprocessing cache's maxsize really bounds live table memory.
        entry = self._entry(spanner, slp, deterministic=True, defer_store_save=True)
        if entry.counting is None:
            self._counting_misses += 1
            entry.counting = CountingTables(entry.prep)
            if self.store is not None:
                # Persist tables and counts together so a restart restores
                # both in one read (the build above deferred its write).
                self.store.save(
                    slp.structural_digest(),
                    entry.prep.automaton.structural_digest(),
                    entry.prep,
                    entry.counting.rows,
                )
        else:
            self._counting_hits += 1
        return entry.counting

    # -- the four paper tasks -------------------------------------------

    def is_nonempty(self, spanner: SpannerNFA, slp: SLP) -> bool:
        """``⟦M⟧(D) ≠ ∅`` (Thm 5.1.1)."""
        doc = self._document(slp)
        return slp_in_language(
            doc.balanced, self._spanner(spanner).sigma, kernel=self.kernel
        )

    def model_check(
        self, spanner: SpannerNFA, slp: SLP, span_tuple: SpanTuple
    ) -> bool:
        """``t ∈ ⟦M⟧(D)`` (Thm 5.1.2)."""
        doc = self._document(slp)
        if not span_tuple.is_valid_for(doc.balanced.length()):
            return False
        spliced = splice_markers(doc.padded, from_span_tuple(span_tuple))
        return slp_in_language(
            spliced, self._spanner(spanner).padded_nfa, kernel=self.kernel
        )

    def evaluate(self, spanner: SpannerNFA, slp: SLP) -> FrozenSet[SpanTuple]:
        """The full relation ``⟦M⟧(D)`` (Thm 7.1)."""
        prep = self.preprocessing(spanner, slp, deterministic=False)
        return frozenset(to_span_tuple(pairs) for pairs in compute_marker_sets(prep))

    def enumerate(self, spanner: SpannerNFA, slp: SLP) -> Iterator[SpanTuple]:
        """Stream ``⟦M⟧(D)`` duplicate-free with logarithmic delay (Thm 8.10)."""
        for pairs in self.enumerate_raw(spanner, slp):
            yield to_span_tuple(pairs)

    def enumerate_raw(self, spanner: SpannerNFA, slp: SLP) -> Iterator[Pairs]:
        """Like :meth:`enumerate` but yielding raw marker sets."""
        return enumerate_marker_sets(
            self.preprocessing(spanner, slp, deterministic=True)
        )

    # -- counting / ranked-access extensions ----------------------------

    def count(self, spanner: SpannerNFA, slp: SLP) -> int:
        """``|⟦M⟧(D)|`` without enumerating."""
        return self._counting_tables(spanner, slp).total()

    def ranked(self, spanner: SpannerNFA, slp: SLP) -> RankedAccess:
        """Ranked access into ``⟦M⟧(D)`` (shares the counting tables)."""
        tables = self._counting_tables(spanner, slp)
        return RankedAccess(tables.prep, tables)

    # -- batch entry points ---------------------------------------------

    def evaluate_many(
        self, spanners: Iterable[SpannerNFA], slp: SLP
    ) -> List[FrozenSet[SpanTuple]]:
        """``[⟦M⟧(D) for M in spanners]`` sharing the padded/balanced document."""
        return [self.evaluate(spanner, slp) for spanner in spanners]

    def evaluate_corpus(
        self, spanner: SpannerNFA, slps: Iterable[SLP]
    ) -> List[FrozenSet[SpanTuple]]:
        """``[⟦M⟧(D) for D in slps]`` sharing the prepared automaton."""
        return [self.evaluate(spanner, slp) for slp in slps]

    def count_many(self, spanners: Iterable[SpannerNFA], slp: SLP) -> List[int]:
        """``[|⟦M⟧(D)| for M in spanners]`` sharing the document."""
        return [self.count(spanner, slp) for spanner in spanners]

    def count_corpus(self, spanner: SpannerNFA, slps: Iterable[SLP]) -> List[int]:
        """``[|⟦M⟧(D)| for D in slps]`` sharing the automaton."""
        return [self.count(spanner, slp) for slp in slps]

    # -- instrumentation -------------------------------------------------

    def cache_stats(self) -> Dict[str, CacheStats]:
        """Hit/miss/eviction counters of every cache layer.

        Counting tables live on the preprocessing entries (evicting
        together with them), so their size is the number of entries that
        actually hold tables, bounded by that layer's maxsize.
        """
        prep_stats = self._preps.stats
        return {
            "documents": self._documents.stats,
            "spanners": self._spanners.stats,
            "preprocessings": prep_stats,
            "counting": CacheStats(
                hits=self._counting_hits,
                misses=self._counting_misses,
                evictions=self._counting_evictions[0],
                size=sum(
                    1 for e in self._preps.entries() if e.counting is not None
                ),
                maxsize=prep_stats.maxsize,
                key_mode=prep_stats.key_mode,
            ),
        }

    def store_stats(self) -> "Optional[StoreStats]":
        """Hit/miss/reject/write counters of the on-disk store (or ``None``)."""
        return None if self.store is None else self.store.stats

    def clear_caches(self) -> None:
        """Drop every cached artifact (counters are kept)."""
        self._documents.clear()
        self._spanners.clear()
        self._preps.clear()

    def __repr__(self) -> str:
        stats = self.cache_stats()
        return (
            f"Engine(documents={stats['documents'].size}, "
            f"spanners={stats['spanners'].size}, "
            f"preprocessings={stats['preprocessings'].size}, "
            f"kernel={self.kernel.name})"
        )
