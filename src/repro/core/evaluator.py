"""High-level facade: all four evaluation tasks behind one object.

:class:`CompressedSpannerEvaluator` bundles the paper's four tasks
(Sec. 1.3) for one (spanner, compressed document) pair, caching the padded
automata and the Lemma 6.5 preprocessing between calls:

=================  ==========================================  ============
task               method                                      paper
=================  ==========================================  ============
non-emptiness      :meth:`is_nonempty`                         Thm 5.1.1
model checking     :meth:`model_check`                         Thm 5.1.2
computation        :meth:`evaluate`                            Thm 7.1
enumeration        :meth:`enumerate` / :meth:`enumerate_raw`   Thm 8.10
=================  ==========================================  ============

The evaluator is a paper-named view over a private
:class:`repro.engine.Engine`: every method delegates on the stored pair,
so the padded forms, the Lemma 6.5 preprocessing and the counting tables
are built once per evaluator, through the same caching path every other
front end uses.  When many spanners query one document, one spanner runs
over a corpus, or hot pairs repeat, share one
:class:`~repro.engine.Engine` (or a :class:`~repro.session.Session`)
across them instead.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator

from repro.slp.grammar import SLP
from repro.spanner.automaton import SpannerNFA
from repro.spanner.markers import Pairs
from repro.spanner.spans import SpanTuple
from repro.spanner.transform import END_SYMBOL

from repro.core.matrices import Preprocessing


class CompressedSpannerEvaluator:
    """Evaluate one regular spanner over one SLP-compressed document.

    Parameters
    ----------
    spanner:
        A :class:`~repro.spanner.automaton.SpannerNFA` (or DFA) over
        ``Σ ∪ P(Γ_X)``, e.g. from
        :func:`~repro.spanner.regex.compile_spanner`.
    slp:
        The compressed document.
    balance:
        Rebalance the SLP to depth ``O(log d)`` first (Theorem 4.3 /
        DESIGN.md §3); this is what makes the enumeration delay
        logarithmic in the document length.  Default True.
    end_symbol:
        The padding sentinel (must not occur in the document or automaton).
    kernel:
        The bit-plane backend (:mod:`repro.core.kernels`):
        ``None``/``"auto"`` auto-detects, ``"python"``/``"numpy"`` select
        explicitly.  Backends are bit-identical; this is purely a
        performance choice.

    >>> from repro.slp.construct import balanced_slp
    >>> from repro.spanner.regex import compile_spanner
    >>> ev = CompressedSpannerEvaluator(
    ...     compile_spanner(r".*(?P<x>a+)b.*", alphabet="ab"),
    ...     balanced_slp("aabab"),
    ... )
    >>> ev.is_nonempty()
    True
    >>> sorted(str(t) for t in ev.evaluate())
    ['SpanTuple(x=[1,3⟩)', 'SpanTuple(x=[2,3⟩)', 'SpanTuple(x=[4,5⟩)']
    >>> ev.count()
    3
    """

    def __init__(
        self,
        spanner: SpannerNFA,
        slp: SLP,
        balance: bool = True,
        end_symbol: str = END_SYMBOL,
        kernel=None,
    ) -> None:
        from repro.engine.engine import Engine

        self.spanner = spanner
        self.end_symbol = end_symbol
        self._source = slp
        self._engine = Engine(balance=balance, end_symbol=end_symbol, kernel=kernel)
        self.kernel = self._engine.kernel
        # Balanced eagerly, as the evaluator always was: ``slp`` is part
        # of its public surface.  The engine caches the prepared forms.
        self.slp = self._engine._document(slp).balanced

    @property
    def padded_slp(self) -> SLP:
        return self._engine._document(self._source).padded

    @property
    def padded_nfa(self) -> SpannerNFA:
        return self._engine._spanner(self.spanner).padded_nfa

    @property
    def padded_dfa(self) -> SpannerNFA:
        return self._engine._spanner(self.spanner).padded_dfa

    def preprocessing(self, deterministic: bool = False) -> Preprocessing:
        """The Lemma 6.5 tables over the padded NFA or DFA (built once)."""
        return self._engine.preprocessing(self.spanner, self._source, deterministic)

    # -- the four tasks -------------------------------------------------

    def is_nonempty(self) -> bool:
        """``⟦M⟧(D) ≠ ∅`` in time ``O(|M| + size(S) · q^3)`` (Thm 5.1.1)."""
        return self._engine.is_nonempty(self.spanner, self._source)

    def model_check(self, span_tuple: SpanTuple) -> bool:
        """``t ∈ ⟦M⟧(D)`` in time ``O((size(S)+|X| depth(S)) q^3)`` (Thm 5.1.2)."""
        return self._engine.model_check(self.spanner, self._source, span_tuple)

    def evaluate(self) -> FrozenSet[SpanTuple]:
        """The full relation ``⟦M⟧(D)`` (Thm 7.1); works for NFAs directly."""
        return self._engine.evaluate(self.spanner, self._source)

    def enumerate(self) -> Iterator[SpanTuple]:
        """Stream ``⟦M⟧(D)`` with ``O(depth(S) · |X|)`` delay (Thm 8.10).

        Uses the determinised automaton so the stream is duplicate-free;
        determinisation affects only preprocessing, not the delay.
        """
        return self._engine.enumerate(self.spanner, self._source)

    def enumerate_raw(self) -> Iterator[Pairs]:
        """Like :meth:`enumerate` but yielding raw marker sets (no decoding)."""
        return self._engine.enumerate_raw(self.spanner, self._source)

    def count(self) -> int:
        """``|⟦M⟧(D)|`` exactly, *without* enumerating (counting extension).

        Uses the weighted-composition tables of :mod:`repro.core.counting`
        — ``O(size(S) · q^2)`` arithmetic operations even when the relation
        has ``10^12`` tuples.  (``sum(1 for _ in enumerate_raw())`` gives
        the same number the slow way.)
        """
        return self._engine.count(self.spanner, self._source)

    def ranked(self):
        """Ranked access (k-th result / slices) into ``⟦M⟧(D)``.

        Returns a :class:`repro.core.counting.RankedAccess` sharing the
        cached counting tables; see there for the canonical order
        guarantees.
        """
        return self._engine.ranked(self.spanner, self._source)

    def __repr__(self) -> str:
        return (
            f"CompressedSpannerEvaluator(doc_length={self.slp.length()}, "
            f"slp_size={self.slp.size}, spanner_states={self.spanner.num_states})"
        )
