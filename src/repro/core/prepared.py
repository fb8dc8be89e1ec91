"""Lazily-prepared per-document and per-spanner artifacts.

:class:`~repro.engine.Engine` (and every front end over it, down to the
single-pair :class:`~repro.core.evaluator.CompressedSpannerEvaluator`)
runs this preparation chain before any Lemma 6.5 preprocessing:

* document side — balance the SLP (Theorem 4.3), then ``#``-pad it;
* spanner side — ε-eliminate, project to ``Σ`` (for non-emptiness),
  ``#``-pad, and determinize (for enumeration/counting).

This module is the single home of that chain; each step is computed at
most once per object, and the engine caches the objects.
"""

from __future__ import annotations

from typing import Optional

from repro.slp.balance import ensure_balanced
from repro.slp.grammar import SLP
from repro.spanner.automaton import SpannerNFA
from repro.spanner.transform import END_SYMBOL, pad_slp, pad_spanner

from repro.core.nonemptiness import project_to_sigma


class PreparedDocument:
    """A document SLP with its balanced and padded forms built on demand."""

    __slots__ = ("source", "balanced", "end_symbol", "_padded")

    def __init__(
        self, source: SLP, balance: bool = True, end_symbol: str = END_SYMBOL
    ) -> None:
        self.source = source
        self.balanced = ensure_balanced(source) if balance else source
        self.end_symbol = end_symbol
        self._padded: Optional[SLP] = None

    @property
    def padded(self) -> SLP:
        if self._padded is None:
            self._padded = pad_slp(self.balanced, self.end_symbol)
        return self._padded


class PreparedSpanner:
    """A spanner automaton with its derived forms built on demand."""

    __slots__ = ("source", "base", "end_symbol", "_sigma", "_padded_nfa", "_padded_dfa")

    def __init__(self, source: SpannerNFA, end_symbol: str = END_SYMBOL) -> None:
        self.source = source
        self.base = source.eliminate_epsilon()
        self.end_symbol = end_symbol
        self._sigma: Optional[SpannerNFA] = None
        self._padded_nfa: Optional[SpannerNFA] = None
        self._padded_dfa: Optional[SpannerNFA] = None

    @property
    def sigma(self) -> SpannerNFA:
        """The ``Σ``-projection of the ε-free base (for non-emptiness)."""
        if self._sigma is None:
            self._sigma = project_to_sigma(self.base)
        return self._sigma

    @property
    def padded_nfa(self) -> SpannerNFA:
        if self._padded_nfa is None:
            self._padded_nfa = pad_spanner(self.base, self.end_symbol)
        return self._padded_nfa

    @property
    def padded_dfa(self) -> SpannerNFA:
        if self._padded_dfa is None:
            nfa = self.padded_nfa
            self._padded_dfa = nfa if nfa.is_deterministic else nfa.determinize().trim()
        return self._padded_dfa
