"""Enumerating ``⟦M⟧(D)`` with delay ``O(|X| · depth(S))`` (Theorem 8.10).

After the Lemma 6.5 preprocessing (``O(|M| + size(S) · q^3)``) one
explicit-stack walk over its tables streams the relation.  Algorithm 1
(EnumAll) streams the (M,S₀)-trees of every ``j ∈ F'`` and ``k ∈ Ī_S0``,
and Lemma 8.5 streams each tree's yield; the walk fuses both, so every
result is one tree together with one element of its yield and no tree
object is ever built.  Its choices, taken in pre-order, are:

* the accepting state ``j ∈ F'``, ascending;
* at a triple ``A⟨i▹j⟩`` with ``R_A[i,j] = 1``, the intermediate state
  ``k ∈ I_A[i,j]``, ascending (EnumAll's inner nodes ``A⟨i▹k▹j⟩``);
* the left factor before the right;
* at a leaf triple with ``R = 1``, the entry of ``M_Tx[i,j]`` in sorted
  order (Lemma 8.5's terminal-leaves).

A triple with ``R_A[i,j] = ℮`` is an empty-leaf: it contributes nothing
and is not descended into.  Backtracking changes the most recent choice
first, so the stream is the canonical order of
:meth:`~repro.core.counting.RankedAccess.select` by construction.

Every descent ends in a result (a triple in ``I_A`` has non-``⊥``
children), so between two results the walk visits at most one (M,S)-tree,
whose size Lemma 8.4 bounds by ``4|X| · depth(S)``; this is the delay of
Lemma 8.9, ``O(|X| · log d)`` once the SLP is balanced.  The stack holds
one frame per triple on the current path that has an untried alternative,
so memory is ``O(|X| · depth(S))`` and deep grammars need no recursion.

Duplicate-freeness requires a *deterministic* automaton (Lemma 8.8).  For
NFAs the same procedure is still a correct enumeration but may repeat
results; pass ``deduplicate=True`` to suppress repeats with a hash set
(trading the constant-memory guarantee), or determinise up front.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import EvaluationError
from repro.slp.grammar import SLP
from repro.spanner.automaton import SpannerNFA
from repro.spanner.markers import Pairs, shift, to_span_tuple
from repro.spanner.spans import SpanTuple
from repro.spanner.transform import END_SYMBOL, pad_slp, pad_spanner

from repro.core.matrices import EMP, Preprocessing

#: A triple ``(name, i, j, offset)``: the nonterminal, its source and
#: target states, and the document position its derivation starts after.
Triple = Tuple[object, int, int, int]
#: The triples still to expand, left first, as a linked list
#: ``(triple, rest)``, so a frame saves the continuation in O(1).
Pending = Optional[Tuple[Triple, "Pending"]]


def enumerate_marker_sets(
    prep: Preprocessing,
    deduplicate: bool = False,
) -> Iterator[Pairs]:
    """Stream the marker sets of ``⟦M⟧(D)`` from a padded preprocessing.

    With a deterministic automaton the stream is duplicate-free by
    Lemmas 8.7/8.8; otherwise set ``deduplicate=True`` (or accept repeats).
    """
    if not prep.automaton.is_deterministic and not deduplicate:
        raise EvaluationError(
            "enumeration without duplicates needs a DFA (Lemma 8.8); "
            "determinize the automaton or pass deduplicate=True"
        )
    slp = prep.slp
    seen: Optional[Set[Pairs]] = set() if deduplicate else None
    for final in prep.final_states:
        pending: Pending = ((slp.start, prep.automaton.start, final, 0), None)
        # prefixes[-1] is the marker set collected so far; the leaves are
        # reached in document order, so it is a plain concatenation.
        prefixes: List[Pairs] = [()]
        # [alternatives, next index, triple, pending after it, len(prefixes)]
        frames: List[list] = []
        while True:
            while pending is not None:
                triple, pending = pending
                name, i, j, _ = triple
                if prep.r_value(name, i, j) == EMP:
                    continue  # an empty-leaf: M_name[i,j] = {∅}
                alternatives: Sequence[object]
                if slp.is_leaf(name):
                    alternatives = prep.leaf_entry(name, i, j)
                else:
                    alternatives = prep.intermediate_states(name, i, j)
                if len(alternatives) > 1:
                    frames.append([alternatives, 1, triple, pending, len(prefixes)])
                pending = _choose(slp, triple, alternatives[0], pending, prefixes)
            pairs = prefixes[-1]
            if seen is None:
                yield pairs
            elif pairs not in seen:
                seen.add(pairs)
                yield pairs
            if not frames:
                break
            frame = frames[-1]
            alternatives, index, triple, pending, size = frame
            if index + 1 < len(alternatives):
                frame[1] = index + 1
            else:
                frames.pop()
            del prefixes[size:]
            pending = _choose(slp, triple, alternatives[index], pending, prefixes)


def _choose(
    slp: SLP, triple: Triple, choice: object, pending: Pending, prefixes: List[Pairs]
) -> Pending:
    """Take one alternative at ``triple``; return the triples left to expand.

    A leaf's alternative is a marker set, appended to the prefix; an inner
    nonterminal's is the intermediate state ``k``, which queues its two
    factors, left first.
    """
    name, i, j, offset = triple
    if slp.is_leaf(name):
        if choice:
            prefixes.append(prefixes[-1] + shift(choice, offset))
        return pending
    left, right = slp.children(name)
    split = offset + slp.length(left)
    return ((left, i, choice, offset), ((right, choice, j, split), pending))


def enumerate_spanner(
    slp: SLP,
    automaton: SpannerNFA,
    end_symbol: str = END_SYMBOL,
    determinize: bool = True,
    deduplicate: Optional[bool] = None,
) -> Iterator[SpanTuple]:
    """Enumerate ``⟦M⟧(D)`` as span-tuples (Theorem 8.10).

    ``determinize=True`` (default) converts an NFA input to a DFA first —
    this only affects the preprocessing cost, never the delay, and makes
    the stream duplicate-free.  With ``determinize=False`` an NFA is run
    directly and ``deduplicate`` controls repeat suppression (defaults to
    True in that case).

    >>> from repro.slp.construct import balanced_slp
    >>> from repro.spanner.regex import compile_spanner
    >>> slp = balanced_slp("abcca")
    >>> spanner = compile_spanner(r"[bc]*(?P<x>a).*(?P<y>c+).*", alphabet="abc")
    >>> sorted(str(t) for t in enumerate_spanner(slp, spanner))
    ['SpanTuple(x=[1,2⟩, y=[3,4⟩)', 'SpanTuple(x=[1,2⟩, y=[3,5⟩)', 'SpanTuple(x=[1,2⟩, y=[4,5⟩)']
    """
    base = automaton.eliminate_epsilon()
    if determinize and not base.is_deterministic:
        base = base.determinize().trim()
        dedup = False if deduplicate is None else deduplicate
    else:
        dedup = (not base.is_deterministic) if deduplicate is None else deduplicate
    padded_slp = pad_slp(slp, end_symbol)
    padded_nfa = pad_spanner(base, end_symbol)
    prep = Preprocessing(padded_slp, padded_nfa)
    for pairs in enumerate_marker_sets(prep, deduplicate=dedup):
        yield to_span_tuple(pairs)
