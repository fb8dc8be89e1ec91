"""Counting and ranked access: extensions implied by the paper's machinery.

The paper's Lemmas 6.8/6.9 and 8.7 say that, for a *deterministic*
automaton, every marker set ``Λ ∈ M_A[i,j]`` decomposes **uniquely** as
``Λ_B ⊗ Λ_C`` through **exactly one** intermediate state ``k``.  That
turns the set cardinalities into a clean recurrence::

    |M_A[i, j]|  =  Σ_{k ∈ I_A[i,j]}  |M_B[i, k]| · |M_C[k, j]|

which this module exploits for two tasks the paper does not spell out but
which follow directly from its data structures:

* :func:`count_results` — ``|⟦M⟧(D)|`` in ``O(size(S) · q^2)`` arithmetic
  operations, **without enumerating anything** (counts may be astronomically
  large; Python integers handle that);
* :class:`RankedAccess` — *ranked enumeration*: return the ``k``-th result
  (in a fixed canonical order) in ``O(depth(S) · q)`` time per query, i.e.
  random access into a relation that may have ``10^12`` tuples.

Both require the DFA preprocessing (counting over an NFA would multiple-
count tuples reachable along several runs).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import EvaluationError
from repro.slp.grammar import SLP
from repro.spanner.automaton import SpannerNFA
from repro.spanner.markers import Pairs, shift, to_span_tuple
from repro.spanner.spans import SpanTuple
from repro.spanner.transform import END_SYMBOL, pad_slp, pad_spanner

from repro.core.boolmat import bits_list
from repro.core.matrices import EMP, Preprocessing

Key = Tuple[object, int, int]


class CountingTables:
    """Per-(nonterminal, i, j) result counts ``|M_A[i,j]|`` (DFA only).

    Storage is :attr:`rows`: one flat ``i*q+j`` vector of Python ints per
    nonterminal (indexable in two array reads, no tuple hashing on the
    :meth:`count` hot path — ranked access issues one lookup per descent
    step).  The build is delegated to the preprocessing's kernel backend
    (:meth:`~repro.core.kernels.base.Kernel.build_counts`); every backend
    returns exact Python ints, since counts may be astronomically large.
    The rows are also what the preprocessing store persists and restores
    (:meth:`from_rows`); :attr:`counts` offers the ``{(name, i, j): count}``
    dict as a derived export view.
    """

    __slots__ = ("prep", "rows")

    def __init__(self, prep: Preprocessing) -> None:
        if not prep.automaton.is_deterministic:
            raise EvaluationError(
                "exact counting requires a DFA (Lemmas 6.9/8.7); determinize first"
            )
        self.prep = prep
        #: nonterminal -> flat row-major q·q vector of |M_A[i,j]|
        self.rows: Dict[object, List[int]] = prep.kernel.build_counts(prep)

    @property
    def counts(self) -> Dict[Key, int]:
        """``{(name, i, j): |M_A[i,j]|}`` over the notbot-set cells.

        A derived view (rebuilt per access) for export and cross-kernel
        comparison; consumers use :meth:`count` or :attr:`rows`.  The key
        set is exactly the cells whose ``notbot`` bit is set — the cells
        with a nonzero count.
        """
        prep = self.prep
        q = prep.q
        out: Dict[Key, int] = {}
        for name in prep.order:
            row = self.rows.get(name)
            if row is None:
                continue
            for i in range(q):
                base = i * q
                for j in bits_list(prep.notbot_row(name, i)):
                    out[(name, i, j)] = row[base + j]
        return out

    @classmethod
    def from_rows(
        cls, prep: Preprocessing, rows: Dict[object, List[int]]
    ) -> "CountingTables":
        """Adopt persisted per-name flat rows (no recompute).

        The restore hook of the preprocessing store: ``rows`` must have
        been built for a structurally identical preprocessing with matching
        nonterminal names.  The DFA requirement is still enforced.
        """
        if not prep.automaton.is_deterministic:
            raise EvaluationError(
                "exact counting requires a DFA (Lemmas 6.9/8.7); determinize first"
            )
        obj = cls.__new__(cls)
        obj.prep = prep
        obj.rows = rows
        return obj

    def count(self, name: object, i: int, j: int) -> int:
        row = self.rows.get(name)
        return row[i * self.prep.q + j] if row is not None else 0

    def total(self) -> int:
        """``|⟦M⟧(D)|`` (Lemma 6.3: sum over the accepting states)."""
        prep = self.prep
        return sum(
            self.count(prep.slp.start, prep.automaton.start, j)
            for j in prep.final_states
        )


class RankedAccess:
    """Random access into ``⟦M⟧(D)`` by rank (0-based, canonical order).

    The canonical order is: accepting state ``j`` (ascending), then
    intermediate state ``k`` (ascending), then recursively the rank within
    the left factor, then within the right factor.  It is a fixed total
    order, the same for every query — so ``select(0..total-1)`` enumerates
    the exact relation, and any slice of it can be fetched independently
    (e.g. for pagination or parallel processing).
    """

    __slots__ = ("prep", "tables")

    def __init__(
        self, prep: Preprocessing, tables: Optional[CountingTables] = None
    ) -> None:
        if tables is not None and tables.prep is not prep:
            raise EvaluationError("counting tables belong to a different preprocessing")
        self.prep = prep
        self.tables = CountingTables(prep) if tables is None else tables

    @property
    def total(self) -> int:
        return self.tables.total()

    def select(self, rank: int) -> Pairs:
        """The marker set with the given rank, in ``O(depth(S) · q)`` time."""
        if rank < 0:
            raise IndexError(f"rank {rank} out of range")
        prep = self.prep
        remaining = rank
        # final_states is sorted at Preprocessing construction, so this walk
        # matches the enumeration stream order exactly.
        for j in prep.final_states:
            bucket = self.tables.count(prep.slp.start, prep.automaton.start, j)
            if remaining < bucket:
                return self._select_in(
                    prep.slp.start, prep.automaton.start, j, remaining, 0
                )
            remaining -= bucket
        raise IndexError(f"rank {rank} out of range (total {self.total})")

    def select_tuple(self, rank: int) -> SpanTuple:
        """The ``rank``-th span-tuple."""
        return to_span_tuple(self.select(rank))

    def _select_in(
        self, name: object, i: int, j: int, rank: int, offset: int
    ) -> Pairs:
        """The rank-th element of ``M_name[i,j]``, shifted by ``offset``.

        Iterative left-first descent, so arbitrarily deep grammars are safe;
        parts come out in document order, making the result a plain
        concatenation (already canonically sorted).
        """
        prep = self.prep
        slp = prep.slp
        parts: List[Pairs] = []
        stack = [(name, i, j, rank, offset)]
        while stack:
            name, i, j, rank, offset = stack.pop()
            if prep.r_value(name, i, j) == EMP:
                # M_name[i,j] = {∅}: nothing to collect, prune the descent —
                # this is what keeps a select at O(|X| · depth(S)) instead
                # of walking the whole derivation tree.
                continue
            if slp.is_leaf(name):
                entries = prep.leaf_entry(name, i, j)
                part = entries[rank]
                if part:
                    parts.append(shift(part, offset))
                continue
            left, right = slp.children(name)
            split = slp.length(left)
            for k in prep.intermediate_states(name, i, j):
                right_count = self.tables.count(right, k, j)
                bucket = self.tables.count(left, i, k) * right_count
                if rank < bucket:
                    left_rank, right_rank = divmod(rank, right_count)
                    # push right first so the left factor is resolved first
                    stack.append((right, k, j, right_rank, offset + split))
                    stack.append((left, i, k, left_rank, offset))
                    break
                rank -= bucket
            else:
                raise IndexError(f"inconsistent counting tables at {name!r}")
        merged: Pairs = ()
        for part in parts:
            merged += part
        return merged

    def slice(self, start: int, stop: int) -> List[SpanTuple]:
        """``[select_tuple(r) for r in range(start, stop)]`` (bounds-checked)."""
        total = self.total
        if not 0 <= start <= stop <= total:
            raise IndexError(f"slice [{start}:{stop}] out of range (total {total})")
        return [self.select_tuple(rank) for rank in range(start, stop)]


def count_results(
    slp: SLP,
    automaton: SpannerNFA,
    end_symbol: str = END_SYMBOL,
    kernel=None,
) -> int:
    """``|⟦M⟧(D)|`` without enumeration (counting extension).

    >>> from repro.slp.families import power_slp
    >>> from repro.spanner.regex import compile_spanner
    >>> spanner = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
    >>> count_results(power_slp("ab", 40), spanner)   # ~10^12 results, exactly
    1099511627776
    """
    prep = _dfa_preprocessing(slp, automaton, end_symbol, kernel)
    return CountingTables(prep).total()


def ranked_access(
    slp: SLP,
    automaton: SpannerNFA,
    end_symbol: str = END_SYMBOL,
    kernel=None,
) -> RankedAccess:
    """Build a :class:`RankedAccess` for ``⟦M⟧(D)``.

    >>> from repro.slp.families import power_slp
    >>> from repro.spanner.regex import compile_spanner
    >>> spanner = compile_spanner(r"(a|b)*(?P<x>ab)(a|b)*", alphabet="ab")
    >>> ra = ranked_access(power_slp("ab", 40), spanner)
    >>> ra.select_tuple(123_456_789_012)["x"]   # random access into ~10^12 tuples
    [1952109677527,1952109677529⟩
    """
    return RankedAccess(_dfa_preprocessing(slp, automaton, end_symbol, kernel))


def _dfa_preprocessing(slp, automaton, end_symbol, kernel=None) -> Preprocessing:
    base = automaton.eliminate_epsilon()
    if not base.is_deterministic:
        base = base.determinize().trim()
    return Preprocessing(
        pad_slp(slp, end_symbol), pad_spanner(base, end_symbol), kernel=kernel
    )
