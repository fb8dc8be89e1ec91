"""Module-level batch helpers over a (possibly shared) :class:`Engine`.

These are the one-call entry points for the two batch shapes of the
ROADMAP: many spanners over one document, and one spanner over a corpus of
documents.  Each accepts an optional ``engine`` so repeated batches can
keep sharing caches; without one, a fresh engine lives for the single call
(which still shares work *within* the batch).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence

from repro.slp.grammar import SLP
from repro.spanner.automaton import SpannerNFA
from repro.spanner.spans import SpanTuple

from repro.engine.engine import Engine

#: Tasks understood by :func:`run_batch`.  The CLI ``batch`` subcommand
#: offers the printable subset (``enumerate``/``count``/``nonempty``);
#: ``evaluate`` returns the full relation as a frozenset and is library-only.
BATCH_TASKS = ("evaluate", "enumerate", "count", "nonempty")

#: The subset of :data:`BATCH_TASKS` the CLI exposes.  Derived (not
#: re-listed) so the two can never drift apart: ``evaluate`` returns a
#: frozenset of tuples with no printable form, the rest print naturally.
PRINTABLE_BATCH_TASKS = tuple(t for t in BATCH_TASKS if t != "evaluate")


def run_task(
    engine: Engine,
    task: str,
    spanner: SpannerNFA,
    slp: SLP,
    limit: Optional[int] = None,
) -> object:
    """Run one :data:`BATCH_TASKS` member on one (spanner, document) pair.

    The single dispatch point shared by :func:`run_batch` and the parallel
    workers (:mod:`repro.parallel`), so serial and sharded execution cannot
    diverge in task semantics.  An unknown ``task`` raises ``ValueError``
    — library callers get the same validation the CLI's argparse choices
    provide.  ``enumerate`` returns the first ``limit`` tuples in the
    canonical rank order; the rest of the stream holds no resources and
    is simply dropped.
    """
    if task not in BATCH_TASKS:
        raise ValueError(f"unknown batch task {task!r}; expected one of {BATCH_TASKS}")
    if task == "evaluate":
        return engine.evaluate(spanner, slp)
    if task == "enumerate":
        cap = limit if limit is None else max(limit, 0)
        return list(itertools.islice(engine.enumerate(spanner, slp), cap))
    if task == "count":
        return engine.count(spanner, slp)
    return engine.is_nonempty(spanner, slp)  # nonempty


def evaluate_many(
    spanners: Iterable[SpannerNFA],
    slp: SLP,
    engine: Optional[Engine] = None,
) -> List[FrozenSet[SpanTuple]]:
    """``[⟦M⟧(D) for M in spanners]``, padding/balancing ``D`` only once.

    >>> from repro.slp.construct import balanced_slp
    >>> from repro.spanner.regex import compile_spanner
    >>> spanners = [compile_spanner(p, alphabet="ab")
    ...             for p in (r".*(?P<x>ab).*", r".*(?P<x>a+)b.*")]
    >>> [len(r) for r in evaluate_many(spanners, balanced_slp("aabab"))]
    [2, 3]
    """
    return (engine or Engine()).evaluate_many(spanners, slp)


def evaluate_corpus(
    spanner: SpannerNFA,
    slps: Iterable[SLP],
    engine: Optional[Engine] = None,
) -> List[FrozenSet[SpanTuple]]:
    """``[⟦M⟧(D) for D in slps]``, preparing the automaton only once.

    >>> from repro.slp.construct import balanced_slp
    >>> from repro.spanner.regex import compile_spanner
    >>> spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
    >>> docs = [balanced_slp(d) for d in ("abab", "bbbb", "aab")]
    >>> [len(r) for r in evaluate_corpus(spanner, docs)]
    [2, 0, 1]
    """
    return (engine or Engine()).evaluate_corpus(spanner, slps)


@dataclass(frozen=True)
class BatchItem:
    """One (document, spanner) cell of a batch grid."""

    document_index: int
    spanner_index: int
    task: str
    result: object  # task-dependent: frozenset / list / int / bool


def batch_items_from_flat(
    results: Sequence[object], n_spanners: int, task: str
) -> List[BatchItem]:
    """Rebuild :class:`BatchItem` rows from a flat row-major result list.

    The inverse of the grid's ``doc_index * n_spanners + spanner_id``
    index convention (see
    :func:`repro.parallel.sharding.grid_items`); shared by
    ``parallel_batch`` and ``Session.batch`` so the reconstruction can
    never drift from the sharding.
    """
    return [
        BatchItem(index // n_spanners, index % n_spanners, task, payload)
        for index, payload in enumerate(results)
    ]


def run_batch(
    spanners: Sequence[SpannerNFA],
    slps: Sequence[SLP],
    task: str = "count",
    limit: Optional[int] = None,
    engine: Optional[Engine] = None,
) -> List[BatchItem]:
    """Run ``task`` for every (document, spanner) pair of the grid.

    ``task`` is one of :data:`BATCH_TASKS`; ``limit`` caps the number of
    tuples materialised per pair for ``enumerate`` (``None`` = all).
    Results come back row-major (documents outer, spanners inner), matching
    the CLI batch output order.
    """
    if task not in BATCH_TASKS:
        raise ValueError(f"unknown batch task {task!r}; expected one of {BATCH_TASKS}")
    eng = engine or Engine()
    items: List[BatchItem] = []
    for doc_index, slp in enumerate(slps):
        for span_index, spanner in enumerate(spanners):
            result = run_task(eng, task, spanner, slp, limit)
            items.append(BatchItem(doc_index, span_index, task, result))
    return items
