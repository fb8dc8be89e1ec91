"""Sharded parallel execution: corpus/batch evaluation across processes.

The paper's complexity results make a *corpus* of SLP-compressed
documents embarrassingly parallel: every task runs in time polynomial in
``size(S)``, so once the automaton is prepared, documents are
independent units of work.  This subsystem ships that observation as
three layers:

* :mod:`repro.parallel.sharding` — partition a corpus of grammar files
  (in-memory SLPs are spilled to ``repro-slpb`` temp files) into
  size-balanced shards, using grammar size — read straight from the
  binary header — as the cost model, with digest affinity so duplicate
  documents land on one worker's in-memory cache (the only
  deduplication: Lemma 6.5 tables are built once per digest across the
  whole fleet, with no pass in the calling process);
* :mod:`repro.parallel.pool` / :mod:`repro.parallel.worker` — a
  :class:`WorkerPool` of ``multiprocessing`` workers, each hydrating its
  own ``Engine(store=..., structural_keys=True)`` over a shared store
  directory, so tables built by one call are restored by the next;
* :mod:`repro.parallel.scheduler` — the one shard scheduler, shared by
  per-call pools and the service daemon: dynamic pull-based dispatch,
  ordered result collection, per-worker stats aggregation, and crash
  recovery (a dead worker's shard is re-queued with capped retries and
  the worker replaced, within a fleet crash budget);
* :mod:`repro.parallel.api` — :func:`parallel_corpus`,
  :func:`parallel_many` and :func:`parallel_batch`, thin wrappers over
  the one grid runner that ``Session(jobs > 1)`` (and so
  ``repro batch --jobs N``) also uses, held bit-identical to the serial
  engine by the differential harness.

Typical use::

    from repro.parallel import parallel_corpus

    results = parallel_corpus(
        spanner, paths, task="count", jobs=8, store=".prep-store"
    )
"""

from repro.parallel.api import parallel_batch, parallel_corpus, parallel_many
from repro.parallel.pool import (
    ParallelExecutionError,
    ParallelReport,
    WorkerPool,
    aggregate_cache_stats,
    aggregate_store_stats,
)
from repro.parallel.sharding import (
    Shard,
    ShardPlan,
    WorkItem,
    as_paths,
    corpus_items,
    grammar_cost,
    grid_items,
    plan_shards,
    spill_corpus,
)

__all__ = [
    "ParallelExecutionError",
    "ParallelReport",
    "Shard",
    "ShardPlan",
    "WorkItem",
    "WorkerPool",
    "aggregate_cache_stats",
    "aggregate_store_stats",
    "as_paths",
    "corpus_items",
    "grammar_cost",
    "grid_items",
    "parallel_batch",
    "parallel_corpus",
    "parallel_many",
    "plan_shards",
    "spill_corpus",
]
