"""One-call entry points: sharded corpus/batch evaluation over processes.

The three functions mirror the serial batch API
(:func:`repro.engine.batch.evaluate_corpus` / ``evaluate_many`` /
``run_batch``) and return results in exactly the same order — the
differential harness holds them bit-identical — while executing on a
:class:`~repro.parallel.pool.WorkerPool`:

* :func:`parallel_corpus` — one spanner over a corpus of documents
  (paths or in-memory SLPs, which are spilled to ``repro-slpb`` temp
  files first);
* :func:`parallel_many` — many spanners over one document;
* :func:`parallel_batch` — the full (documents × spanners) grid,
  row-major like ``run_batch``.

All three are thin wrappers over one grid runner, which an in-process
``Session(jobs > 1)`` (and through it ``repro batch --jobs N``) calls
directly with its own :class:`~repro.engine.spec.EngineConfig`.

Deduplication is digest affinity alone, as on the daemon: the shard
planner never splits a ``(digest, spanner)`` group, so within one call
the worker that receives a group builds its Lemma 6.5 tables once and
serves every copy from memory.  Give every call the same ``store``
directory and later calls (and other processes) restore those tables
instead of building them.  The calling process reads only the
``repro-slpb`` header digests it plans shards by; it decodes no binary
grammar and builds nothing.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.engine.batch import batch_items_from_flat
from repro.engine.spec import EngineConfig, SpannerSpec, TaskSpec
from repro.obs.trace import get_tracer
from repro.slp.grammar import SLP
from repro.spanner.automaton import SpannerNFA

from repro.parallel.pool import ParallelReport, WorkerPool
from repro.parallel.sharding import WorkItem, as_paths, grid_items, plan_shards

Documents = Sequence[Union[str, SLP]]
Spanners = Sequence[Union[SpannerNFA, SpannerSpec]]

#: Shards per worker: >1 so the dynamic queue can actually rebalance when
#: one shard runs long (with exactly one shard per worker there is
#: nothing to steal).
SHARDS_PER_JOB = 4


def _spanner_items(paths: List[str], n_spanners: int) -> List[WorkItem]:
    """``parallel_many``'s items: one document, one item per spanner.

    Left without cost/digest annotations: every item shares the one
    document, so there is nothing to balance or deduplicate by it.
    """
    [path] = paths
    return [WorkItem(index=k, path=path, spanner_id=k) for k in range(n_spanners)]


def _run_grid(
    spanners: Spanners,
    documents: Documents,
    task: str,
    limit: Optional[int],
    config: EngineConfig,
    *,
    jobs: Optional[int] = None,
    max_retries: int = 2,
    timeout: Optional[float] = None,
    shard_timeout: Optional[float] = None,
    fault_tokens: Optional[Dict[int, str]] = None,
    items_of: Callable[[List[str], int], List[WorkItem]] = grid_items,
) -> ParallelReport:
    """Run ``task`` over ``items_of(paths, len(spanners))`` on one pool.

    The one place that spills in-memory documents, plans LPT shards
    and calls :meth:`WorkerPool.run` (exactly once).
    Every worker hydrates its engine from ``config``; a ``config``
    without a trace sink inherits this process's (so engine-internal
    worker spans trace even when the task carries no context).
    """
    specs = [SpannerSpec.of(sp) for sp in spanners]
    # The caller's active span (if any) rides inside the task, so worker
    # shard spans in other processes parent to it and share its sink.
    task_spec = TaskSpec(
        task=task, limit=limit, trace=get_tracer().current_context()
    )
    if config.trace_path is None:
        config = replace(config, trace_path=get_tracer().path)
    jobs = max(1, os.cpu_count() or 1) if jobs is None else jobs
    with tempfile.TemporaryDirectory(prefix="repro-spill-") as spill_dir:
        items = items_of(as_paths(documents, spill_dir), len(specs))
        plan = plan_shards(items, num_shards=jobs * SHARDS_PER_JOB)
        if fault_tokens:
            plan = plan.with_fault_tokens(fault_tokens)
        pool = WorkerPool(
            jobs,
            config,
            max_retries=max_retries,
            timeout=timeout,
            shard_timeout=shard_timeout,
        )
        return pool.run(plan, specs, task_spec)


def _config(
    store: Optional[str], structural_keys: bool, kernel: Optional[str]
) -> EngineConfig:
    return EngineConfig(
        store_dir=store, structural_keys=structural_keys, kernel=kernel
    )


def parallel_corpus(
    spanner: Union[SpannerNFA, SpannerSpec],
    documents: Documents,
    *,
    task: str = "evaluate",
    limit: Optional[int] = None,
    jobs: Optional[int] = None,
    store: Optional[str] = None,
    structural_keys: bool = True,
    kernel: Optional[str] = None,
    max_retries: int = 2,
    timeout: Optional[float] = None,
    shard_timeout: Optional[float] = None,
    report: bool = False,
    _fault_tokens: Optional[Dict[int, str]] = None,
):
    """``[task(M, D) for D in documents]`` across ``jobs`` processes.

    The parallel counterpart of
    :func:`repro.engine.batch.evaluate_corpus`: results come back in
    ``documents`` order, bit-identical to the serial engine (the
    differential harness enforces this).  ``documents`` may mix grammar
    file paths and in-memory SLPs; SLPs are spilled to ``repro-slpb``
    temp files so workers only ever receive paths.

    ``store`` (a directory path) is the fleet's shared preprocessing
    store: copies of one grammar share a shard, so the fleet builds
    each distinct digest's tables once and later calls restore them.
    ``report=True`` returns the full
    :class:`~repro.parallel.pool.ParallelReport` (aggregated cache/store
    stats, retry and crash counts) instead of the bare result list.  ``shard_timeout`` arms the pool's hung-shard
    watchdog (see :class:`~repro.parallel.pool.WorkerPool`).
    ``_fault_tokens`` is test-only crash injection (see
    :func:`repro.parallel.worker.maybe_inject_fault`); richer fault
    schedules live in :mod:`repro.faults` (``REPRO_FAULTS``).

    >>> import tempfile
    >>> from repro.slp.construct import balanced_slp
    >>> from repro.spanner.regex import compile_spanner
    >>> spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab")
    >>> docs = [balanced_slp(d) for d in ("abab", "bbbb", "aab")]
    >>> [len(r) for r in parallel_corpus(spanner, docs, jobs=2)]
    [2, 0, 1]
    """
    result = _run_grid(
        [spanner],
        documents,
        task,
        limit,
        _config(store, structural_keys, kernel),
        jobs=jobs,
        max_retries=max_retries,
        timeout=timeout,
        shard_timeout=shard_timeout,
        fault_tokens=_fault_tokens,
    )
    return result if report else result.results


def parallel_many(
    spanners: Spanners,
    document: Union[str, SLP],
    *,
    task: str = "evaluate",
    limit: Optional[int] = None,
    jobs: Optional[int] = None,
    store: Optional[str] = None,
    structural_keys: bool = True,
    kernel: Optional[str] = None,
    max_retries: int = 2,
    timeout: Optional[float] = None,
    shard_timeout: Optional[float] = None,
    report: bool = False,
):
    """``[task(M, D) for M in spanners]`` across ``jobs`` processes.

    The parallel counterpart of
    :func:`repro.engine.batch.evaluate_many`: one document, a shard plan
    over the spanners.  Every worker loads the document once and shares
    its balanced/padded forms across its shard through the engine's
    document cache.
    """
    result = _run_grid(
        spanners,
        [document],
        task,
        limit,
        _config(store, structural_keys, kernel),
        jobs=jobs,
        max_retries=max_retries,
        timeout=timeout,
        shard_timeout=shard_timeout,
        items_of=_spanner_items,
    )
    return result if report else result.results


def parallel_batch(
    spanners: Spanners,
    documents: Documents,
    *,
    task: str = "count",
    limit: Optional[int] = None,
    jobs: Optional[int] = None,
    store: Optional[str] = None,
    structural_keys: bool = True,
    kernel: Optional[str] = None,
    max_retries: int = 2,
    timeout: Optional[float] = None,
    shard_timeout: Optional[float] = None,
    report: bool = False,
):
    """The (documents × spanners) grid on a worker pool.

    Returns :class:`~repro.engine.batch.BatchItem` rows in the same
    row-major order as :func:`repro.engine.batch.run_batch` — documents
    outer, spanners inner.  Copies of one grammar under one spanner
    share a shard, so each such pair is built once per call, as in
    :func:`parallel_corpus`.  With ``report=True`` the return value is
    ``(items, ParallelReport)`` for fleet-level stats.
    """
    spanners = list(spanners)
    result = _run_grid(
        spanners,
        documents,
        task,
        limit,
        _config(store, structural_keys, kernel),
        jobs=jobs,
        max_retries=max_retries,
        timeout=timeout,
        shard_timeout=shard_timeout,
    )
    items = batch_items_from_flat(result.results, len(spanners), task)
    return (items, result) if report else items


__all__ = ["parallel_batch", "parallel_corpus", "parallel_many"]
