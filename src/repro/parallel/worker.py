"""The worker process: hydrate an engine, drain shards, report results.

Each worker builds its *own* :class:`~repro.engine.engine.Engine` from a
picklable :class:`~repro.engine.spec.EngineConfig`.  With a shared store
directory the fleet cooperates through content addressing alone: the
first worker to need a (document digest, automaton digest) pair builds
the Lemma 6.5 tables and persists them; every later worker — in this run
or the next — restores them with the store's bulk word decode instead of
re-running the ``O(size(S) · q²)`` recurrence.

One entry point, :func:`worker_main`, serves both fleet lifetimes (a
per-call :meth:`~repro.parallel.pool.WorkerPool.run` and the service
daemon): the worker hydrates from the config alone and takes its
spanners and task with every shard, so a long-lived worker can serve
any request while a short-lived one runs exactly the same code.

Message protocol, parent → worker over the private task pipe:
``(shard, spanner_specs, task_spec)`` per dispatch, ``None`` to shut
down.  Worker → parent, over the private result pipe — one writer per
channel, so a crash can never wedge a sibling (see the
:mod:`repro.parallel.pool` docstring):

* ``("ready", wid)`` — hydration done, give me work;
* ``("done", wid, shard_id, [(item_index, payload), ...], metrics)`` — a
  shard's results, tagged with original item indices for ordered
  collection; ``metrics`` is the worker's *cumulative*
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, so the parent
  keeps the latest per worker and merges across workers;
* ``("error", wid, shard_id, traceback_text)`` — the shard raised; the
  worker survives and asks for more work, the parent re-queues the shard
  (capped).  ``shard_id`` is ``None`` when hydration itself failed; the
  worker then exits;
* ``("bye", wid, cache_stats, store_stats, metrics)`` — sentinel
  acknowledged; the per-worker stats ride home on the farewell message.

A worker that dies *without* a message (segfault, ``os._exit``, OOM
kill) is detected by the parent through EOF on this pipe (exit-code
polling as backstop); the shard it held is re-queued and the worker
replaced (see :class:`~repro.parallel.scheduler.FleetScheduler`).
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Optional

from repro.engine.spec import EngineConfig, SpannerSpec, TaskSpec
from repro.faults import FaultRule, fault_point, inject
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.slp import io as slp_io

from repro.parallel.sharding import Shard

#: The per-shard injection site of the worker loop: an armed
#: ``REPRO_FAULTS`` plan (inherited through the spawn environment) can
#: crash, hang, or fail a shard here, and the legacy ``fault_token``
#: shim below fires at the same site.
SHARD_FAULT_SITE = "worker.shard"


def maybe_inject_fault(token: Optional[str]) -> None:
    """Legacy per-shard fault tokens, now a shim over :mod:`repro.faults`.

    Two token forms survive for the scheduler/differential tests that
    carry faults per shard over the wire (``_shard_sleep`` /
    ``_fault_tokens``, gated by ``REPRO_SERVICE_TEST_FAULTS``):

    * ``"sleep:<seconds>"`` — a ``hang`` fault: stall this shard before
      running it (the deterministic slow-shard primitive);
    * ``"<path>:<n>"`` — a ``crash`` fault keyed by the file-backed
      attempt counter at ``<path>``: the process hard-exits
      (``os._exit``, no cleanup — exactly like a segfault) while at
      most ``n`` attempts have been made, so ``n`` larger than the
      pool's retry cap exercises the give-up path.

    New code should arm a ``REPRO_FAULTS`` plan instead — same kinds,
    same counters, addressable by site without plumbing tokens through
    the shard plan.  Production shards carry ``token=None`` and skip
    this entirely.
    """
    if token is None:
        return
    if token.startswith("sleep:"):
        rule = FaultRule(
            site=SHARD_FAULT_SITE,
            kind="hang",
            arg=float(token.partition(":")[2]),
        )
    else:
        path, _, bound = token.rpartition(":")
        rule = FaultRule(
            site=SHARD_FAULT_SITE, kind="crash", nth=int(bound), counter=path
        )
    inject(rule, SHARD_FAULT_SITE)


def run_shard(engine, resolved_spanners, task: TaskSpec, shard: Shard):
    """Evaluate every item of ``shard``, returning ``[(index, payload)]``.

    Repeated paths within a shard — ``parallel_many``'s one document
    under every spanner, exact-duplicate corpus files — are decoded
    once; reusing the *object* also lets identity-keyed engines share
    the prepared document across the shard.
    """
    payload = []
    loaded = {}  # path -> SLP, for the lifetime of this shard
    for item in shard.items:
        slp = loaded.get(item.path)
        if slp is None:
            slp = loaded[item.path] = slp_io.load_file(item.path)
        result = task.run(engine, resolved_spanners[item.spanner_id], slp)
        payload.append((item.index, result))
    return payload


def metrics_snapshot(engine):
    """This worker's registry snapshot, with engine cache stats folded in.

    Cache counters are *set* (not incremented) to the engine's cumulative
    values, so repeated snapshots stay cumulative per worker — the parent
    keeps only the latest snapshot per worker and sums across workers.
    """
    registry = get_registry()
    for layer, stats in engine.cache_stats().items():
        registry.counter(f"cache.{layer}.hits").value = stats.hits
        registry.counter(f"cache.{layer}.misses").value = stats.misses
        registry.counter(f"cache.{layer}.evictions").value = stats.evictions
        registry.gauge(f"cache.{layer}.size").set(stats.size)
    return registry.snapshot()


def _traced_shard(engine, resolved_spanners, task: TaskSpec, shard: Shard):
    """Run one shard under a ``worker.shard`` span parented to the
    request's :class:`~repro.obs.trace.TraceContext` (no-op untraced)."""
    registry = get_registry()
    started = time.monotonic()
    with get_tracer().span(
        "worker.shard",
        parent=task.trace,
        shard=shard.shard_id,
        pid=os.getpid(),
        task=task.task,
        items=len(shard.items),
    ):
        payload = run_shard(engine, resolved_spanners, task, shard)
    registry.counter("worker.shards_done").inc()
    registry.histogram("worker.shard_seconds").observe(time.monotonic() - started)
    return payload


#: Cap on the per-worker resolved-spanner cache (a daemon worker serves
#: arbitrarily many requests; compiled automata are small, but the cache
#: must not grow without bound forever).
MAX_RESOLVED_SPANNERS = 256


def _spec_cache_key(spec: SpannerSpec):
    """A value key for a spec: workers receive every spec as a *fresh*
    unpickled object, so identity cannot deduplicate repeats."""
    if spec.nfa is not None:
        return ("nfa", spec.nfa.structural_digest())
    return ("pattern", spec.pattern, spec.alphabet)


def worker_main(
    worker_id: int,
    task_conn,
    result_conn,
    config: EngineConfig,
) -> None:
    """Entry point of one worker process (module-level: spawn-safe).

    ``task_conn``/``result_conn`` are this worker's private pipe ends;
    the parent holds the opposite ends.  The worker hydrates its engine
    from ``config`` alone; the spanners and task arrive *per dispatch*
    — a task message is ``(shard, spanner_specs, task_spec)`` — and the
    worker resolves (and caches, by content) spanner specs as they
    appear.  The engine lives as long as the worker, so in a daemon
    fleet its document / spanner / preprocessing caches keep amortising
    work across requests.
    """
    try:
        engine = config.build()
    except BaseException:
        result_conn.send(("error", worker_id, None, traceback.format_exc()))
        return
    resolved = {}
    result_conn.send(("ready", worker_id))
    while True:
        try:
            message = task_conn.recv()
        except (EOFError, OSError):
            return  # parent went away: nothing useful left to do
        if message is None:
            result_conn.send(
                (
                    "bye",
                    worker_id,
                    engine.cache_stats(),
                    engine.store_stats(),
                    metrics_snapshot(engine),
                )
            )
            return
        shard, specs, task = message
        try:
            maybe_inject_fault(shard.fault_token)
            fault_point(SHARD_FAULT_SITE)
            spanners = []
            for spec in specs:
                key = _spec_cache_key(spec)
                nfa = resolved.get(key)
                if nfa is None:
                    if len(resolved) >= MAX_RESOLVED_SPANNERS:
                        resolved.clear()
                    nfa = resolved[key] = spec.resolve()
                spanners.append(nfa)
            payload = _traced_shard(engine, tuple(spanners), task, shard)
        except Exception:  # repro-check: broad-except — worker fault barrier: any shard failure becomes an error message, the worker survives
            result_conn.send(
                ("error", worker_id, shard.shard_id, traceback.format_exc())
            )
            continue
        result_conn.send(
            ("done", worker_id, shard.shard_id, payload, metrics_snapshot(engine))
        )


__all__ = [
    "maybe_inject_fault",
    "metrics_snapshot",
    "run_shard",
    "worker_main",
]
