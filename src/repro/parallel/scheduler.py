"""The shard scheduler: many jobs, one fleet, one set of failure rules.

A :class:`FleetScheduler` multiplexes the shards of every admitted job
across one :class:`~repro.parallel.pool.WorkerPool` fleet.  It is the
only shard scheduler in the codebase, driven in two lifetimes:

* the service daemon calls :meth:`FleetScheduler.start`: a dedicated
  thread runs :meth:`beat` until :meth:`close`, over a fleet that lives
  as long as the daemon (its workers' engine caches staying warm);
* a per-call :meth:`WorkerPool.run <repro.parallel.pool.WorkerPool.run>`
  opens a scheduler over its own short-lived fleet, submits its plan as
  one job and runs beats *inline* in the calling thread until the job
  resolves.

Both therefore share dispatch, retries, the crash budget and the
hung-shard watchdog.  One beat is: expire → refill → dispatch →
watchdog → poll.

Scheduling discipline — weighted fair queueing over virtual time:

* every job carries a virtual time; dispatching one of its shards
  advances it by ``shard.cost / 2**priority``, so a job's share of the
  fleet is proportional to its priority weight;
* a newly admitted job joins at the scheduler's virtual clock (the
  last dispatch's start tag), so it competes immediately instead of
  queueing behind the backlog of earlier jobs — the fairness property
  the bench gate measures (small-query p50 during a big batch stays
  within a small multiple of idle latency);
* among jobs with pending shards, the lowest virtual time wins;
  admission order breaks ties.

Failure semantics:

* a worker that *raises* stays alive; its shard is re-queued against
  its job's retry budget (``max_retries`` per shard);
* a worker that *dies* is detected by EOF on its result pipe (exit-code
  polling as backstop); the shard it held is re-queued the same way and
  the fleet is refilled, so recovery works even with one worker;
* a worker that dies before its first ``ready`` is a hydration failure,
  charged to the fleet's crash budget: ``jobs + (max_retries + 1) ·
  shards`` over the shards admitted since a worker last became ready.
  The refill never spawns more unproven workers than the budget has
  left, so when it runs out every admitted job fails with a
  :class:`~repro.errors.ParallelExecutionError` carrying the worker's
  reported traceback, and the fleet stays down until the next admission
  widens the budget;
* the watchdog kills a worker whose shard is past its execution
  allowance (``shard_timeout``, scaled by the shard's cost and doubled
  per failed attempt); the kill surfaces as a crash like any other.

Tenant isolation — the part that makes one fleet safe to share:

* shards are re-tagged with globally unique ids at admission, so every
  worker message is attributable to exactly one job; late ``done`` /
  ``error`` messages from a cancelled or failed job are recognised and
  dropped instead of corrupting another tenant's bookkeeping;
* retry budgets are *per job*: a tenant whose spanner deterministically
  crashes its workers fails alone while every other job keeps running;
* admission is bounded (``max_pending_jobs`` fleet-wide,
  ``max_jobs_per_client`` per connection): past the bound, submission
  raises :class:`~repro.errors.ServiceBusyError` instead of queueing
  unbounded latency;
* jobs are cancellable mid-flight: pending shards are dropped
  immediately, the waiter is released with
  :class:`~repro.errors.JobCancelledError`, and any in-flight shard
  finishes as a no-op on arrival.

Threading contract: exactly one thread — the scheduler thread, or the
caller running beats inline — touches the fleet (spawn, reap, dispatch,
pipe reads).  Job bookkeeping is shared with submitter threads and is
guarded by one lock; :meth:`snapshot` serves the daemon's ``ping`` from
a copy refreshed on every job transition, before the job's waiter is
released.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from multiprocessing import connection
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.engine.cache import CacheStats
from repro.engine.spec import SpannerSpec, TaskSpec
from repro.errors import (
    DeadlineExceeded,
    JobCancelledError,
    ParallelExecutionError,
    ServiceBusyError,
    ServiceError,
)
from repro.faults import fault_point
from repro.obs.metrics import get_registry, merge_snapshots
from repro.obs.trace import get_tracer
from repro.parallel.sharding import Shard, ShardPlan
from repro.store.prepstore import StoreStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.pool import WorkerPool

#: Priorities outside this band are clamped: the weight is ``2**p``, and
#: a runaway exponent must not be able to freeze every other tenant.
PRIORITY_MIN = -8
PRIORITY_MAX = 8

#: Fallback cost for shards whose plan carries none: virtual time must
#: always advance, or one job could monopolise the fleet for free.
MIN_SHARD_COST = 1.0


def _debug(*parts) -> None:
    """Scheduler trace, enabled by ``REPRO_PARALLEL_DEBUG=1`` (stderr)."""
    if os.environ.get("REPRO_PARALLEL_DEBUG"):
        import sys

        print("[repro.parallel]", *parts, file=sys.stderr, flush=True)


def aggregate_cache_stats(
    per_worker: Sequence[Dict[str, CacheStats]]
) -> Dict[str, CacheStats]:
    """Sum per-worker engine cache stats layer-by-layer."""
    merged: Dict[str, CacheStats] = {}
    for stats in per_worker:
        for layer, s in stats.items():
            prev = merged.get(layer)
            if prev is None:
                merged[layer] = s
            else:
                merged[layer] = CacheStats(
                    hits=prev.hits + s.hits,
                    misses=prev.misses + s.misses,
                    evictions=prev.evictions + s.evictions,
                    size=prev.size + s.size,
                    maxsize=prev.maxsize + s.maxsize,
                    key_mode=s.key_mode,
                )
    return merged


def aggregate_store_stats(
    per_worker: Sequence[Optional[StoreStats]],
) -> Optional[StoreStats]:
    """Sum per-worker store counters (``None`` when no engine had a store)."""
    merged: Optional[StoreStats] = None
    for s in per_worker:
        if s is None:
            continue
        if merged is None:
            merged = StoreStats()
        merged.hits += s.hits
        merged.misses += s.misses
        merged.rejects += s.rejects
        merged.writes += s.writes
        merged.quarantined += s.quarantined
    return merged


@dataclass
class ParallelReport:
    """Everything one job produced: what its future resolves to.

    ``results[k]`` is the payload of work item ``k`` in the caller's
    original order.  ``retries``, ``workers_crashed`` and
    ``watchdog_kills`` count this job's shards only.  Stats are both
    kept per worker (diagnosis: is one worker cold?) and aggregated
    (headline hit rates for the whole fleet); a per-call pool fills the
    cache and store stats from its workers' farewells.
    """

    results: List[object]
    jobs: int
    shards: int
    retries: int = 0
    workers_crashed: int = 0
    watchdog_kills: int = 0
    worker_cache_stats: Dict[int, Dict[str, CacheStats]] = field(default_factory=dict)
    worker_store_stats: Dict[int, Optional[StoreStats]] = field(default_factory=dict)
    #: Latest cumulative registry snapshot per worker (see
    #: :func:`repro.obs.metrics.merge_snapshots` for the merge rules).
    worker_metrics: Dict[int, dict] = field(default_factory=dict)

    @property
    def cache_stats(self) -> Dict[str, CacheStats]:
        return aggregate_cache_stats(list(self.worker_cache_stats.values()))

    @property
    def store_stats(self) -> Optional[StoreStats]:
        return aggregate_store_stats(list(self.worker_store_stats.values()))

    @property
    def metrics(self) -> dict:
        """The fleet-wide merged metrics snapshot."""
        return merge_snapshots(list(self.worker_metrics.values()))


class Job:
    """One admitted grid evaluation: its shard queue and bookkeeping.

    Created by :meth:`FleetScheduler.submit`; waiters block on
    :attr:`future` (a :class:`concurrent.futures.Future`, bridgeable
    into asyncio with ``wrap_future``), which resolves to a
    :class:`ParallelReport` or raises the job's failure.
    """

    __slots__ = (
        "job_id",
        "tag",
        "client_id",
        "priority",
        "weight",
        "specs",
        "task",
        "num_items",
        "num_shards",
        "pending",
        "payloads",
        "retries",
        "retries_total",
        "crashes",
        "watchdog_kills",
        "vtime",
        "deadline",
        "client_deadline",
        "mean_cost",
        "cancel_on_disconnect",
        "future",
        "submitted_at",
        "queue_span",
    )

    def __init__(
        self,
        job_id: int,
        specs: Sequence[SpannerSpec],
        task: TaskSpec,
        num_items: int,
        *,
        priority: int = 0,
        tag: Optional[str] = None,
        client_id: Optional[int] = None,
        cancel_on_disconnect: bool = False,
        deadline: Optional[float] = None,
        client_deadline: Optional[float] = None,
    ) -> None:
        self.job_id = job_id
        self.tag = tag
        self.client_id = client_id
        self.priority = max(PRIORITY_MIN, min(PRIORITY_MAX, int(priority)))
        self.weight = 2.0 ** self.priority
        self.specs = tuple(specs)
        self.task = task
        self.num_items = num_items
        self.num_shards = 0  # set at admission, after re-tagging
        self.pending: Deque[Shard] = deque()
        self.payloads: Dict[int, List] = {}  # global shard id -> [(index, result)]
        self.retries: Dict[int, int] = {}  # global shard id -> attempts failed
        self.retries_total = 0
        self.crashes = 0  # workers this job's shards took down
        self.watchdog_kills = 0  # ... of which the watchdog killed
        self.vtime = 0.0
        #: ``deadline`` is the scheduler's safety net (the fleet's
        #: ``timeout``); ``client_deadline`` is the caller's latency
        #: contract (``deadline_ms`` on the wire) — they expire with
        #: different exception types, so the two slots stay separate.
        self.deadline = deadline
        self.client_deadline = client_deadline
        self.mean_cost = MIN_SHARD_COST  # set at admission, from the plan
        self.cancel_on_disconnect = cancel_on_disconnect
        self.future: "Future[ParallelReport]" = Future()
        self.submitted_at = time.monotonic()
        # Queue-time span: opened at admission when the task carries a
        # trace context, finished at this job's *first* shard dispatch —
        # so a trace separates time-waiting-for-the-fleet from time-on-it.
        self.queue_span = None
        if task.trace is not None:
            self.queue_span = get_tracer().begin(
                "scheduler.queue",
                parent=task.trace,
                job=job_id,
                tag=tag,
                priority=self.priority,
            )

    def finish_queue_span(self) -> None:
        if self.queue_span is not None:
            self.queue_span.finish()
            self.queue_span = None

    @property
    def done(self) -> bool:
        return self.future.done()


@dataclass
class SchedulerStats:
    """Monotonic counters, snapshotted into ``ping`` responses."""

    jobs_admitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_cancelled: int = 0
    jobs_rejected_busy: int = 0
    jobs_deadline_exceeded: int = 0
    shards_dispatched: int = 0
    shard_retries: int = 0
    workers_crashed: int = 0
    watchdog_kills: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class FleetScheduler:
    """Weighted-fair, cancellable, quota-bounded multiplexer of one
    :class:`~repro.parallel.pool.WorkerPool` fleet across concurrent
    jobs (see module doc).

    Retry, timeout and watchdog settings are the fleet's own
    (``max_retries``, ``timeout`` per job, ``shard_timeout``).
    """

    def __init__(
        self,
        fleet: "WorkerPool",
        *,
        max_pending_jobs: int = 32,
        max_jobs_per_client: int = 8,
    ) -> None:
        self.fleet = fleet
        self.max_pending_jobs = max_pending_jobs
        self.max_jobs_per_client = max_jobs_per_client
        self.max_retries = fleet.max_retries
        self.job_timeout = fleet.timeout
        self.shard_timeout = fleet.shard_timeout
        self._lock = threading.Lock()
        self._jobs: Dict[int, Job] = {}  # admitted, not yet resolved
        self._shard_owner: Dict[int, Job] = {}  # global shard id -> job
        #: Latest cumulative registry snapshot per worker ("done"
        #: messages carry them; merged on demand by :meth:`metrics`).
        self._worker_metrics: Dict[int, Dict[str, Any]] = {}
        #: Dispatch timestamps of in-flight shards (per-shard latency,
        #: and the watchdog's notion of how long a shard has been out).
        self._dispatched_at: Dict[int, float] = {}
        #: Shards whose worker the watchdog already killed: guards
        #: against double-kills between the kill and the EOF reap.
        self._watchdog_killed: set = set()
        #: Workers the fleet is kept at (set by :meth:`open`).
        self._strength = 0
        #: Crash budget state: workers that died before ``ready`` and
        #: shards admitted since a worker last became ready, plus the
        #: traceback the last of them reported.
        self._hydration_failures = 0
        self._budget_shards = 0
        self._hydration_error = ""
        self._next_job_id = 1
        self._next_shard_id = 0
        self._vclock = 0.0
        self._stats = SchedulerStats()
        #: Stat values already mirrored into the metrics registry: the
        #: registry counters are process-wide and must stay cumulative
        #: across the per-call schedulers of one process.
        self._mirrored: Dict[str, int] = {}
        self._snapshot: Dict[str, Any] = {}
        self._accepting = False
        self._stop = False
        self._thread: Optional[threading.Thread] = None
        # The wake pipe sits in the same connection.wait() as the worker
        # result pipes: submit/cancel poke it so the scheduler reacts
        # immediately instead of on its next poll tick.
        self._wake_rx, self._wake_tx = connection.Pipe(duplex=False)

    # -- lifecycle (caller threads) -------------------------------------

    def open(self, workers: Optional[int] = None) -> "FleetScheduler":
        """Spawn the fleet to ``workers`` (default: its ``jobs``) and
        start accepting jobs.  The caller then drives :meth:`beat`."""
        self._strength = self.fleet.jobs if workers is None else workers
        self._refill()
        with self._lock:
            self._accepting = True
            self._update_snapshot_locked()
        return self

    def start(self) -> "FleetScheduler":
        """Open the fleet and run beats on a scheduler thread (idempotent)."""
        if self._thread is not None:
            return self
        self.open()
        self._thread = threading.Thread(
            target=self._loop, name="repro-fleet-scheduler", daemon=True
        )
        self._thread.start()
        return self

    def close(self, timeout: float = 60.0) -> None:
        """Stop scheduling and release the fleet (idempotent).

        Outstanding jobs are failed with a shutting-down error and the
        fleet is closed gracefully (sentinels, bounded goodbye window).
        A wedged scheduler thread falls back to a hard fleet abort so
        shutdown stays bounded.
        """
        with self._lock:
            self._stop = True
        self._wake()
        thread = self._thread
        if thread is None:
            self._shutdown()
        else:
            thread.join(timeout=timeout)
            if thread.is_alive():  # pragma: no cover - defensive backstop
                self.fleet.abort()
                return
        self._wake_rx.close()
        self._wake_tx.close()

    # -- admission / cancellation (caller threads) ----------------------

    def submit(
        self,
        plan: ShardPlan,
        spanners: Sequence[SpannerSpec],
        task: TaskSpec,
        *,
        priority: int = 0,
        tag: Optional[str] = None,
        client_id: Optional[int] = None,
        cancel_on_disconnect: bool = False,
        deadline: Optional[float] = None,
    ) -> Job:
        """Admit one grid evaluation; returns its :class:`Job`.

        Raises :class:`ServiceBusyError` when admission would exceed
        ``max_pending_jobs`` or the client's ``max_jobs_per_client``
        quota — the job is *not* queued in that case.  ``deadline`` is
        the caller's latency budget in *seconds* (the wire carries
        ``deadline_ms``): past it the job fails with
        :class:`DeadlineExceeded` whether it is queued, between
        dispatches, or mid-shard.
        """
        fault_point("sched.admit")
        now = time.monotonic()
        job_deadline = (
            None if self.job_timeout is None else now + self.job_timeout
        )
        client_deadline = None if deadline is None else now + deadline
        with self._lock:
            if self._stop or not self._accepting:
                raise ServiceError("the scheduler is not accepting jobs (shutting down)")
            if len(self._jobs) >= self.max_pending_jobs:
                self._stats.jobs_rejected_busy += 1
                raise ServiceBusyError(
                    f"daemon at capacity: {len(self._jobs)} jobs admitted "
                    f"(max_pending_jobs={self.max_pending_jobs}); retry later"
                )
            if client_id is not None:
                mine = sum(
                    1 for j in self._jobs.values() if j.client_id == client_id
                )
                if mine >= self.max_jobs_per_client:
                    self._stats.jobs_rejected_busy += 1
                    raise ServiceBusyError(
                        f"client quota exhausted: {mine} jobs in flight "
                        f"(max_jobs_per_client={self.max_jobs_per_client}); "
                        "retry later"
                    )
            job = Job(
                self._next_job_id,
                spanners,
                task,
                plan.num_items,
                priority=priority,
                tag=tag,
                client_id=client_id,
                cancel_on_disconnect=cancel_on_disconnect,
                deadline=job_deadline,
                client_deadline=client_deadline,
            )
            self._next_job_id += 1
            # Re-tag shards with globally unique ids: worker messages for
            # dead jobs must stay attributable (and droppable) forever.
            for shard in plan.shards:
                sid = self._next_shard_id
                self._next_shard_id += 1
                tagged = replace(shard, shard_id=sid)
                job.pending.append(tagged)
                self._shard_owner[sid] = job
            job.num_shards = len(job.pending)
            if job.num_shards:
                job.mean_cost = max(
                    MIN_SHARD_COST, plan.total_cost / job.num_shards
                )
            job.vtime = self._vclock  # join *now*, not behind the backlog
            self._jobs[job.job_id] = job
            # New work widens the crash budget, which also re-arms the
            # refill of a fleet that spent it.
            self._budget_shards += job.num_shards
            self._stats.jobs_admitted += 1
            _debug(
                "scheduler admit job", job.job_id, "shards", job.num_shards,
                "priority", job.priority, "tag", tag, "client", client_id,
            )
            if job.num_shards == 0:  # empty grid: resolve immediately
                self._complete_job_locked(job)
            else:
                self._update_snapshot_locked()
        self._wake()
        return job

    def cancel(
        self,
        *,
        tag: Optional[str] = None,
        client_id: Optional[int] = None,
        on_disconnect: bool = False,
    ) -> int:
        """Cancel every matching unresolved job; returns how many.

        Matching is the conjunction of the given criteria; pass
        ``on_disconnect=True`` to additionally require the job to have
        opted into disconnect cancellation.
        """
        cancelled = 0
        with self._lock:
            for job in list(self._jobs.values()):
                if tag is not None and job.tag != tag:
                    continue
                if client_id is not None and job.client_id != client_id:
                    continue
                if on_disconnect and not job.cancel_on_disconnect:
                    continue
                self._stats.jobs_cancelled += 1
                self._resolve_locked(
                    job,
                    JobCancelledError(
                        f"job {job.job_id}"
                        + (f" (tag {job.tag!r})" if job.tag else "")
                        + " was cancelled"
                    ),
                )
                cancelled += 1
        if cancelled:
            self._wake()
        return cancelled

    def snapshot(self) -> Dict[str, Any]:
        """The latest scheduler-built status snapshot (for ``ping``).

        Taken under the scheduler lock, so it is internally consistent —
        never a torn read of a fleet mid-respawn.
        """
        with self._lock:
            return dict(self._snapshot)

    # -- job resolution (any thread, lock held) -------------------------

    def _resolve_locked(
        self, job: Job, outcome: Union[ParallelReport, BaseException]
    ) -> None:
        """Retire an unresolved job, then release its waiter.

        The job leaves the active set and its pending shards are
        dropped; the snapshot is refreshed *before* the future resolves,
        so a ``ping`` sent after the waiter returns sees the transition.
        In-flight shard ids stay in ``_shard_owner``: their late
        messages must still resolve to this (done) job to be dropped.
        """
        job.finish_queue_span()
        self._jobs.pop(job.job_id, None)
        while job.pending:
            shard = job.pending.popleft()
            self._shard_owner.pop(shard.shard_id, None)
        self._update_snapshot_locked()
        if isinstance(outcome, BaseException):
            job.future.set_exception(outcome)
        else:
            job.future.set_result(outcome)

    def _fail_job_locked(self, job: Job, exc: BaseException) -> None:
        self._stats.jobs_failed += 1
        self._resolve_locked(job, exc)

    def _complete_job_locked(self, job: Job) -> None:
        results: List[object] = [None] * job.num_items
        for payload in job.payloads.values():
            for index, result in payload:
                results[index] = result
        self._stats.jobs_completed += 1
        self._resolve_locked(
            job,
            ParallelReport(
                results=results,
                jobs=self._strength,
                shards=job.num_shards,
                retries=job.retries_total,
                workers_crashed=job.crashes,
                watchdog_kills=job.watchdog_kills,
                worker_metrics=dict(self._worker_metrics),
            ),
        )
        # The slow-query log: completed jobs land with their tenant tag,
        # so one tenant's q² blowup dragging the fleet is visible from
        # `stats --connect` without reading a full trace.
        elapsed = time.monotonic() - job.submitted_at
        registry = get_registry()
        registry.histogram("scheduler.job_seconds").observe(elapsed)
        registry.slow.record(
            f"job:{job.task.task}",
            elapsed,
            job=job.job_id,
            tag=job.tag,
            client=job.client_id,
            shards=job.num_shards,
            items=job.num_items,
            priority=job.priority,
        )

    def _fail_all_jobs_locked(self, exc: BaseException) -> None:
        for job in list(self._jobs.values()):
            self._fail_job_locked(job, exc)

    # -- the beat (scheduler thread / inline caller only) ---------------

    def beat(self, timeout: float = 0.1) -> None:
        """One scheduling round: expire → refill → dispatch → watchdog →
        poll (up to ``timeout`` seconds for worker messages)."""
        with self._lock:
            # Expire *before* dispatching: a job whose deadline already
            # passed must not get fleet time this beat.
            self._expire_locked()
        self._refill()
        with self._lock:
            self._dispatch_locked()
            self._watchdog_locked()
            self._update_snapshot_locked()
        self._poll(timeout)

    def _loop(self) -> None:
        try:
            while not self._stop:
                self.beat()
        finally:
            self._shutdown()

    def _shutdown(self) -> None:
        with self._lock:
            self._fail_all_jobs_locked(
                ServiceError("scheduler shutting down; job abandoned")
            )
        self.fleet.close()

    def _wake(self) -> None:
        try:
            self._wake_tx.send(None)
        except (OSError, ValueError):  # closing down
            pass

    def _crash_budget_locked(self) -> int:
        return self._strength + (self.max_retries + 1) * self._budget_shards

    def _refill(self) -> None:
        """Spawn the fleet back to strength, within the crash budget.

        Workers that have not yet said ``ready`` may still fail to
        hydrate, so no more of them are spawned than the budget has
        room for: a fleet that cannot hydrate stops respawning instead
        of looping, until an admission widens the budget.
        """
        with self._lock:
            workers = self.fleet._worker_snapshot()
            unproven = sum(1 for w in workers if not w.ready)
            room = (
                self._crash_budget_locked() - self._hydration_failures - unproven
            )
            missing = min(self._strength - len(workers), room)
        for _ in range(missing):
            self.fleet.spawn_worker()

    def _pick_job_locked(self) -> Optional[Job]:
        best: Optional[Job] = None
        for job in self._jobs.values():
            if not job.pending or job.done:
                continue
            if best is None or job.vtime < best.vtime:
                best = job  # ties: admission (dict) order wins
        return best

    def _dispatch_locked(self) -> None:
        for worker in self.fleet.idle_workers():
            job = self._pick_job_locked()
            if job is None:
                return
            shard = job.pending.popleft()
            self._vclock = max(self._vclock, job.vtime)
            job.vtime += max(shard.cost, MIN_SHARD_COST) / job.weight
            worker.assigned = shard
            _debug(
                "scheduler dispatch shard", shard.shard_id, "of job",
                job.job_id, "-> worker", worker.wid,
            )
            if not worker.send(
                self.fleet._shard_message(shard, job.specs, job.task)
            ):
                # Died between messages; the reaper attributes the crash.
                continue
            job.finish_queue_span()
            self._dispatched_at[shard.shard_id] = time.monotonic()
            self._stats.shards_dispatched += 1

    def _expire_locked(self) -> None:
        if not self._jobs:
            return
        now = time.monotonic()
        for job in list(self._jobs.values()):
            if job.client_deadline is not None and now > job.client_deadline:
                budget = job.client_deadline - job.submitted_at
                self._stats.jobs_deadline_exceeded += 1
                self._fail_job_locked(
                    job,
                    DeadlineExceeded(
                        f"job {job.job_id} exceeded its {budget:.3g}s deadline "
                        f"({len(job.payloads)}/{job.num_shards} shards done)"
                    ),
                )
                # The waiter is already released; reclaim the fleet time
                # its in-flight shards are still burning.
                self._kill_job_workers_locked(job)
            elif job.deadline is not None and now > job.deadline:
                self._fail_job_locked(
                    job,
                    ParallelExecutionError(
                        f"job {job.job_id} exceeded its "
                        f"{self.job_timeout}s timeout "
                        f"({len(job.payloads)}/{job.num_shards} shards done)"
                    ),
                )

    def _kill_job_workers_locked(self, job: Job) -> None:
        """Cancel a resolved job's in-flight shards by killing workers.

        Only called once the job's future is resolved: the results can
        never be used, so the workers running its shards are killed and
        replaced by the refill instead of burning fleet time other
        tenants could use.  Orphaned shard ids stay in ``_shard_owner``
        until the reap drops them, exactly like any late message.
        """
        for worker in self.fleet._worker_snapshot():
            shard = worker.assigned
            if shard is None or self._shard_owner.get(shard.shard_id) is not job:
                continue
            _debug(
                "scheduler deadline kill worker", worker.wid,
                "shard", shard.shard_id, "job", job.job_id,
            )
            try:
                worker.process.kill()
            except OSError:  # pragma: no cover - already gone
                pass

    def _watchdog_locked(self) -> None:
        """Kill workers whose shard is past its execution allowance.

        The allowance scales with the shard's planned cost relative to
        its job's mean (``shard.cost`` is the plan's cost model) and
        doubles with every prior failed attempt, so a legitimately slow
        shard eventually gets through while a truly wedged worker is
        killed, replaced, and its shard retried under the job's normal
        retry budget.
        """
        if self.shard_timeout is None:
            return
        now = time.monotonic()
        for worker in self.fleet._worker_snapshot():
            shard = worker.assigned
            if shard is None or shard.shard_id in self._watchdog_killed:
                continue
            started = self._dispatched_at.get(shard.shard_id)
            if started is None:
                continue
            job = self._shard_owner.get(shard.shard_id)
            allowance = self._shard_allowance_locked(job, shard)
            if now - started <= allowance:
                continue
            self._watchdog_killed.add(shard.shard_id)
            self._stats.watchdog_kills += 1
            if job is not None:
                job.watchdog_kills += 1
            get_registry().counter("sched.watchdog_kills").inc()
            _debug(
                "scheduler watchdog kill worker", worker.wid, "shard",
                shard.shard_id, "overdue", round(now - started, 3),
                "allowance", round(allowance, 3),
            )
            try:
                worker.process.kill()
            except OSError:  # pragma: no cover - already gone
                pass

    def _shard_allowance_locked(self, job: Optional[Job], shard: Shard) -> float:
        assert self.shard_timeout is not None
        scale = 1.0
        attempts = 0
        if job is not None:
            scale = max(1.0, max(shard.cost, MIN_SHARD_COST) / job.mean_cost)
            attempts = job.retries.get(shard.shard_id, 0)
        return self.shard_timeout * scale * (2.0 ** attempts)

    def _poll(self, timeout: float) -> None:
        conns = self.fleet.connection_map()
        waitables: List[object] = list(conns)
        waitables.append(self._wake_rx)
        for ready in connection.wait(waitables, timeout=timeout):
            if ready is self._wake_rx:
                try:
                    while self._wake_rx.poll():
                        self._wake_rx.recv()
                except (EOFError, OSError):  # pragma: no cover
                    pass
                continue
            worker = conns[ready]
            try:
                message = worker.result_conn.recv()
            except (EOFError, OSError):
                self._reap(worker)
                continue
            self._handle(worker, message)
        # Backstop for exotic deaths that leave the pipe open.
        for worker in list(self.fleet.connection_map().values()):
            if worker.process.exitcode is not None and not worker.result_conn.poll():
                self._reap(worker)

    def _handle(self, worker, message) -> None:
        kind = message[0]
        _debug("scheduler recv", kind, "from worker", worker.wid)
        if kind == "bye":  # pragma: no cover - close() drains these
            return
        with self._lock:
            if kind == "ready":
                # A hydrated worker proves the fleet healthy: the crash
                # budget restarts from the work still admitted.
                worker.ready = True
                self._hydration_failures = 0
                self._budget_shards = sum(
                    job.num_shards for job in self._jobs.values()
                )
            elif kind == "done":
                _, _, shard_id, payload, metrics = message
                worker.assigned = None
                self._worker_metrics[worker.wid] = metrics  # cumulative
                self._watchdog_killed.discard(shard_id)
                self._observe_shard_latency_locked(shard_id)
                job = self._shard_owner.pop(shard_id, None)
                if job is None or job.done:
                    _debug("scheduler drop late done for shard", shard_id)
                    return
                if shard_id not in job.payloads:  # a retry may double-report
                    job.payloads[shard_id] = payload
                if len(job.payloads) == job.num_shards:
                    self._complete_job_locked(job)
            elif kind == "error":
                _, _, shard_id, trace = message
                shard, worker.assigned = worker.assigned, None
                if shard is None:
                    # Hydration failed before "ready": keep the worker's
                    # traceback; the EOF reap that follows charges it.
                    self._hydration_error = trace
                    return
                self._dispatched_at.pop(shard.shard_id, None)
                self._watchdog_killed.discard(shard.shard_id)
                job = self._shard_owner.get(shard.shard_id)
                if job is None or job.done:
                    self._shard_owner.pop(shard.shard_id, None)
                    _debug("scheduler drop late error for shard", shard.shard_id)
                    return
                self._retry_shard_locked(job, shard, trace)

    def _observe_shard_latency_locked(self, shard_id) -> None:
        started = self._dispatched_at.pop(shard_id, None)
        if started is not None:
            get_registry().histogram("scheduler.shard_seconds").observe(
                time.monotonic() - started
            )

    def _retry_shard_locked(self, job: Job, shard: Shard, why: str) -> None:
        """Re-queue one failed shard against the job's own retry budget."""
        count = job.retries.get(shard.shard_id, 0) + 1
        job.retries[shard.shard_id] = count
        job.retries_total += 1
        self._stats.shard_retries += 1
        if count > self.max_retries:
            self._fail_job_locked(
                job,
                ParallelExecutionError(
                    f"shard {shard.shard_id} of job {job.job_id} failed "
                    f"{count} times (max_retries={self.max_retries}); "
                    f"last failure:\n{why}"
                ),
            )
            return
        job.pending.appendleft(shard)  # retry soon, at the job's own vtime

    def _reap(self, worker) -> None:
        """Remove a dead worker and charge its shard's job or, for a
        worker that never became ready, the fleet's crash budget.  The
        next beat's refill replaces it."""
        with self._lock:
            self.fleet.remove_worker(worker.wid)
            self._stats.workers_crashed += 1
            _debug(
                "scheduler reap worker", worker.wid,
                "exitcode", worker.process.exitcode,
            )
            if not worker.ready:
                self._hydration_failures += 1
                budget = self._crash_budget_locked()
                if self._hydration_failures >= budget:
                    self._fail_all_jobs_locked(
                        ParallelExecutionError(
                            f"{self._hydration_failures} workers died before "
                            f"becoming ready, spending the fleet's crash "
                            f"budget ({budget}); last failure:\n"
                            f"{self._hydration_error or '(no traceback captured)'}"
                        )
                    )
                return
            shard = worker.assigned
            if shard is None:
                return
            worker.assigned = None
            self._dispatched_at.pop(shard.shard_id, None)
            watchdogged = shard.shard_id in self._watchdog_killed
            self._watchdog_killed.discard(shard.shard_id)
            job = self._shard_owner.get(shard.shard_id)
            if job is None or job.done:
                self._shard_owner.pop(shard.shard_id, None)
                return
            job.crashes += 1
            if watchdogged:
                why = (
                    f"worker {worker.wid} was killed by the "
                    f"hung-shard watchdog: shard {shard.shard_id} "
                    f"exceeded its execution allowance "
                    f"(shard_timeout={self.shard_timeout}s)"
                )
            else:
                why = (
                    f"worker {worker.wid} died (exit code "
                    f"{worker.process.exitcode}) while running shard "
                    f"{shard.shard_id}"
                )
            self._retry_shard_locked(job, shard, why)

    def metrics(self) -> Dict[str, Any]:
        """The merged metrics view served by the ``metrics`` wire op.

        ``daemon`` is this process's registry (wire, scheduler, and —
        when the server evaluates in-process — engine metrics, plus the
        slow-query log); ``workers`` merges the latest cumulative
        snapshot of every fleet worker; ``combined`` folds both.
        """
        daemon = get_registry().snapshot()
        with self._lock:
            worker_snapshots = list(self._worker_metrics.values())
        workers = merge_snapshots(worker_snapshots)
        return {
            "daemon": daemon,
            "workers": workers,
            "combined": merge_snapshots([daemon, workers]),
        }

    def _update_snapshot_locked(self) -> None:
        queued = sum(len(j.pending) for j in self._jobs.values())
        # _shard_owner holds exactly the queued and in-flight shard ids
        # (completed ones are popped on arrival), so the difference is
        # what is on the workers right now — including orphaned shards
        # of cancelled jobs still draining.
        inflight = max(len(self._shard_owner) - queued, 0)
        stats = self._stats.as_dict()
        scheduler: Dict[str, Any] = {
            "active_jobs": len(self._jobs),
            "queued_shards": queued,
            "inflight_shards": inflight,
            "max_pending_jobs": self.max_pending_jobs,
            "max_jobs_per_client": self.max_jobs_per_client,
        }
        scheduler.update(stats)
        # Mirror the queue state and counters into the metrics registry:
        # gauges merge by max, so the merged view reports high-water
        # marks; counters advance by what changed since the last mirror.
        registry = get_registry()
        registry.gauge("scheduler.active_jobs").set(len(self._jobs))
        registry.gauge("scheduler.queued_shards").set(queued)
        registry.gauge("scheduler.inflight_shards").set(inflight)
        for name, value in stats.items():
            delta = value - self._mirrored.get(name, 0)
            if delta:
                registry.counter(f"scheduler.{name}").inc(delta)
                self._mirrored[name] = value
        # One exit-code read per worker: a worker that died but is not
        # yet reaped must not count as alive while listing its pid.
        alive = [
            w.process.pid
            for w in self.fleet._worker_snapshot()
            if w.process.exitcode is None
        ]
        self._snapshot = {
            "jobs": self.fleet.jobs,
            "alive": len(alive),
            "pids": alive,
            "scheduler": scheduler,
        }


__all__ = [
    "FleetScheduler",
    "Job",
    "PRIORITY_MAX",
    "PRIORITY_MIN",
    "ParallelReport",
    "SchedulerStats",
    "aggregate_cache_stats",
    "aggregate_store_stats",
]
