"""The worker pool: a fleet of engine-hydrating worker processes.

Every worker owns a private pair of pipes — parent→worker for shard
dispatch, worker→parent for ``ready``/``done``/``error``/``bye``
messages (see :mod:`repro.parallel.worker`) — and the scheduler
multiplexes over all result pipes with
:func:`multiprocessing.connection.wait`.  Work is *pulled*: a shard is
only sent to a worker when it reports idle, so a slow shard never
blocks the rest of the plan behind it — the dynamic-queue equivalent of
work stealing, with the parent as the (cheap, message-only) steal
target.

Why pipes and not one shared ``multiprocessing.Queue``: a queue
multiplexes all writers over one pipe behind a cross-process lock held
by each sender's feeder thread.  A worker that dies *hard* (``os._exit``,
segfault, OOM kill) in the window between writing its message and
releasing that lock — a real window on a busy single-core box — leaves
the lock held forever and wedges every surviving worker's next ``put``.
With one pipe per worker there is exactly one writer per channel, no
lock to leak, and a crashed worker can only truncate its *own* stream —
which the parent additionally uses as a crash signal (EOF).

The pool owns processes and pipes; scheduling is the
:class:`~repro.parallel.scheduler.FleetScheduler`'s, whichever lifetime
the fleet has.  :meth:`WorkerPool.run` is the *per-call* lifetime: it
opens a scheduler over ``min(jobs, shards)`` workers, submits the plan
as one job, runs the scheduler's beats in the calling thread until the
job resolves, and tears the fleet down again — gracefully on success
(sentinels, farewell stats on the report) and *hard* on abnormal exit:
``KeyboardInterrupt`` or a failed job terminates every worker
immediately instead of waiting for goodbyes, so an interrupted run never
leaks processes.  The service daemon hands a plain pool to a scheduler
thread instead, which keeps it alive (and its workers' engine caches
warm) until :meth:`close`.  Pools are context managers — ``with
WorkerPool(...) as pool`` guarantees the fleet is gone on exit either
way.  Retries, the crash budget and the hung-shard watchdog are
described in :mod:`repro.parallel.scheduler`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing import connection
from typing import Dict, List, Optional, Sequence

from repro.engine.spec import EngineConfig, SpannerSpec, TaskSpec
from repro.errors import ParallelExecutionError

from repro.parallel.scheduler import (
    FleetScheduler,
    ParallelReport,
    aggregate_cache_stats,
    aggregate_store_stats,
)
from repro.parallel.sharding import Shard, ShardPlan
from repro.parallel.worker import worker_main

#: Environment override for the multiprocessing start method
#: (``fork`` where available — cheapest — else ``spawn``).
START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"


def default_start_method() -> str:
    env = os.environ.get(START_METHOD_ENV)
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class _Worker:
    """Parent-side handle: process, its two pipe ends, and its assignment."""

    __slots__ = ("wid", "process", "task_conn", "result_conn", "assigned", "ready")

    def __init__(self, wid, process, task_conn, result_conn) -> None:
        self.wid = wid
        self.process = process
        self.task_conn = task_conn  # parent writes shards / the sentinel
        self.result_conn = result_conn  # parent reads worker messages
        self.assigned: Optional[Shard] = None  # the shard it is running
        self.ready = False  # said "ready" at least once

    @property
    def idle(self) -> bool:
        """Hydrated and holding no shard: eligible for a dispatch."""
        return self.ready and self.assigned is None

    def send(self, message) -> bool:
        """Put one message on the task pipe; ``False`` if the worker died
        between messages (the caller re-queues, the reaper cleans up)."""
        try:
            self.task_conn.send(message)
        except (OSError, ValueError):
            return False
        return True

    def close(self) -> None:
        for conn in (self.task_conn, self.result_conn):
            try:
                conn.close()
            except OSError:
                pass


class WorkerPool:
    """A fleet of engine-hydrating workers executing shard plans.

    Parameters
    ----------
    jobs:
        Number of worker processes (:meth:`run` spawns at most one per
        shard).
    config:
        The :class:`EngineConfig` every worker hydrates from.  Share a
        ``store_dir`` to let workers (and later runs) reuse each other's
        preprocessing builds.
    max_retries:
        How many times one shard may fail (worker crash *or* in-worker
        exception) before its job fails.
    timeout:
        Wall-clock cap for one job (safety net for CI; ``None`` = no
        cap).
    shard_timeout:
        Hung-shard watchdog: the execution allowance, in seconds,
        granted to a *mean-cost* shard before the worker running it is
        killed and the shard retried (under the same ``max_retries``
        budget).  Costlier shards get proportionally longer; each
        failed attempt doubles the allowance, so a shard that is merely
        slow converges to completion instead of looping.  ``None`` (the
        default) disables the watchdog — only ``timeout`` then bounds a
        wedged worker.
    start_method:
        ``multiprocessing`` start method; default per
        :func:`default_start_method` / ``REPRO_PARALLEL_START_METHOD``.
    """

    def __init__(
        self,
        jobs: int,
        config: Optional[EngineConfig] = None,
        *,
        max_retries: int = 2,
        timeout: Optional[float] = None,
        shard_timeout: Optional[float] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.config = config if config is not None else EngineConfig()
        self.max_retries = max_retries
        self.timeout = timeout
        self.shard_timeout = shard_timeout
        self.start_method = start_method or default_start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        self._workers: Dict[int, _Worker] = {}
        self._next_wid = 0

    # -- what crosses to a worker ---------------------------------------

    def _worker_args(self) -> tuple:
        """``worker_main`` arguments after the pipe ends."""
        return (self.config,)

    def _shard_message(self, shard: Shard, spanners, task):
        """What goes down the task pipe for one shard dispatch."""
        return (shard, tuple(spanners), task)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()

    # -- lifecycle ------------------------------------------------------

    def run(
        self,
        plan: ShardPlan,
        spanners: Sequence[SpannerSpec],
        task: TaskSpec,
    ) -> ParallelReport:
        """Execute ``plan``; block until every item has a result."""
        scheduler = FleetScheduler(self)
        try:
            scheduler.open(min(self.jobs, max(1, len(plan.shards))))
            job = scheduler.submit(plan, spanners, task)
            while not job.done:
                scheduler.beat()
            report = job.future.result()  # raises the job's failure
            self.close(report)
            return report
        except BaseException:
            # A failed job or KeyboardInterrupt: terminate every worker
            # immediately, never wait the graceful goodbye window (this
            # is the Ctrl-C regression guard).
            self.abort()
            raise
        finally:
            scheduler.close()

    def close(self, report: Optional[ParallelReport] = None) -> None:
        """Gracefully release the fleet: sentinels, farewells, join.

        Each worker is sent the shutdown sentinel and given a bounded
        window to answer with its ``bye`` (whose per-worker stats are
        recorded on ``report`` when one is given); stragglers are then
        terminated.  Idempotent — closing an empty or already-closed
        pool is a no-op.
        """
        workers = self._workers
        alive = [w for w in workers.values() if w.process.exitcode is None]
        for worker in alive:
            worker.send(None)  # sentinel; a send to a dead worker is moot
        goodbye_deadline = time.monotonic() + 10.0
        waiting = {w.result_conn: w for w in alive}
        while waiting and time.monotonic() < goodbye_deadline:
            for conn in connection.wait(list(waiting), timeout=0.2):
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    del waiting[conn]
                    continue
                # Drain queued ready/done/error messages until the
                # farewell arrives: popping on the first message would
                # throw away the stats of any worker with backlog (e.g. a
                # replacement whose "ready" was never consumed).
                if message[0] == "bye":
                    _, wid, cache_stats, store_stats, metrics = message
                    if report is not None:
                        report.worker_cache_stats[wid] = cache_stats
                        report.worker_store_stats[wid] = store_stats
                        report.worker_metrics[wid] = metrics
                    del waiting[conn]
        for worker in workers.values():
            worker.process.join(timeout=5.0)
            if worker.process.exitcode is None:
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            worker.close()
        workers.clear()

    def abort(self) -> None:
        """Hard-stop the fleet: terminate every worker, reap, close pipes.

        The abnormal-exit path (``KeyboardInterrupt``, failed jobs,
        client errors): no sentinels, no farewell stats, no waiting on
        worker cooperation.  Idempotent.
        """
        workers = self._workers
        for worker in workers.values():
            if worker.process.exitcode is None:
                worker.process.terminate()
        for worker in workers.values():
            worker.process.join(timeout=5.0)
            if worker.process.exitcode is None:  # ignored SIGTERM
                worker.process.kill()
                worker.process.join(timeout=5.0)
            worker.close()
        workers.clear()

    # -- the scheduler's surface ----------------------------------------
    #
    # Thin, thread-unsafe accessors: exactly one thread drives a fleet
    # at a time (a scheduler thread, or run() beating inline).

    def spawn_worker(self) -> None:
        """Start one worker hydrating from ``self.config``."""
        wid = self._next_wid
        self._next_wid += 1
        task_rx, task_tx = self._ctx.Pipe(duplex=False)
        result_rx, result_tx = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(wid, task_rx, result_tx) + self._worker_args(),
            daemon=True,
            name=f"repro-parallel-{wid}",
        )
        process.start()
        # The parent must not keep the worker-side pipe ends open, or
        # EOF (our crash signal) would never fire on the result pipe.
        task_rx.close()
        result_tx.close()
        self._workers[wid] = _Worker(wid, process, task_tx, result_rx)

    def remove_worker(self, wid: int) -> None:
        """Forget a (dead) worker and close the parent-side pipe ends."""
        worker = self._workers.pop(wid, None)
        if worker is not None:
            worker.close()

    def connection_map(self) -> Dict[object, _Worker]:
        """``result_conn -> worker`` for :func:`connection.wait` loops."""
        return {w.result_conn: w for w in self._workers.values()}

    def idle_workers(self) -> List[_Worker]:
        """Hydrated workers holding no shard, in wid order."""
        return [w for w in self._workers.values() if w.idle]

    def _worker_snapshot(self) -> List[_Worker]:
        # One atomic-in-CPython copy, safe to iterate while the driving
        # thread reaps and respawns.
        return list(self._workers.values())


__all__ = [
    "ParallelExecutionError",
    "ParallelReport",
    "START_METHOD_ENV",
    "WorkerPool",
    "aggregate_cache_stats",
    "aggregate_store_stats",
    "default_start_method",
]
