"""The service daemon: an asyncio unix-socket front-end over the fleet.

``repro-spanner serve --socket PATH`` runs a :class:`SpannerService`:
a long-lived asyncio server that owns a
:class:`~repro.parallel.pool.WorkerPool` of engine-hydrating workers,
driven by a :class:`~repro.parallel.scheduler.FleetScheduler` on its
own thread, and answers length-prefixed JSON requests
(:mod:`repro.service.protocol`) over a unix domain socket.  It is the
same scheduler a per-call ``WorkerPool.run`` drives inline — same
dispatch, retries, crash budget and watchdog — kept running for the
daemon's lifetime.  Because the daemon — and its fleet, and every
worker's engine caches, and the shared preprocessing store — survives
across CLI invocations and network callers, the expensive
``O(size(S) · q²)`` Lemma 6.5 preprocessing is paid once per daemon
lifetime instead of once per process.

Request handling is multi-tenant:

* **control ops** (``ping``, ``cancel``, ``shutdown``) are answered
  directly on the event loop — ``ping`` from the scheduler's
  lock-protected snapshot, never from live fleet internals;
* **``run``** is validated and planned on a small executor, then
  admitted to the scheduler, which interleaves its shards with every
  other admitted job (weighted-fair by priority, cancellable,
  quota-bounded — admission past the bound returns a structured
  ``busy`` frame instead of queueing);
* **``check``** runs on the executor against a parent-side engine.

Connections are *pipelined*: every request frame is served by its own
task, so one connection can have many jobs in flight, a second request
can cancel the first, and — crucially — the daemon notices a
disconnect immediately even while a job is running (jobs submitted
with ``cancel_on_disconnect`` are cancelled the moment their client
goes away).  A client that disconnects mid-job without opting in only
loses its response: the job completes, the write fails quietly, and
the daemon keeps serving.

A ``run`` request is sharded with the existing LPT planner
(digest-affinity grouping, grammar-size cost model) and executed by the
fleet; results return in row-major request order, bit-identical to the
serial engine (the differential harness enforces this end to end
through a real socket).
"""

from __future__ import annotations

import asyncio
import os
import socket as socket_module
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Set

from dataclasses import replace

from repro.engine.spec import TaskSpec
from repro.obs.metrics import get_registry
from repro.obs.trace import TraceContext, get_tracer
from repro.parallel.pool import WorkerPool
from repro.parallel.scheduler import FleetScheduler, ParallelReport
from repro.parallel.sharding import ShardPlan, grid_items, plan_shards
from repro.service import protocol
from repro.service.protocol import ProtocolError, ServiceBusyError, ServiceError
from repro.session import SessionConfig
from repro.slp import io as slp_io

#: Lower bound on shards per fleet worker (same rebalancing rationale
#: as the per-call pool: >1 so a long shard can be stolen around).
SHARDS_PER_JOB = 4

#: Upper bound on items per shard for daemon jobs.  Fine-grained shards
#: are what makes multi-tenant interleaving responsive: a small query
#: admitted during a big batch waits for at most one in-flight shard
#: per worker, so shard duration — not batch duration — bounds its
#: latency (the fairness bench gate measures exactly this).
MAX_ITEMS_PER_SHARD = 2

#: Environment gate for the test-only fault-injection request fields
#: (``_fault_tokens`` / ``_shard_sleep``): the scheduler tests and the
#: differential harness drive crash recovery and fairness through a
#: real daemon with them.  Never set in production.  The fields are a
#: legacy shim over :mod:`repro.faults` (the tokens fire at the
#: ``worker.shard`` site); daemon-wide fault schedules are armed with
#: ``REPRO_FAULTS`` instead, which spawned fleet workers inherit.
TEST_FAULTS_ENV = "REPRO_SERVICE_TEST_FAULTS"


class SpannerService:
    """One daemon: a unix-socket server plus its scheduled fleet."""

    #: How long :meth:`aclose` waits for in-flight requests to finish
    #: writing their responses before cancelling every connection
    #: (shutdown must stay bounded even with clients mid-job).
    shutdown_grace = 30.0

    def __init__(self, config: Optional[SessionConfig] = None) -> None:
        self.config = config if config is not None else SessionConfig()
        if self.config.trace is not None:
            # Daemon-side tracing: server and scheduler spans get a sink
            # even for clients that carry no trace context of their own
            # (workers get theirs via EngineConfig.trace_path).
            get_tracer().configure(self.config.trace)
        jobs = max(1, self.config.jobs)
        self.fleet = WorkerPool(
            jobs,
            self.config.engine_config(cross_process=True),
            max_retries=self.config.max_retries,
            timeout=self.config.timeout,
            shard_timeout=self.config.shard_timeout,
        )
        self.scheduler = FleetScheduler(
            self.fleet,
            max_pending_jobs=self.config.max_pending_jobs,
            max_jobs_per_client=self.config.max_jobs_per_client,
        )
        # Planning/validation/encoding only — evaluation itself is the
        # scheduler's, so this thread never serialises jobs behind each
        # other.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-aux"
        )
        self._engine = None  # lazy parent-side engine (check op)
        self._validated_specs: set = set()  # request validation cache
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._connections: Set[asyncio.Task] = set()
        self._inflight_requests: Set[asyncio.Task] = set()
        self._next_client_id = 1
        self.socket_path: Optional[str] = None
        self.started_at = time.monotonic()
        self.requests = 0
        self.jobs_run = 0

    # -- lifecycle ------------------------------------------------------

    async def start(self, socket_path: str) -> "SpannerService":
        """Bind the socket (owner-only) and start the scheduled fleet."""
        self._stop_event = asyncio.Event()
        self._reclaim_stale_socket(socket_path)
        self.scheduler.start()  # spawns the fleet
        try:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=socket_path
            )
            # Owner-only: the socket is the entire authentication boundary.
            os.chmod(socket_path, 0o600)
        except BaseException:
            # A failed bind (unwritable directory, over-long sun_path)
            # must not strand the just-spawned fleet in the host process.
            self.scheduler.close(timeout=10.0)
            raise
        self.socket_path = socket_path
        return self

    @staticmethod
    def _reclaim_stale_socket(socket_path: str) -> None:
        """Unlink a dead daemon's socket file; refuse a live one."""
        if not os.path.exists(socket_path):
            return
        probe = socket_module.socket(
            socket_module.AF_UNIX, socket_module.SOCK_STREAM
        )
        probe.settimeout(1.0)
        try:
            probe.connect(socket_path)
        except OSError:
            os.unlink(socket_path)  # stale: no one is listening
        else:
            raise ServiceError(
                f"another service is already listening on {socket_path}"
            )
        finally:
            probe.close()

    def request_stop(self) -> None:
        """Ask the serve loop to wind down (signal handlers, shutdown op)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop`, then release everything."""
        assert self._stop_event is not None, "start() first"
        await self._stop_event.wait()
        await self.aclose()

    async def aclose(self) -> None:
        """Stop accepting, drain in-flight requests, release the fleet.

        Shutdown is bounded by construction: in-flight requests get
        :attr:`shutdown_grace` seconds to finish writing, then every
        connection task is *cancelled* — on Python ≥ 3.12
        ``Server.wait_closed()`` waits for all open connection
        handlers, so an idle client holding its connection open would
        otherwise hang the daemon forever.
        """
        if self._server is not None:
            self._server.close()
            if self._inflight_requests:
                await asyncio.wait(
                    set(self._inflight_requests), timeout=self.shutdown_grace
                )
            for task in list(self._inflight_requests):
                task.cancel()
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(
                    *list(self._connections), return_exceptions=True
                )
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        # The graceful scheduler close (fail stragglers, fleet
        # sentinels + farewells) blocks; keep the loop responsive.
        await loop.run_in_executor(None, self.scheduler.close)
        self._executor.shutdown(wait=True)
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            self.socket_path = None

    # -- connection handling --------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        client_id = self._next_client_id
        self._next_client_id += 1
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        write_lock = asyncio.Lock()
        inflight: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    request = await protocol.read_frame(reader)
                except ProtocolError:
                    break  # garbage on the wire: drop this client only
                if request is None:
                    break  # clean EOF
                served = asyncio.create_task(
                    self._serve_request(request, writer, write_lock, client_id)
                )
                for tracker in (inflight, self._inflight_requests):
                    tracker.add(served)
                    served.add_done_callback(tracker.discard)
        except asyncio.CancelledError:
            # The daemon is shutting down with this connection still
            # open; end the handler quietly instead of letting the
            # cancellation surface as a loop-teardown error.
            pass
        finally:
            # The reader saw EOF (or shutdown): cancel this client's
            # opted-in jobs *now* — not after they burn fleet time.
            self.scheduler.cancel(client_id=client_id, on_disconnect=True)
            if inflight:
                await asyncio.gather(*list(inflight), return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            if task is not None:
                self._connections.discard(task)

    async def _serve_request(
        self, request: dict, writer, write_lock: asyncio.Lock, client_id: int
    ) -> None:
        """One pipelined request: dispatch, then write under the lock."""
        response = await self._dispatch(request, client_id)
        try:
            async with write_lock:
                await protocol.write_frame(writer, response)
        except ProtocolError as exc:
            # The *response* would not frame (e.g. a relation whose
            # encoding exceeds the frame cap): tell the client why
            # instead of silently dropping it.
            try:
                async with write_lock:
                    await protocol.write_frame(
                        writer,
                        protocol.error_response(request.get("id"), exc),
                    )
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client vanished mid-reply: the daemon survives

    async def _dispatch(self, request: dict, client_id: int) -> dict:
        self.requests += 1
        request_id = request.get("id")
        op = request.get("op")
        loop = asyncio.get_running_loop()
        try:
            if op == "ping":
                result = self._info()
            elif op == "run":
                result = await self._run(request, client_id)
            elif op == "check":
                result = await loop.run_in_executor(
                    self._executor, self._check, request
                )
            elif op == "cancel":
                result = self._cancel(request)
            elif op == "metrics":
                result = self._metrics()
            elif op == "shutdown":
                # Respond first, stop right after the reply is written.
                loop.call_soon(self.request_stop)
                result = {"stopping": True}
            else:
                raise ProtocolError(f"unknown op {op!r}")
        except ServiceBusyError as exc:
            return protocol.busy_response(request_id, exc)
        except Exception as exc:  # repro-check: broad-except — wire barrier: every failure goes on the wire as an error frame
            return protocol.error_response(request_id, exc)
        return protocol.ok_response(request_id, result)

    # -- evaluation ops -------------------------------------------------

    async def _run(self, request: dict, client_id: int) -> dict:
        """One (documents × spanners) grid through the scheduled fleet."""
        loop = asyncio.get_running_loop()
        # The optional `trace` frame field carries the client's context;
        # the server span opened here becomes the parent of the
        # scheduler's queue span and of every fleet worker's shard span
        # (its context rides to them inside TaskSpec.trace).
        ctx = TraceContext.from_wire(request.get("trace"))
        span = get_tracer().begin("service.run", parent=ctx, client=client_id)
        try:
            plan, specs, task = await loop.run_in_executor(
                self._executor, self._plan_grid, request
            )
            task = replace(task, trace=span.context())
            priority = request.get("priority", 0)
            if isinstance(priority, bool) or not isinstance(priority, int):
                raise ProtocolError(
                    f"'priority' must be an integer, got {priority!r}"
                )
            tag = request.get("tag")
            if tag is not None and not isinstance(tag, str):
                raise ProtocolError(f"'tag' must be a string, got {tag!r}")
            deadline_ms = request.get("deadline_ms")
            if deadline_ms is not None:
                if (
                    isinstance(deadline_ms, bool)
                    or not isinstance(deadline_ms, (int, float))
                    or deadline_ms <= 0
                ):
                    raise ProtocolError(
                        f"'deadline_ms' must be a positive number, "
                        f"got {deadline_ms!r}"
                    )
            job = self.scheduler.submit(
                plan,
                specs,
                task,
                priority=priority,
                tag=tag,
                client_id=client_id,
                cancel_on_disconnect=bool(
                    request.get("cancel_on_disconnect", False)
                ),
                deadline=None if deadline_ms is None else deadline_ms / 1000.0,
            )
            result = await asyncio.wrap_future(job.future)
            self.jobs_run += 1
            return await loop.run_in_executor(
                self._executor, self._encode_grid, task, result
            )
        finally:
            span.finish()

    def _plan_grid(self, request: dict):
        """Validate and shard one run request (aux-executor thread)."""
        paths = request["documents"]
        if not isinstance(paths, list):
            raise ProtocolError("'documents' must be a list of paths")
        specs = [protocol.decode_spanner(p) for p in request["spanners"]]
        limit = request.get("limit")
        if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int)):
            raise ProtocolError(f"'limit' must be an integer or null, got {limit!r}")
        task = TaskSpec(task=request.get("task", "evaluate"), limit=limit)
        # Fail a malformed request *here*, before fan-out: a bad limit,
        # bad pattern or missing file would otherwise raise in every
        # worker and burn the job's retry budget — a single bad client
        # request must never cost the fleet its time.
        for path in paths:
            if not os.path.exists(path):
                raise FileNotFoundError(f"no such document: {path}")
        for spec in specs:
            self._validate_spec(spec)
        items = grid_items(paths, len(specs))
        num_shards = max(
            self.fleet.jobs * SHARDS_PER_JOB,
            -(-len(items) // MAX_ITEMS_PER_SHARD),
        )
        plan = plan_shards(items, num_shards=num_shards)
        plan = self._maybe_inject_test_faults(request, plan)
        return plan, specs, task

    @staticmethod
    def _maybe_inject_test_faults(request: dict, plan: ShardPlan) -> ShardPlan:
        """Apply the test-only ``_fault_tokens`` / ``_shard_sleep`` fields.

        Gated on :data:`TEST_FAULTS_ENV` in the daemon's environment so
        no production daemon can be made to crash or stall its own
        workers over the wire.
        """
        tokens = request.get("_fault_tokens")
        sleep = request.get("_shard_sleep")
        if not tokens and sleep is None:
            return plan
        if not os.environ.get(TEST_FAULTS_ENV):
            raise ProtocolError(
                "fault injection fields require the daemon to run with "
                f"{TEST_FAULTS_ENV}=1"
            )
        mapping = {}
        if sleep is not None:
            mapping.update(
                {shard.shard_id: f"sleep:{float(sleep)}" for shard in plan.shards}
            )
        if tokens:
            mapping.update({int(k): str(v) for k, v in tokens.items()})
        return plan.with_fault_tokens(mapping)

    def _encode_grid(self, task: TaskSpec, result: ParallelReport) -> dict:
        return {
            "task": task.task,
            "results": [
                protocol.encode_result(task.task, value)
                for value in result.results
            ],
            "retries": result.retries,
            "workers_crashed": result.workers_crashed,
        }

    def _cancel(self, request: dict) -> dict:
        """Cancel every job carrying the given tag (any client's)."""
        tag = request.get("tag")
        if not isinstance(tag, str) or not tag:
            raise ProtocolError(f"'tag' must be a non-empty string, got {tag!r}")
        return {"cancelled": self.scheduler.cancel(tag=tag)}

    def _check(self, request: dict) -> bool:
        """Model checking runs on a parent-side engine: it needs the raw
        span tuple (outside the shard task protocol) and no Lemma 6.5
        tables, so shipping it to the fleet would buy nothing."""
        engine = self._parent_engine()
        slp = slp_io.load_file(request["document"])
        spanner = protocol.decode_spanner(request["spanner"]).resolve()
        tup = protocol.decode_span_tuple(request["tuple"])
        return bool(engine.model_check(spanner, slp, tup))

    def _parent_engine(self):
        if self._engine is None:
            self._engine = self.config.engine_config(cross_process=True).build()
        return self._engine

    def _validate_spec(self, spec) -> None:
        """Resolve a spanner spec once in the parent (cached by content).

        Raises the real compile error (e.g. ``RegexSyntaxError``) for the
        client instead of a worker-retry traceback, and guarantees the
        fleet only ever sees resolvable specs.
        """
        from repro.parallel.worker import MAX_RESOLVED_SPANNERS, _spec_cache_key

        key = _spec_cache_key(spec)
        if key in self._validated_specs:
            return
        spec.resolve()
        if len(self._validated_specs) >= MAX_RESOLVED_SPANNERS:
            self._validated_specs.clear()
        self._validated_specs.add(key)

    def _metrics(self) -> dict:
        """The merged observability view served by the ``metrics`` op."""
        view = self.scheduler.metrics()
        view["requests"] = self.requests
        view["jobs_run"] = self.jobs_run
        view["uptime"] = time.monotonic() - self.started_at
        view["pid"] = os.getpid()
        return view

    # -- introspection --------------------------------------------------

    def _info(self) -> dict:
        import repro

        # One consistent snapshot, built by the scheduler under its lock
        # — never a direct read of fleet internals while the scheduler
        # mutates them.
        snapshot = self.scheduler.snapshot()
        scheduler_info = snapshot.pop("scheduler", {})
        registry = get_registry()
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "version": repro.__version__,
            "pid": os.getpid(),
            "uptime": time.monotonic() - self.started_at,
            "socket": self.socket_path,
            "requests": self.requests,
            "jobs_run": self.jobs_run,
            "fleet": snapshot,
            "scheduler": scheduler_info,
            # A taste of the metrics subsystem rides on every ping (the
            # `metrics` op serves the full merged view): the three
            # slowest jobs so far, visible by tenant tag.
            "slow": registry.slow.snapshot()[:3],
            "config": self.config.summary(),
        }


def serve(
    config: Optional[SessionConfig],
    socket_path: str,
    *,
    install_signal_handlers: bool = True,
    announce=None,
) -> int:
    """Run a daemon until SIGINT/SIGTERM (the blocking CLI entry point).

    ``announce`` (a callable taking one line of text) is told when the
    socket is live — the CLI prints it so scripts can wait for
    readiness.  Returns 0 on a clean shutdown.
    """

    async def _main() -> None:
        service = SpannerService(config)
        await service.start(socket_path)
        if install_signal_handlers:
            import signal

            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, service.request_stop)
        if announce is not None:
            announce(
                f"repro service listening on {socket_path} "
                f"(pid {os.getpid()}, jobs {service.fleet.jobs})"
            )
        await service.serve_until_stopped()

    asyncio.run(_main())
    return 0


class ServiceThread:
    """A daemon on a background thread (tests, benchmarks, embedding).

    Runs the same :class:`SpannerService` the CLI runs, inside the
    current process, and exposes its socket path.  Context manager::

        with ServiceThread(SessionConfig(jobs=2), "/tmp/x.sock") as svc:
            session = connect(svc.socket_path)
    """

    def __init__(
        self, config: Optional[SessionConfig], socket_path: str, *,
        start_timeout: float = 60.0,
    ) -> None:
        self.config = config
        self.socket_path = socket_path
        self.start_timeout = start_timeout
        self.service: Optional[SpannerService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._failure: list = []

    def start(self) -> "ServiceThread":
        def runner() -> None:
            try:
                asyncio.run(self._main())
            except BaseException as exc:  # noqa: BLE001 - surfaced to starter
                self._failure.append(exc)
            finally:
                self._started.set()

        self._thread = threading.Thread(
            target=runner, daemon=True, name="repro-service"
        )
        self._thread.start()
        if not self._started.wait(self.start_timeout):
            raise ServiceError(
                f"service thread did not come up within {self.start_timeout}s"
            )
        if self._failure:
            raise ServiceError(
                f"service thread failed to start: {self._failure[0]!r}"
            ) from self._failure[0]
        return self

    async def _main(self) -> None:
        service = SpannerService(self.config)
        await service.start(self.socket_path)
        self.service = service
        self._loop = asyncio.get_running_loop()
        self._started.set()
        await service.serve_until_stopped()

    def stop(self, timeout: float = 60.0) -> None:
        """Stop the daemon and join the thread (idempotent)."""
        thread, loop, service = self._thread, self._loop, self.service
        if thread is None:
            return
        if thread.is_alive() and loop is not None and service is not None:
            try:
                loop.call_soon_threadsafe(service.request_stop)
            except RuntimeError:
                pass  # loop already closed (client-initiated shutdown)
        thread.join(timeout)
        if thread.is_alive():
            raise ServiceError("service thread did not stop in time")
        self._thread = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


__all__ = [
    "MAX_ITEMS_PER_SHARD",
    "SHARDS_PER_JOB",
    "ServiceThread",
    "SpannerService",
    "TEST_FAULTS_ENV",
    "serve",
]
