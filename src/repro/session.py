"""The unified ``Session`` API: one facade over every execution backend.

A :class:`Session` is configured once by a :class:`SessionConfig` and
is the one route from every front end (library callers, the CLI) to the
engine.  It sends each call to one of two pluggable backends with
identical result semantics (the differential harness holds them
bit-identical):

* the **in-process backend** (the default): a private
  :class:`~repro.engine.engine.Engine` serves single-pair calls and, at
  ``jobs == 1``, batch calls too; at ``jobs > 1`` corpus / many / batch
  calls run on a per-call :mod:`repro.parallel` worker pool whose
  workers hydrate from this session's own
  :meth:`SessionConfig.engine_config`, and :meth:`Session.stats` folds
  the fleet's cache and store counters in with the engine's;
* the **daemon backend** (``connect("path.sock")`` /
  ``SessionConfig(socket_path=...)``): every batch call is shipped as a
  length-prefixed JSON request over a unix socket to a long-lived
  ``repro-spanner serve`` daemon (:mod:`repro.service`), whose
  persistent worker fleet keeps engine caches warm *across* client
  processes — the ``O(size(S) · q²)`` preprocessing amortises over the
  daemon's lifetime, not one CLI invocation.

:class:`~repro.engine.engine.Engine` and the ``parallel_*`` functions
stay public as the low-level core (``from repro import Engine`` keeps
working); new code should start here.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from types import TracebackType
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Type,
    Union,
    cast,
)

from repro.engine.batch import BATCH_TASKS, BatchItem, batch_items_from_flat, run_task
from repro.engine.spec import EngineConfig, SpannerSpec
from repro.parallel.api import _run_grid
from repro.parallel.scheduler import aggregate_cache_stats, aggregate_store_stats
from repro.slp import io as slp_io
from repro.slp.grammar import SLP
from repro.spanner.automaton import SpannerNFA
from repro.spanner.spans import SpanTuple
from repro.spanner.transform import END_SYMBOL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.counting import RankedAccess
    from repro.engine.cache import CacheStats
    from repro.store.prepstore import StoreStats

#: Anything a session accepts as a document: an in-memory grammar or a
#: path to a ``.slp.json`` / ``.slpb`` file.
Document = Union[str, SLP]
#: Anything a session accepts as a spanner: a compiled automaton or a
#: picklable/JSON-able recipe.
Spanner = Union[SpannerNFA, SpannerSpec]


@dataclass(frozen=True)
class SessionConfig:
    """Every knob of a :class:`Session`, in one picklable value.

    Subsumes the old ``Engine`` constructor arguments (store, key mode,
    kernel, padding, cache capacities) *and* the parallel options
    (``jobs``, retries, timeout) *and* the backend selector
    (``socket_path``).

    ``structural_keys=None`` (the default) means *auto*: identity keys
    for a serial in-process engine (the cheapest correct choice when
    the caller reuses objects), content-digest keys whenever work
    crosses a process boundary (parallel jobs, the daemon fleet) —
    cross-process sharing only ever works through digests.  ``kernel``
    is a backend *name* (``None``/``"auto"``/``"python"``/``"numpy"``),
    never a live kernel object, so a config can cross process
    boundaries and every worker re-resolves it against its own
    environment.
    """

    store_dir: Optional[str] = None
    structural_keys: Optional[bool] = None
    balance: bool = True
    end_symbol: str = END_SYMBOL
    max_documents: int = 64
    max_spanners: int = 64
    max_preprocessings: int = 128
    kernel: Optional[str] = None
    jobs: int = 1
    max_retries: int = 2
    timeout: Optional[float] = None
    socket_path: Optional[str] = None
    #: Weighted-fair scheduling weight of this session's daemon jobs:
    #: each step doubles the job's share of the fleet (daemon backend
    #: only; clamped server-side).
    priority: int = 0
    #: Whether a daemon job submitted by this session should be
    #: abandoned the moment the submitting connection drops.  On by
    #: default: a dead client's job is pure wasted fleet time.
    cancel_on_disconnect: bool = True
    #: Cancellation tag attached to this session's daemon jobs: any
    #: client may later abort every matching job with
    #: ``ServiceClient.cancel(tag)`` (``repro-spanner cancel``).
    tag: Optional[str] = None
    #: Daemon-side admission bounds (serve-time config): how many jobs
    #: may be admitted fleet-wide / per client connection before new
    #: submissions are refused with a structured ``busy`` frame.
    max_pending_jobs: int = 32
    max_jobs_per_client: int = 8
    #: Path of a JSONL trace sink (``repro.obs``).  When set, every
    #: request opens a root span and the context propagates across the
    #: wire and into fleet workers, so one file collects the client,
    #: daemon and worker spans of a request.  ``None`` (the default)
    #: keeps the zero-overhead no-op path.
    trace: Optional[str] = None
    #: Per-request latency budget (daemon backend): every request this
    #: session ships carries ``deadline_ms`` on the wire, and a job
    #: still unfinished past it fails with
    #: :class:`~repro.service.protocol.DeadlineExceeded` (its in-flight
    #: shards are cancelled).  Distinct from ``timeout`` (the client
    #: socket I/O bound) and from the daemon's own ``job_timeout``
    #: safety net.  ``None`` means no deadline.
    deadline_ms: Optional[int] = None
    #: Hung-shard watchdog: the execution allowance, in seconds, granted
    #: to a mean-cost shard before the scheduler kills the worker running
    #: it and retries the shard elsewhere.  Costlier shards get
    #: proportionally longer; each failed attempt doubles the allowance.
    #: ``None`` (the default) disables the watchdog.
    shard_timeout: Optional[float] = None
    #: What a daemon-backed session does when the daemon cannot be
    #: reached (after the client's connect retries): ``"raise"`` (the
    #: default) surfaces :class:`~repro.service.protocol.\
    #: ServiceUnavailableError`; ``"fallback"`` degrades gracefully to a
    #: private in-process backend built from this same config (minus the
    #: socket), counting a ``session.fallbacks`` metric per degraded
    #: call.  Results are bit-identical either way — the differential
    #: harness holds the backends equal.
    on_unavailable: str = "raise"

    def resolved_structural_keys(self, cross_process: bool) -> bool:
        """The key mode after resolving the ``None`` = auto default."""
        if self.structural_keys is not None:
            return self.structural_keys
        return cross_process

    def engine_config(self, cross_process: bool = True) -> EngineConfig:
        """The :class:`EngineConfig` slice of this config."""
        return EngineConfig(
            store_dir=self.store_dir,
            structural_keys=self.resolved_structural_keys(cross_process),
            balance=self.balance,
            end_symbol=self.end_symbol,
            max_documents=self.max_documents,
            max_spanners=self.max_spanners,
            max_preprocessings=self.max_preprocessings,
            kernel=self.kernel,
            trace_path=self.trace,
        )

    def summary(self) -> Dict[str, object]:
        """A JSON-able digest (what the daemon reports on ``ping``)."""
        return {
            "store_dir": self.store_dir,
            "structural_keys": self.structural_keys,
            "kernel": self.kernel,
            "jobs": self.jobs,
            "balance": self.balance,
            "max_pending_jobs": self.max_pending_jobs,
            "max_jobs_per_client": self.max_jobs_per_client,
            "trace": self.trace,
            "shard_timeout": self.shard_timeout,
        }


def _resolve(spanner: Spanner) -> SpannerNFA:
    if isinstance(spanner, SpannerNFA):
        return spanner
    return SpannerSpec.of(spanner).resolve()


class _InProcessBackend:
    """A private engine, plus a per-call worker pool when ``jobs > 1``."""

    name = "in-process"

    def __init__(self, config: SessionConfig) -> None:
        self.config = config
        self.engine = config.engine_config(cross_process=False).build()
        # Counters of the per-call pools (jobs > 1), folded call by call.
        self._fleet_cache: Dict[str, "CacheStats"] = {}
        self._fleet_store: "Optional[StoreStats]" = None

    def load(self, document: Document) -> SLP:
        if isinstance(document, SLP):
            return document
        return slp_io.load_file(document)

    def single(
        self,
        task: str,
        spanner: Spanner,
        document: Document,
        limit: Optional[int] = None,
    ) -> object:
        return run_task(
            self.engine, task, _resolve(spanner), self.load(document), limit
        )

    def model_check(
        self, spanner: Spanner, document: Document, span_tuple: SpanTuple
    ) -> bool:
        return self.engine.model_check(
            _resolve(spanner), self.load(document), span_tuple
        )

    def ranked(self, spanner: Spanner, document: Document) -> "RankedAccess":
        return self.engine.ranked(_resolve(spanner), self.load(document))

    def enumerate(
        self, spanner: Spanner, document: Document, limit: Optional[int] = None
    ) -> Iterator[SpanTuple]:
        import itertools

        stream = self.engine.enumerate(_resolve(spanner), self.load(document))
        if limit is None:
            return stream
        # clamp like run_task does, so a negative limit means "nothing"
        # on every backend instead of an islice ValueError here only
        return itertools.islice(stream, max(limit, 0))

    def grid(
        self,
        spanners: Sequence[Spanner],
        documents: Sequence[Document],
        task: str,
        limit: Optional[int],
    ) -> List[object]:
        """Row-major (documents outer) results for the full grid."""
        from repro.obs.trace import get_tracer

        # Root span of the whole call; with jobs > 1 the grid runner
        # captures it as the current context, so worker shard spans in
        # other processes parent here (no-op when tracing is off).
        with get_tracer().span(
            "session.request",
            task=task,
            documents=len(documents),
            spanners=len(spanners),
        ):
            if self.config.jobs > 1:
                return self._fleet_grid(spanners, documents, task, limit)
            resolved = [_resolve(sp) for sp in spanners]
            results: List[object] = []
            for document in documents:
                slp = self.load(document)
                for spanner in resolved:
                    results.append(
                        run_task(self.engine, task, spanner, slp, limit)
                    )
            return results

    def _fleet_grid(
        self,
        spanners: Sequence[Spanner],
        documents: Sequence[Document],
        task: str,
        limit: Optional[int],
    ) -> List[object]:
        """The grid on a per-call worker pool built from this config."""
        report = _run_grid(
            spanners,
            documents,
            task,
            limit,
            self.config.engine_config(cross_process=True),
            jobs=self.config.jobs,
            max_retries=self.config.max_retries,
            timeout=self.config.timeout,
            shard_timeout=self.config.shard_timeout,
        )
        self._fleet_cache = aggregate_cache_stats(
            [self._fleet_cache, report.cache_stats]
        )
        self._fleet_store = aggregate_store_stats(
            [self._fleet_store, report.store_stats]
        )
        return report.results

    def stats(self) -> Dict[str, object]:
        """The engine's cache/store counters, folded with every pool's."""
        return {
            "backend": self.name,
            "cache": aggregate_cache_stats(
                [self.engine.cache_stats(), self._fleet_cache]
            ),
            "store": aggregate_store_stats(
                [self.engine.store_stats(), self._fleet_store]
            ),
        }

    def close(self) -> None:
        pass  # nothing held beyond the engine's (garbage-collected) caches


class _DaemonBackend:
    """A client of a long-lived ``repro-spanner serve`` daemon."""

    name = "daemon"

    def __init__(self, config: SessionConfig) -> None:
        from repro.service.client import ServiceClient

        self.config = config
        self.client = ServiceClient(config.socket_path, timeout=config.timeout)
        # Built lazily, and only when on_unavailable == "fallback" and a
        # call actually hits an unreachable daemon.
        self._fallback_backend: Optional[_InProcessBackend] = None
        if config.trace is not None:
            from repro.obs.trace import get_tracer

            get_tracer().configure(config.trace)

    def _fallback(self) -> _InProcessBackend:
        """The graceful-degradation backend (``on_unavailable="fallback"``).

        A private in-process backend over the same config minus the
        socket: same store, same kernel, same key mode resolution —
        results stay bit-identical to the daemon's, only the cache
        warmth differs.  Each degraded call bumps ``session.fallbacks``.
        """
        from repro.obs.metrics import get_registry

        get_registry().counter("session.fallbacks").inc()
        if self._fallback_backend is None:
            self._fallback_backend = _InProcessBackend(
                replace(self.config, socket_path=None)
            )
        return self._fallback_backend

    def _unavailable_is_fatal(self) -> bool:
        return self.config.on_unavailable != "fallback"

    @staticmethod
    def _spill(documents: Sequence[Document], spill_dir: str) -> List[str]:
        """Paths for ``documents`` (in-memory SLPs spilled to temp files).

        The daemon shares the client's filesystem (it listens on a unix
        socket), so documents travel by path — the same
        :func:`~repro.parallel.sharding.as_paths` bridge the parallel
        workers use, with the same content addressing.
        """
        from repro.parallel.sharding import as_paths

        return as_paths(documents, spill_dir)

    def grid(
        self,
        spanners: Sequence[Spanner],
        documents: Sequence[Document],
        task: str,
        limit: Optional[int],
    ) -> List[object]:
        from repro.obs.trace import get_tracer
        from repro.service.protocol import ServiceUnavailableError

        try:
            with tempfile.TemporaryDirectory(prefix="repro-spill-") as spill_dir:
                paths = self._spill(documents, spill_dir)
                # The client-side root span of the whole request: the daemon
                # parents its ``service.run`` span under this context, and
                # the context (with the sink path) rides the wire so every
                # process appends to one JSONL file.  Untraced sessions get
                # the no-op span and the request frame is byte-identical.
                with get_tracer().span(
                    "session.request",
                    task=task,
                    documents=len(paths),
                    spanners=len(spanners),
                ) as span:
                    ctx = span.context()
                    return self.client.run_grid(
                        paths,
                        spanners,
                        task=task,
                        limit=limit,
                        priority=self.config.priority,
                        tag=self.config.tag,
                        cancel_on_disconnect=self.config.cancel_on_disconnect,
                        deadline_ms=self.config.deadline_ms,
                        trace=ctx.to_wire() if ctx is not None else None,
                    )
        except ServiceUnavailableError:
            if self._unavailable_is_fatal():
                raise
            return self._fallback().grid(spanners, documents, task, limit)

    def single(
        self,
        task: str,
        spanner: Spanner,
        document: Document,
        limit: Optional[int] = None,
    ) -> object:
        return self.grid([spanner], [document], task, limit)[0]

    def model_check(
        self, spanner: Spanner, document: Document, span_tuple: SpanTuple
    ) -> bool:
        from repro.service.protocol import ServiceUnavailableError

        try:
            with tempfile.TemporaryDirectory(prefix="repro-spill-") as spill_dir:
                [path] = self._spill([document], spill_dir)
                return self.client.check(path, spanner, span_tuple)
        except ServiceUnavailableError:
            if self._unavailable_is_fatal():
                raise
            return self._fallback().model_check(spanner, document, span_tuple)

    def ranked(self, spanner: Spanner, document: Document) -> "RankedAccess":
        raise NotImplementedError(
            "ranked access needs an in-process session (constant-delay "
            "select cannot usefully cross a request/response boundary); "
            "use connect() without a socket path"
        )

    def enumerate(
        self, spanner: Spanner, document: Document, limit: Optional[int] = None
    ) -> Iterator[SpanTuple]:
        # Over a daemon the stream is materialised (bounded by `limit`)
        # on the server and shipped whole; the canonical order is
        # preserved by the order-preserving wire encoding.
        return iter(
            cast(List[SpanTuple], self.single("enumerate", spanner, document, limit))
        )

    def stats(self) -> Dict[str, object]:
        info = self.client.ping()
        info["backend"] = self.name
        return cast(Dict[str, object], info)

    def close(self) -> None:
        self.client.close()


class Session:
    """Unified spanner evaluation over a pluggable execution backend.

    Construct via :func:`connect` (or directly).  Sessions are context
    managers; :meth:`close` releases the backend (for the daemon
    backend: the client socket — the daemon itself keeps running).

    >>> from repro import connect
    >>> from repro.slp.construct import balanced_slp
    >>> from repro.spanner.regex import compile_spanner
    >>> spanner = compile_spanner(r".*(?P<x>a+)b.*", alphabet="ab")
    >>> with connect() as session:
    ...     session.count(spanner, balanced_slp("aabab"))
    3
    """

    def __init__(self, config: Optional[SessionConfig] = None, **overrides: Any) -> None:
        if config is None:
            config = SessionConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        if config.on_unavailable not in ("raise", "fallback"):
            raise ValueError(
                f"on_unavailable must be 'raise' or 'fallback', "
                f"not {config.on_unavailable!r}"
            )
        self.config = config
        self._backend: Union[_InProcessBackend, _DaemonBackend]
        if config.socket_path is not None:
            self._backend = _DaemonBackend(config)
        else:
            self._backend = _InProcessBackend(config)

    @property
    def backend(self) -> str:
        """``"in-process"`` or ``"daemon"``."""
        return self._backend.name

    # -- single-pair tasks ----------------------------------------------

    def evaluate(self, spanner: Spanner, document: Document) -> FrozenSet[SpanTuple]:
        """The full relation ``⟦M⟧(D)`` (Thm 7.1), as a frozenset."""
        return cast(
            FrozenSet[SpanTuple], self._backend.single("evaluate", spanner, document)
        )

    def count(self, spanner: Spanner, document: Document) -> int:
        """``|⟦M⟧(D)|`` without enumerating."""
        return cast(int, self._backend.single("count", spanner, document))

    def is_nonempty(self, spanner: Spanner, document: Document) -> bool:
        """``⟦M⟧(D) ≠ ∅`` (Thm 5.1.1)."""
        return cast(bool, self._backend.single("nonempty", spanner, document))

    def enumerate(
        self, spanner: Spanner, document: Document, limit: Optional[int] = None
    ) -> Iterator[SpanTuple]:
        """``⟦M⟧(D)`` in canonical order, duplicate-free (Thm 8.10).

        In process this streams with logarithmic delay; over a daemon
        the (``limit``-bounded) prefix is materialised server-side and
        shipped in one response, same tuples, same order.
        """
        return self._backend.enumerate(spanner, document, limit)

    def model_check(
        self, spanner: Spanner, document: Document, span_tuple: SpanTuple
    ) -> bool:
        """``t ∈ ⟦M⟧(D)`` (Thm 5.1.2)."""
        return self._backend.model_check(spanner, document, span_tuple)

    def ranked(self, spanner: Spanner, document: Document) -> "RankedAccess":
        """Ranked access into ``⟦M⟧(D)`` (in-process backend only)."""
        return self._backend.ranked(spanner, document)

    # -- batch shapes ---------------------------------------------------

    def corpus(
        self,
        spanner: Spanner,
        documents: Sequence[Document],
        *,
        task: str = "evaluate",
        limit: Optional[int] = None,
    ) -> List[object]:
        """``[task(M, D) for D in documents]``, in input order."""
        self._check_task(task)
        return self._backend.grid([spanner], documents, task, limit)

    def many(
        self,
        spanners: Sequence[Spanner],
        document: Document,
        *,
        task: str = "evaluate",
        limit: Optional[int] = None,
    ) -> List[object]:
        """``[task(M, D) for M in spanners]``, in input order."""
        self._check_task(task)
        return self._backend.grid(spanners, [document], task, limit)

    def batch(
        self,
        spanners: Sequence[Spanner],
        documents: Sequence[Document],
        *,
        task: str = "count",
        limit: Optional[int] = None,
    ) -> List[BatchItem]:
        """The (documents × spanners) grid, row-major like ``run_batch``."""
        self._check_task(task)
        flat = self._backend.grid(spanners, documents, task, limit)
        return batch_items_from_flat(flat, len(spanners), task)

    @staticmethod
    def _check_task(task: str) -> None:
        if task not in BATCH_TASKS:
            raise ValueError(
                f"unknown batch task {task!r}; expected one of {BATCH_TASKS}"
            )

    # -- Engine-compatible conveniences ---------------------------------

    def evaluate_corpus(
        self, spanner: Spanner, documents: Sequence[Document]
    ) -> List[object]:
        """``[⟦M⟧(D) for D in documents]`` (Engine-compatible shape)."""
        return self.corpus(spanner, documents, task="evaluate")

    def evaluate_many(
        self, spanners: Sequence[Spanner], document: Document
    ) -> List[object]:
        """``[⟦M⟧(D) for M in spanners]`` (Engine-compatible shape)."""
        return self.many(spanners, document, task="evaluate")

    def count_corpus(
        self, spanner: Spanner, documents: Sequence[Document]
    ) -> List[object]:
        """``[|⟦M⟧(D)| for D in documents]``."""
        return self.corpus(spanner, documents, task="count")

    def count_many(
        self, spanners: Sequence[Spanner], document: Document
    ) -> List[object]:
        """``[|⟦M⟧(D)| for M in spanners]``."""
        return self.many(spanners, document, task="count")

    # -- lifecycle / introspection --------------------------------------

    def stats(self) -> Dict[str, object]:
        """Backend statistics: engine cache/store stats in process, the
        daemon's ``ping`` payload (pid, uptime, fleet, counters) over a
        socket."""
        return self._backend.stats()

    def close(self) -> None:
        """Release the backend (idempotent)."""
        self._backend.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Session(backend={self.backend!r}, jobs={self.config.jobs})"


def connect(
    socket_path: Optional[str] = None,
    *,
    config: Optional[SessionConfig] = None,
    **overrides: Any,
) -> Session:
    """Open a :class:`Session` — the one entry point of the public API.

    ``connect()`` gives the in-process backend; ``connect("/run/repro.sock")``
    attaches to a running ``repro-spanner serve`` daemon.  Keyword
    overrides (or a full :class:`SessionConfig` via ``config=``) carry
    every knob: ``store_dir``, ``kernel``, ``jobs``, ``structural_keys``,
    padding, timeouts.

    >>> from repro import connect
    >>> connect(jobs=1).backend
    'in-process'
    """
    if config is None:
        config = SessionConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    if socket_path is not None:
        config = replace(config, socket_path=socket_path)
    return Session(config)


__all__ = ["Document", "Session", "SessionConfig", "Spanner", "connect"]
