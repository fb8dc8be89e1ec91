"""Monotonic-clock tracing with cross-process context propagation.

The tracer is deliberately tiny and dependency-free: a :class:`Span` is
a named ``[start, end)`` interval on ``time.monotonic()`` (system-wide
on Linux, so spans from different processes on one host are directly
comparable), linked to its parent by explicit ids.  A
:class:`TraceContext` is the picklable / JSON-codable projection of a
span — ``(trace_id, span_id, sink path)`` — and is what crosses the two
process boundaries the system already has: it rides inside
``TaskSpec.trace`` to parallel and fleet workers, and inside the
optional ``trace`` field of a daemon request frame.

Finished spans are appended as single JSON lines to the sink path.  A
single ``write()`` of one line in append mode is atomic on POSIX, so
client, daemon, and every worker can share one JSONL file and the trace
still reads back consistently.

The disabled path is the common one and must stay near-free: when no
sink is configured and no span is active, :meth:`Tracer.span` returns a
shared no-op context manager without allocating.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from types import TracebackType
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type, Union

__all__ = [
    "ENV_TRACE",
    "Span",
    "Stopwatch",
    "TraceContext",
    "Tracer",
    "get_tracer",
    "new_id",
    "read_trace",
    "set_tracer",
    "stopwatch",
]

#: Environment variable naming the default JSONL sink.
ENV_TRACE = "REPRO_TRACE"


def new_id() -> str:
    """A 16-hex-digit id, unique enough for spans within one trace."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The wire/pickle-safe identity of a span: what children parent to.

    ``path`` names the JSONL sink so a remote process can join the same
    trace file; it is optional so a context can also address a sink the
    receiver already has configured.
    """

    trace_id: str
    span_id: str
    path: Optional[str] = None

    def to_wire(self) -> Dict[str, str]:
        """Encode for a JSON frame (omits ``path`` when unset)."""
        payload = {"id": self.trace_id, "span": self.span_id}
        if self.path is not None:
            payload["path"] = self.path
        return payload

    @classmethod
    def from_wire(cls, payload: object) -> Optional["TraceContext"]:
        """Decode a frame field; ``None`` for missing/malformed input."""
        if not isinstance(payload, Mapping):
            return None
        trace_id = payload.get("id")
        span_id = payload.get("span")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        path = payload.get("path")
        if path is not None and not isinstance(path, str):
            path = None
        return cls(trace_id=trace_id, span_id=span_id, path=path)


class Span:
    """One named monotonic-clock interval inside a trace."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start", "end", "tags")

    def __init__(
        self,
        name: str,
        *,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        tags: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.monotonic()
        self.end: Optional[float] = None
        self.tags: Dict[str, Any] = tags or {}

    @property
    def seconds(self) -> float:
        """Elapsed time; measured live while the span is still open."""
        end = self.end if self.end is not None else time.monotonic()
        return end - self.start

    def context(self, path: Optional[str] = None) -> TraceContext:
        """The :class:`TraceContext` naming this span as parent."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id, path=path)

    def as_line(self) -> Dict[str, Any]:
        """The JSONL export record."""
        record: Dict[str, Any] = {
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "dur": None if self.end is None else self.end - self.start,
            "pid": os.getpid(),
        }
        if self.tags:
            record["tags"] = self.tags
        return record


class _NoopSpan:
    """Shared do-nothing handle for the tracing-disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None

    def finish(self) -> None:
        return None

    def context(self, path: Optional[str] = None) -> Optional[TraceContext]:
        return None


NOOP_SPAN = _NoopSpan()


class _OpenSpan:
    """A live span bound to its sink; context manager or explicit finish."""

    __slots__ = ("span", "sink", "_tracer", "_on_stack")

    def __init__(self, span: Span, sink: str, tracer: "Tracer", on_stack: bool) -> None:
        self.span = span
        self.sink = sink
        self._tracer = tracer
        self._on_stack = on_stack

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is not None:
            self.span.tags.setdefault("error", exc_type.__name__)
        self.finish()

    @property
    def seconds(self) -> float:
        return self.span.seconds

    def context(self, path: Optional[str] = None) -> TraceContext:
        """Context for children; defaults the sink to this span's own."""
        return self.span.context(path if path is not None else self.sink)

    def finish(self) -> None:
        if self.span.end is not None:  # already finished
            return
        self.span.end = time.monotonic()
        if self._on_stack:
            self._tracer._pop(self)
        self._tracer._write(self.span, self.sink)


class Tracer:
    """Creates spans, tracks the per-thread active span, writes JSONL.

    Sink resolution for a new span, in order: an explicit ``path``
    argument, the parent context's ``path``, the sink of the enclosing
    span on this thread, the tracer's configured default.  No sink
    means no span — the caller gets the shared no-op handle.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._path = path
        self._local = threading.local()
        # One entry per on-stack span open on any thread, so the disabled
        # path in :meth:`span` need not touch the (slow) thread-local.
        # ``append``/``pop`` are atomic: no lock, which a fork could
        # inherit held.
        self._open: List[None] = []

    # -- configuration ----------------------------------------------------

    @property
    def path(self) -> Optional[str]:
        return self._path

    def configure(self, path: Optional[str]) -> None:
        """Set (or clear) the default sink for spans with no other sink."""
        self._path = path

    @property
    def enabled(self) -> bool:
        return self._path is not None or bool(self._stack())

    # -- span lifecycle ---------------------------------------------------

    def span(
        self,
        name: str,
        *,
        parent: Optional[TraceContext] = None,
        path: Optional[str] = None,
        **tags: Any,
    ) -> Union[_OpenSpan, _NoopSpan]:
        """Open a span as a context manager, nesting on this thread.

        Inside the ``with`` block the span is the implicit parent for
        further :meth:`span` calls on the same thread, which is how
        engine internals (store restore, kernel build) land under the
        worker's shard span without any API plumbing.
        """
        # The disabled path, decided before ``begin`` rebuilds the tags
        # or touches the thread's stack: no sink anywhere and no span
        # open on any thread (``begin`` would return the same no-op).
        if path is None and parent is None and self._path is None and not self._open:
            return NOOP_SPAN
        return self.begin(name, parent=parent, path=path, on_stack=True, **tags)

    def begin(
        self,
        name: str,
        *,
        parent: Optional[TraceContext] = None,
        path: Optional[str] = None,
        on_stack: bool = False,
        **tags: Any,
    ) -> Union[_OpenSpan, _NoopSpan]:
        """Open a span without entering it; finish via ``.finish()``.

        Used where span lifetime does not match a lexical scope — e.g.
        the scheduler opens a queue span at submit and finishes it at
        first dispatch.
        """
        stack = self._stack()
        sink = path
        if sink is None and parent is not None:
            sink = parent.path
        enclosing = stack[-1] if stack else None
        if sink is None and enclosing is not None:
            sink = enclosing.sink
        if sink is None:
            sink = self._path
        if sink is None:
            return NOOP_SPAN
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif enclosing is not None:
            trace_id, parent_id = enclosing.span.trace_id, enclosing.span.span_id
        else:
            trace_id, parent_id = new_id(), None
        span = Span(
            name,
            trace_id=trace_id,
            span_id=new_id(),
            parent_id=parent_id,
            tags=dict(tags) if tags else None,
        )
        handle = _OpenSpan(span, sink, self, on_stack)
        if on_stack:
            stack.append(handle)
            self._open.append(None)
        return handle

    def current_context(self, path: Optional[str] = None) -> Optional[TraceContext]:
        """Context of this thread's innermost active span, if any."""
        stack = self._stack()
        if not stack:
            return None
        return stack[-1].context(path)

    # -- internals --------------------------------------------------------

    def _stack(self) -> List[_OpenSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _pop(self, handle: _OpenSpan) -> None:
        stack = self._stack()
        if handle in stack:
            while stack[-1] is not handle:
                stack.pop()
                self._open.pop()
            stack.pop()
            self._open.pop()

    def _write(self, span: Span, sink: str) -> None:
        line = json.dumps(span.as_line(), separators=(",", ":"), default=str)
        try:
            with open(sink, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        except OSError:
            # A broken sink must never fail the traced operation; drop
            # the span and disable the default sink if it is the culprit.
            if sink == self._path:
                self._path = None


class Stopwatch:
    """Always-on timer that doubles as a span when tracing is enabled.

    ``stats --profile`` style call sites need the elapsed time whether
    or not a trace sink is configured; this wraps a monotonic timer
    around an (optional) span so both report from the same clock.
    """

    __slots__ = ("name", "seconds", "_handle", "_start")

    def __init__(self, name: str, tracer: Optional[Tracer] = None, **tags: Any) -> None:
        self.name = name
        self.seconds = 0.0
        tracer = tracer if tracer is not None else get_tracer()
        self._handle = tracer.span(name, **tags)
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._handle.__enter__()
        self._start = time.monotonic()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.seconds = time.monotonic() - self._start
        self._handle.__exit__(exc_type, exc, tb)


def stopwatch(name: str, **tags: Any) -> Stopwatch:
    """Shorthand for :class:`Stopwatch` on the process-global tracer."""
    return Stopwatch(name, **tags)


# -- process-global tracer ------------------------------------------------

_global_lock = threading.Lock()
_global_tracer: Optional[Tracer] = None


def get_tracer() -> Tracer:
    """The process-global tracer; ``REPRO_TRACE`` seeds its sink."""
    global _global_tracer
    if _global_tracer is None:
        with _global_lock:
            if _global_tracer is None:
                _global_tracer = Tracer(os.environ.get(ENV_TRACE) or None)
    return _global_tracer


def set_tracer(tracer: Optional[Tracer]) -> None:
    """Replace the process-global tracer (tests)."""
    global _global_tracer
    with _global_lock:
        _global_tracer = tracer


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace file back into span records (skips torn lines)."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def _span_children(
    records: List[Dict[str, Any]],
) -> Dict[Optional[str], List[Dict[str, Any]]]:
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for record in records:
        children.setdefault(record.get("parent"), []).append(record)
    return children


def descendants(records: List[Dict[str, Any]], root_span_id: str) -> List[Dict[str, Any]]:
    """All spans transitively parented to ``root_span_id`` (test helper)."""
    by_parent = _span_children(records)
    out: List[Dict[str, Any]] = []
    frontier: Tuple[str, ...] = (root_span_id,)
    while frontier:
        next_frontier: List[str] = []
        for parent in frontier:
            for record in by_parent.get(parent, []):
                out.append(record)
                span_id = record.get("span")
                if isinstance(span_id, str):
                    next_frontier.append(span_id)
        frontier = tuple(next_frontier)
    return out
