"""Per-layer attribution, measured from outside the program's code.

In process, :class:`LayerClock` swaps each layer's public function for a
timing wrapper while a traced op runs, and puts the original back
afterwards, so untraced ops run the program untouched.  Nested wrapped
calls are subtracted from their caller, so every layer reports *self*
time and the layers of one op add up without double counting.

Layers that run in other processes are read from the ``repro.obs`` spans
the program already writes.  For the daemon, :func:`daemon_split` splits
one request (``session.request`` → ``service.run`` → ``scheduler.queue`` /
``worker.shard``) into wire, service, queue and shard time.  For an
in-process ``Session(jobs>1)``, :func:`span_union` of the op's
``worker.shard`` spans is the shard time inside ``WorkerPool.run``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers whose per-call times are kept (reported per call, in µs).
PER_CALL = ("enumeration.next", "markers.decode")


def _targets() -> List[Tuple[Any, str, str]]:
    """``(owner, attribute, layer)`` for every wrapped public function."""
    import repro.core.prepared as prepared
    import repro.engine.engine as engine
    import repro.slp.io as slp_io
    from repro.core.kernels.numpy_kernel import NumpyKernel
    from repro.parallel.pool import WorkerPool
    from repro.slp.grammar import SLP
    from repro.spanner.automaton import SpannerNFA
    from repro.store.prepstore import PreprocessingStore

    return [
        (slp_io, "load_file", "slp_io.decode"),
        (SLP, "structural_digest", "keying.digest"),
        (prepared, "ensure_balanced", "prepared_document.balance"),
        (prepared, "pad_slp", "prepared_document.pad"),
        (prepared, "pad_spanner", "prepared_spanner"),
        (SpannerNFA, "determinize", "prepared_spanner"),
        (NumpyKernel, "build_planes", "kernel.build_planes"),
        (NumpyKernel, "build_counts", "kernel.build_counts"),
        (PreprocessingStore, "save", "store.save"),
        (PreprocessingStore, "load", "store.restore"),
        (engine, "to_span_tuple", "markers.decode"),
        (WorkerPool, "run", "parallel.pool"),
    ]


class LayerClock:
    """Self time per layer for one op at a time (see the module doc)."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, List[float]] = defaultdict(list)
        self.request_bytes = 0
        self.response_bytes = 0
        self._responses: List[Any] = []
        self._header = 0
        # One frame per open wrapped call: [start, seconds of wrapped children].
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- timing -----------------------------------------------------------

    def _enter(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, layer: str) -> None:
        start, children = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.seconds[layer] += elapsed - children
        if layer in PER_CALL:
            self.calls[layer].append(elapsed - children)
        if self._stack:
            self._stack[-1][1] += elapsed

    def _wrap(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        def timed(*args: Any, **kwargs: Any) -> Any:
            self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(layer)

        return timed

    def _timed_stream(self, stream: Iterator[Any]) -> Iterator[Any]:
        while True:
            self._enter()
            try:
                item = next(stream)
            except StopIteration:
                return
            finally:
                self._exit("enumeration.next")
            yield item

    def _wrap_enumeration(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def timed(*args: Any, **kwargs: Any) -> Iterator[Any]:
            return self._timed_stream(fn(*args, **kwargs))

        return timed

    def _wrap_pack(self, fn: Callable[..., bytes]) -> Callable[..., bytes]:
        def counted(message: Dict[str, Any]) -> bytes:
            frame = fn(message)
            self.request_bytes += len(frame)
            return frame

        return counted

    def _wrap_recv(self, fn: Callable[..., Any], header: int) -> Callable[..., Any]:
        self._header = header

        def kept(sock: Any) -> Any:
            message = fn(sock)
            if message is not None:
                self._responses.append(message)  # sized in take(), after the op
            return message

        return kept

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function; :meth:`uninstall` puts them back."""
        import repro.engine.engine as engine
        import repro.service.protocol as protocol

        for owner, name, layer in _targets():
            self._swap(owner, name, self._wrap(getattr(owner, name), layer))
        self._swap(
            engine,
            "enumerate_marker_sets",
            self._wrap_enumeration(engine.enumerate_marker_sets),
        )
        header = len(protocol.pack_frame({})) - len(b"{}")
        self._swap(protocol, "pack_frame", self._wrap_pack(protocol.pack_frame))
        self._swap(protocol, "recv_frame", self._wrap_recv(protocol.recv_frame, header))

    def _swap(self, owner: Any, name: str, replacement: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def take(self) -> Dict[str, Any]:
        """This op's readings; resets the clock for the next op."""
        for message in self._responses:
            # The response as the server packed it: compact JSON.
            body = json.dumps(message, separators=(",", ":"), ensure_ascii=False)
            self.response_bytes += self._header + len(body.encode("utf-8"))
        self._responses.clear()
        reading = {
            "seconds": dict(self.seconds),
            "calls": {k: list(v) for k, v in self.calls.items()},
            "request_bytes": self.request_bytes,
            "response_bytes": self.response_bytes,
        }
        self.seconds.clear()
        self.calls.clear()
        self.request_bytes = self.response_bytes = 0
        return reading


# -- spans of other processes ---------------------------------------------


def span_union(intervals: List[Tuple[float, float]]) -> float:
    """Seconds covered by at least one of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def daemon_split(
    records: List[Dict[str, Any]], trace_id: str
) -> Optional[Dict[str, float]]:
    """Wire / service / queue / shard seconds of one traced request.

    ``wire`` is ``session.request`` minus ``service.run``; ``queue`` is
    ``scheduler.queue``; ``shard`` is the time covered by the request's
    ``worker.shard`` spans; ``service`` is what ``service.run`` spent
    outside queue and shards.  The four add up to ``session.request``.
    ``None`` when a span is missing.
    """
    spans: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for record in records:
        if record.get("trace") == trace_id and record.get("end") is not None:
            spans[record["name"]].append(record)
    if not (spans["session.request"] and spans["service.run"] and spans["worker.shard"]):
        return None
    request = spans["session.request"][0]
    run = spans["service.run"][0]

    def clipped(record: Dict[str, Any]) -> Tuple[float, float]:
        return max(record["start"], run["start"]), min(record["end"], run["end"])

    queue = span_union([clipped(r) for r in spans["scheduler.queue"]])
    shard = span_union([clipped(r) for r in spans["worker.shard"]])
    run_s = run["end"] - run["start"]
    request_s = request["end"] - request["start"]
    return {
        "request": request_s,
        "wire": request_s - run_s,
        "service": run_s - queue - shard,
        "queue": queue,
        "shard": shard,
    }
