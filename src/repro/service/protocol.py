"""The service wire protocol: length-prefixed JSON frames over a socket.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON.  Requests carry ``{"id": n, "op": name, ...params}``;
responses echo the id as ``{"id": n, "ok": true, "result": ...}`` or
``{"id": n, "ok": false, "error": {type, message, traceback}}``.  Both
sync (:func:`send_frame` / :func:`recv_frame`, for the blocking client)
and asyncio (:func:`read_frame` / :func:`write_frame`, for the daemon)
helpers speak the same framing, so either side can be reimplemented in
any language that can write four bytes and a JSON document.

Result values are *canonically* encoded so that a round trip through
the daemon is bit-identical to in-process evaluation (the differential
harness enforces this):

* a :class:`~repro.spanner.spans.Span`-tuple becomes a
  variable-sorted ``[[var, start, end], ...]`` list;
* an ``evaluate`` relation (a frozenset) is sorted into a canonical
  list on the wire and rebuilt as a frozenset on arrival — set equality
  is order-blind, so sorting only serves wire determinism;
* an ``enumerate`` result stays an order-preserving list (the
  enumeration order *is* part of the contract);
* ``count`` / ``nonempty`` results are plain JSON numbers / booleans.

Spanners travel as ``{"pattern", "alphabet"}`` recipes whenever the
caller has one (the CLI always does).  An already-compiled
:class:`~repro.spanner.automaton.SpannerNFA` has no JSON form, so it is
carried as a base64 pickle field inside the JSON envelope — the same
trust model as the multiprocessing pipes the parallel subsystem already
ships NFAs over, and the daemon's unix socket is created owner-only
(mode ``0600``), so only the operating user can submit frames.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket as socket_module
import struct
import traceback as traceback_module
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Type

# The scheduler's errors live in repro.errors (the scheduler sits in
# repro.parallel, below this package); they are re-exported here under
# the names the wire's remote-type map and every client catch.
from repro.errors import (
    DeadlineExceeded,
    JobCancelledError,
    ServiceBusyError,
    ServiceError,
)
from repro.faults import fault_point
from repro.obs.metrics import BYTE_BUCKETS, get_registry
from repro.spanner.spans import Span, SpanTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio

    from repro.engine.spec import SpannerSpec

#: Protocol revision, checked in the handshake-free way: every response
#: to ``ping`` carries it, and requests with an incompatible ``proto``
#: field are rejected instead of misread.
PROTOCOL_VERSION = 1

_FRAME_HEADER = struct.Struct(">I")

#: Refuse absurd frames: a corrupt or hostile length prefix must not
#: make either side allocate gigabytes.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: The request kinds of the protocol: wire op name → the client method
#: that issues it.  This mapping is the protocol's single declaration
#: point — the ``protocol-completeness`` lint rule cross-checks it
#: against the server dispatch and the client surface, so adding an op
#: here without wiring both sides (or vice versa) fails the build.
REQUEST_KINDS: Dict[str, str] = {
    "ping": "ping",
    "run": "run_grid",
    "check": "check",
    "cancel": "cancel",
    "metrics": "metrics",
    "shutdown": "shutdown",
}


class ProtocolError(ServiceError):
    """A malformed frame (bad length, bad JSON, bad envelope)."""


class ServiceUnavailableError(ServiceError):
    """No daemon answered at the socket path (connect-level failure).

    Raised only before a request frame is sent, so it is always safe to
    retry — which is exactly what :class:`ServiceClient`'s backoff and
    :class:`~repro.session.Session`'s ``on_unavailable="fallback"``
    degradation key on.
    """


# -- framing ------------------------------------------------------------------


def pack_frame(message: Dict[str, Any]) -> bytes:
    """One wire frame for ``message``: length header + compact JSON."""
    body = json.dumps(
        message, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    registry = get_registry()
    registry.counter("wire.frames").inc()
    registry.histogram("wire.frame_bytes", BYTE_BUCKETS).observe(len(body))
    return _FRAME_HEADER.pack(len(body)) + body


def _decode_body(body: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(message).__name__}"
        )
    return message  # json object keys are always str


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame header announces {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )


def send_frame(sock: socket_module.socket, message: Dict[str, Any]) -> None:
    """Write one frame to a blocking socket."""
    # Wire-drop site *before* any byte leaves: a fired fault models a
    # peer that vanished between frames, never a half-written frame.
    fault_point("wire.client.send")
    sock.sendall(pack_frame(message))


def _recv_exact(sock: socket_module.socket, n: int) -> Optional[bytes]:
    """Exactly ``n`` bytes from a blocking socket; ``None`` on clean EOF."""
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise ProtocolError(
                    f"connection closed mid-frame ({n - remaining} of {n} bytes)"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket_module.socket) -> Optional[Dict[str, Any]]:
    """Read one frame from a blocking socket; ``None`` on clean EOF."""
    fault_point("wire.client.recv")
    header = _recv_exact(sock, _FRAME_HEADER.size)
    if header is None:
        return None
    (length,) = _FRAME_HEADER.unpack(header)
    _check_length(length)
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between header and body")
    return _decode_body(body)


async def read_frame(reader: "asyncio.StreamReader") -> Optional[Dict[str, Any]]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF."""
    import asyncio

    try:
        header = await reader.readexactly(_FRAME_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF at a frame boundary
        raise ProtocolError("connection closed mid-header") from exc
    (length,) = _FRAME_HEADER.unpack(header)
    _check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return _decode_body(body)


async def write_frame(writer: "asyncio.StreamWriter", message: Dict[str, Any]) -> None:
    """Write one frame to an asyncio stream (and drain)."""
    fault_point("wire.server.send")
    writer.write(pack_frame(message))
    await writer.drain()


# -- envelopes ----------------------------------------------------------------


def ok_response(request_id: object, result: Any) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: object, exc: BaseException) -> Dict[str, Any]:
    return {
        "id": request_id,
        "ok": False,
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback_module.format_exc(),
        },
    }


def busy_response(request_id: object, exc: BaseException) -> Dict[str, Any]:
    """An error frame flagged ``"busy": true`` (admission refused).

    Busy is a *control-flow* signal, not a failure: no traceback rides
    along, and clients are expected to branch on the flag (or the
    :class:`ServiceBusyError` type) rather than log it as an error.
    """
    return {
        "id": request_id,
        "ok": False,
        "busy": True,
        "error": {"type": "ServiceBusyError", "message": str(exc)},
    }


#: Remote exception types that re-raise as a dedicated client-side
#: class (so callers can catch backpressure / cancellation without
#: string-matching); everything else becomes a plain ServiceError.
_REMOTE_ERROR_TYPES: Dict[str, Type[ServiceError]] = {
    "ServiceBusyError": ServiceBusyError,
    "JobCancelledError": JobCancelledError,
    "DeadlineExceeded": DeadlineExceeded,
    "ProtocolError": ProtocolError,
}


def raise_remote_error(error: Dict[str, Any]) -> None:
    """Re-raise a response's error payload as a :class:`ServiceError`."""
    remote_type = error.get("type", "Exception")
    message = error.get("message", "(no message)")
    trace = (error.get("traceback") or "").rstrip()
    text = f"service request failed: {remote_type}: {message}"
    if trace:
        text += f"\n--- remote traceback ---\n{trace}"
    error_class = _REMOTE_ERROR_TYPES.get(remote_type, ServiceError)
    raise error_class(text, remote_type=remote_type)


# -- spanners -----------------------------------------------------------------


def encode_spanner(spanner: object) -> Dict[str, Optional[str]]:
    """A JSON payload for a spanner (``SpannerNFA`` or ``SpannerSpec``)."""
    from repro.engine.spec import SpannerSpec

    spec = SpannerSpec.of(spanner)
    if spec.pattern is not None:
        return {"pattern": spec.pattern, "alphabet": spec.alphabet}
    return {
        "pickle": base64.b64encode(
            pickle.dumps(spec.nfa, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
    }


def decode_spanner(payload: Dict[str, Any]) -> "SpannerSpec":
    """The :class:`~repro.engine.spec.SpannerSpec` for a wire payload."""
    from repro.engine.spec import SpannerSpec

    if not isinstance(payload, dict):
        raise ProtocolError(f"bad spanner payload: {payload!r}")
    if "pattern" in payload:
        return SpannerSpec(
            pattern=payload["pattern"], alphabet=payload.get("alphabet")
        )
    if "pickle" in payload:
        nfa = pickle.loads(base64.b64decode(payload["pickle"]))
        return SpannerSpec(nfa=nfa)
    raise ProtocolError(f"spanner payload needs 'pattern' or 'pickle': {payload!r}")


# -- results ------------------------------------------------------------------


def encode_span_tuple(tup: SpanTuple) -> List[List[object]]:
    """``[[var, start, end], ...]``, variable-sorted (canonical)."""
    return [[var, span.start, span.end] for var, span in sorted(tup.items())]


def decode_span_tuple(payload: Any) -> SpanTuple:
    return SpanTuple(
        {var: Span(start, end) for var, start, end in payload}
    )


def encode_result(task: str, value: Any) -> Any:
    """The canonical JSON form of one task result (see module docstring)."""
    if task in ("count", "nonempty"):
        return value
    if task == "evaluate":
        return sorted(encode_span_tuple(tup) for tup in value)
    return [encode_span_tuple(tup) for tup in value]  # enumerate: keep order


def decode_result(task: str, payload: Any) -> Any:
    if task == "count":
        return int(payload)
    if task == "nonempty":
        return bool(payload)
    if task == "evaluate":
        return frozenset(decode_span_tuple(p) for p in payload)
    return [decode_span_tuple(p) for p in payload]


__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "REQUEST_KINDS",
    "DeadlineExceeded",
    "JobCancelledError",
    "ProtocolError",
    "ServiceBusyError",
    "ServiceError",
    "ServiceUnavailableError",
    "busy_response",
    "decode_result",
    "decode_span_tuple",
    "decode_spanner",
    "encode_result",
    "encode_span_tuple",
    "encode_spanner",
    "error_response",
    "ok_response",
    "pack_frame",
    "raise_remote_error",
    "read_frame",
    "recv_frame",
    "send_frame",
    "write_frame",
]
