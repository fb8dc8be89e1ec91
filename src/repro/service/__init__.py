"""The service daemon: amortise preprocessing across *processes*.

The parallel layer (PR 3) amortises work across the workers of one
call; this package amortises it across *invocations*.  ``repro-spanner
serve --socket PATH`` runs a long-lived asyncio daemon
(:mod:`repro.service.server`) that keeps one worker fleet (a
:class:`~repro.parallel.pool.WorkerPool`) alive across requests,
multiplexes it across concurrent tenants with the
weighted-fair shard scheduler every parallel run uses
(:mod:`repro.parallel.scheduler` — priorities, cancellation, quotas,
``busy`` backpressure), and answers length-prefixed JSON requests
(:mod:`repro.service.protocol`) over a unix socket.  Clients —
``repro-spanner query/batch/stats --connect PATH``, or any
:class:`~repro.session.Session` opened with ``repro.connect(path)`` —
get bit-identical results to the in-process engine while the daemon
keeps worker hydration, spanner resolution and the in-memory
preprocessing caches warm between them.

Typical use::

    # terminal 1 (or a systemd unit):
    #   repro-spanner serve --socket /run/repro.sock --store /var/repro

    from repro import connect

    with connect("/run/repro.sock") as session:
        counts = session.corpus(spanner, paths, task="count")
"""

from repro.parallel.scheduler import FleetScheduler
from repro.service.client import ServiceClient, wait_ready
from repro.service.protocol import (
    DeadlineExceeded,
    JobCancelledError,
    ProtocolError,
    ServiceBusyError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.service.server import ServiceThread, SpannerService, serve

__all__ = [
    "DeadlineExceeded",
    "FleetScheduler",
    "JobCancelledError",
    "ProtocolError",
    "ServiceBusyError",
    "ServiceClient",
    "ServiceError",
    "ServiceThread",
    "ServiceUnavailableError",
    "SpannerService",
    "serve",
    "wait_ready",
]
