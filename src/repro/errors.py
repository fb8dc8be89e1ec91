"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single handler while
still being able to distinguish grammar problems from evaluation problems.
"""

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GrammarError(ReproError, ValueError):
    """An SLP or CFG definition is malformed (cyclic, non-total, ...)."""


class NotInNormalForm(GrammarError):
    """An operation required a normal-form SLP but the grammar is not one."""


class RegexSyntaxError(ReproError, ValueError):
    """A spanner regex could not be parsed."""


class AutomatonError(ReproError, ValueError):
    """A spanner automaton is malformed or used incorrectly."""


class EvaluationError(ReproError, RuntimeError):
    """A spanner-evaluation task was invoked with incompatible inputs."""


class DecompressionLimitExceeded(ReproError, MemoryError):
    """Decompressing an SLP would exceed the caller-provided size limit.

    SLP-compressed documents can be exponentially larger than their grammar,
    so every API that materialises the document takes an explicit limit and
    raises this error instead of silently exhausting memory.
    """


class ParallelExecutionError(ReproError, RuntimeError):
    """A sharded run could not complete (retries exhausted / fleet lost)."""


class ServiceError(ReproError):
    """A service request failed (transport error or remote exception).

    For remote exceptions, ``remote_type`` holds the exception class
    name raised in the daemon and the message embeds the remote
    traceback text.
    """

    def __init__(self, message: str, remote_type: Optional[str] = None) -> None:
        super().__init__(message)
        self.remote_type = remote_type


class ServiceBusyError(ServiceError):
    """The scheduler refused admission (quota / backpressure).

    This is the structured back-off signal: the daemon is healthy but
    at its configured concurrency bound (``max_pending_jobs`` across
    all clients, or ``max_jobs_per_client`` for this connection).  The
    request was *not* queued — retrying later is safe and expected.
    On the wire it is an error frame with ``"busy": true`` alongside
    the usual error payload.
    """


class JobCancelledError(ServiceError):
    """A submitted job was cancelled before it completed.

    Raised remotely by the scheduler when a ``cancel`` op matches the
    job's tag (or its client disconnects with ``cancel_on_disconnect``),
    and re-raised under the same type by the client.
    """


class DeadlineExceeded(ServiceError):
    """A request's ``deadline_ms`` budget ran out before it completed.

    Raised by the scheduler whether the job was still queued, between
    dispatches, or mid-shard (in-flight shards are cancelled by killing
    their workers); re-raised under the same type by the client.  The
    deadline is the *caller's* latency contract — distinct from the
    server-side ``job_timeout`` safety net, which raises
    :class:`ParallelExecutionError`.
    """
