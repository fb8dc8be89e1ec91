"""repro: regular document-spanner evaluation over SLP-compressed documents.

A from-scratch reproduction of Schmid & Schweikardt, *Spanner Evaluation
over SLP-Compressed Documents*, PODS 2021 (arXiv:2101.10890).

Quickstart — open a :class:`~repro.session.Session` and ask it things::

    from repro import connect, compile_spanner, bisection_slp

    doc = "loglogloglog..."            # a (possibly huge) document
    slp = bisection_slp(doc)           # compressed representation
    spanner = compile_spanner(r"(?P<x>a+)b", alphabet="ab")

    with connect() as session:         # in-process backend
        session.is_nonempty(spanner, slp)        # Theorem 5.1.1
        session.evaluate(spanner, slp)           # Theorem 7.1
        for tup in session.enumerate(spanner, slp):  # Theorem 8.10
            ...
        session.corpus(spanner, paths, task="count")  # batch shapes

One :class:`~repro.session.SessionConfig` carries every knob —
preprocessing store, cache key mode, kernel backend, worker count,
padding — to whichever backend serves the call::

    session = connect(store_dir=".prep", jobs=8, kernel="numpy")

and the same calls can be routed through a long-lived daemon
(``repro-spanner serve --socket /run/repro.sock``) whose persistent
worker fleet keeps the ``O(size(S) · q²)`` preprocessing warm *across*
processes::

    session = connect("/run/repro.sock")   # daemon backend, same results

Every route ends in one caching :class:`Engine` (``evaluate_many`` /
``evaluate_corpus`` and friends), which stays public for direct use.
The single-pair :class:`CompressedSpannerEvaluator` is a paper-named
view over a private engine, and the sharded ``parallel_corpus`` /
``parallel_many`` entry points run the same grid runner a
``Session(jobs > 1)`` uses, with worker engines built from one config.
"""

from repro.errors import (
    AutomatonError,
    DecompressionLimitExceeded,
    EvaluationError,
    GrammarError,
    NotInNormalForm,
    RegexSyntaxError,
    ReproError,
)
from repro.slp import (
    SLP,
    balance,
    balanced_slp,
    bisection_slp,
    lz_slp,
    power_slp,
    repair_slp,
)

__version__ = "1.0.0"

from repro.spanner import (  # noqa: E402
    Span,
    SpanTuple,
    SpannerDFA,
    SpannerNFA,
    compile_spanner,
    join_spanners,
    project_spanner,
    rename_spanner,
    union_spanners,
)
from repro.core import (  # noqa: E402
    CompressedSpannerEvaluator,
    IncrementalSpannerIndex,
    RankedAccess,
    count_results,
    ranked_access,
)
from repro.baselines import UncompressedEvaluator  # noqa: E402

# The low-level core every front end routes through: the `Engine`, and
# the `parallel_*` wrappers over the grid runner a Session(jobs > 1)
# uses.  New code should start at `connect()`.
from repro.engine import Engine, evaluate_corpus, evaluate_many  # noqa: E402
from repro.parallel import parallel_corpus, parallel_many  # noqa: E402
from repro.session import Session, SessionConfig, connect  # noqa: E402
from repro.slp.edits import SlpEditor  # noqa: E402
from repro.store import PreprocessingStore  # noqa: E402

__all__ = [
    "SLP",
    "AutomatonError",
    "CompressedSpannerEvaluator",
    "DecompressionLimitExceeded",
    "Engine",
    "EvaluationError",
    "GrammarError",
    "IncrementalSpannerIndex",
    "NotInNormalForm",
    "PreprocessingStore",
    "RankedAccess",
    "RegexSyntaxError",
    "ReproError",
    "Session",
    "SessionConfig",
    "SlpEditor",
    "Span",
    "SpanTuple",
    "SpannerDFA",
    "SpannerNFA",
    "UncompressedEvaluator",
    "balance",
    "balanced_slp",
    "bisection_slp",
    "compile_spanner",
    "connect",
    "count_results",
    "evaluate_corpus",
    "evaluate_many",
    "join_spanners",
    "lz_slp",
    "parallel_corpus",
    "parallel_many",
    "power_slp",
    "project_spanner",
    "ranked_access",
    "rename_spanner",
    "repair_slp",
    "union_spanners",
]
