"""Command-line interface: compress, inspect, and query documents.

Usage (also available as ``python -m repro``)::

    repro-spanner compress  corpus.txt -o corpus.slp.json --method repair
    repro-spanner convert   corpus.slp.json -o corpus.slpb
    repro-spanner stats     corpus.slpb
    repro-spanner query     corpus.slpb '.*user=(?P<u>[a-z]+) .*' --limit 10
    repro-spanner query     corpus.slp.json '.*(?P<x>ab).*' --task count
    repro-spanner batch     a.slpb b.slpb -p '.*(?P<x>ab).*' -p '(?P<y>a+)b' --task count --store .prep
    repro-spanner batch     shards/*.slpb -p '(?P<x>a+)b' --jobs 8 --store .prep
    repro-spanner serve     --socket /run/repro.sock --store .prep --jobs 8
    repro-spanner ping      --connect /run/repro.sock --timeout 5
    repro-spanner batch     shards/*.slpb -p '(?P<x>a+)b' --connect /run/repro.sock
    repro-spanner decompress corpus.slp.json -o corpus.txt --limit 1000000

The query subcommand exposes all four evaluation tasks of the paper
(``--task nonempty | count | enumerate | check``) plus ranked access
(``--rank K``); the batch subcommand runs every pattern against every
grammar.  Each of the two opens exactly one :class:`~repro.session.Session`
and prints from it, so one print loop serves every route: the serial
in-process engine (sharing padded documents, prepared automata and
preprocessing tables across the grid), ``--jobs N`` (the grid sharded
across N worker processes, :mod:`repro.parallel`) and ``--connect PATH``
(the long-lived daemon that ``serve`` runs, :mod:`repro.service`, whose
persistent worker fleet amortises the preprocessing across
invocations).  With ``--store DIR`` the preprocessing tables persist to
disk so repeated invocations warm-start.  Every subcommand accepts
grammars in either the JSON (``repro-slp``) or binary (``repro-slpb``)
format — the loader sniffs the magic bytes — and ``convert`` translates
between the two.

The ``--store/--structural-keys/--kernel`` group (and ``--jobs``,
``--connect`` where they apply) is declared once in shared argparse
parent parsers, so the engine-facing subcommands can never drift apart
in flag spelling or semantics.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.kernels import KERNEL_CHOICES
from repro.engine.batch import PRINTABLE_BATCH_TASKS
from repro.errors import ReproError
from repro.slp import io as slp_io
from repro.slp.construct import balanced_slp, bisection_slp
from repro.slp.derive import iter_symbols
from repro.slp.lz import lz_slp
from repro.slp.repair import repair_slp
from repro.slp.stats import slp_stats
from repro.spanner.regex import compile_spanner
from repro.spanner.spans import Span, SpanTuple

COMPRESSORS = {
    "repair": repair_slp,
    "lz": lz_slp,
    "bisection": bisection_slp,
    "balanced": balanced_slp,
}


def _engine_options_parent() -> argparse.ArgumentParser:
    """The shared ``--store/--structural-keys/--kernel`` option group.

    Declared once and attached as an argparse *parent* to every
    engine-facing subcommand (``query``/``batch``/``stats``/``serve``),
    so the knobs cannot drift apart across subcommands.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("engine options")
    group.add_argument(
        "--store", metavar="DIR",
        help="persist/restore preprocessing tables in this directory so "
        "repeated runs warm-start across processes",
    )
    group.add_argument(
        "--structural-keys", action="store_true",
        help="key caches by grammar content instead of object identity "
        "(equal grammars loaded twice share one entry)",
    )
    group.add_argument(
        "--kernel", choices=KERNEL_CHOICES, default="auto",
        help="bit-plane kernel backend, applied by every engine this "
        "command builds, including --jobs workers (default: auto-detect "
        "— numpy when available, else the pure-python reference)",
    )
    group.add_argument(
        "--trace", metavar="PATH",
        help="append JSONL trace spans to this file; the trace context "
        "propagates into --jobs workers and across --connect, so one "
        "file collects client, daemon and fleet spans (env: REPRO_TRACE)",
    )
    return parent


def _jobs_parent(default: int, help_text: str) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs", type=int, default=default, metavar="N", help=help_text
    )
    return parent


def _connect_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--connect", metavar="SOCKET",
        help="route execution through the long-lived service daemon "
        "listening on this unix socket (see 'repro-spanner serve'); "
        "engine options then apply daemon-side, not locally",
    )
    parent.add_argument(
        "--priority", type=int, default=0, metavar="N",
        help="with --connect: weighted-fair scheduling priority of this "
        "job on the daemon (each step doubles its share of the fleet; "
        "default 0, clamped server-side)",
    )
    parent.add_argument(
        "--tag", metavar="TAG",
        help="with --connect: cancellation tag for this job; "
        "'repro-spanner cancel --connect SOCKET TAG' aborts every "
        "matching job on the daemon",
    )
    parent.add_argument(
        "--deadline-ms", type=int, default=None, metavar="MS",
        help="with --connect: per-request latency budget; a job still "
        "unfinished past it fails with DeadlineExceeded and its "
        "in-flight shards are cancelled (default: no deadline)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spanner",
        description="Regular spanner evaluation over SLP-compressed documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    engine_parent = _engine_options_parent()
    connect_parent = _connect_parent()

    p_compress = sub.add_parser("compress", help="compress a text file into an SLP")
    p_compress.add_argument("input", help="input text file")
    p_compress.add_argument("-o", "--output", help="output .slp.json (default: <input>.slp.json)")
    p_compress.add_argument(
        "--method", choices=sorted(COMPRESSORS), default="repair",
        help="grammar compressor (default: repair)",
    )

    p_convert = sub.add_parser(
        "convert", help="convert a grammar between the JSON and binary formats"
    )
    p_convert.add_argument("grammar", help=".slp.json or .slpb file")
    p_convert.add_argument(
        "-o", "--output",
        help="output file (default: toggle between <input>.slpb and .slp.json)",
    )
    p_convert.add_argument(
        "--to", choices=["binary", "json"],
        help="target format (default: inferred from the output extension, "
        "else the opposite of the input format)",
    )

    p_stats = sub.add_parser(
        "stats", help="show grammar statistics",
        parents=[engine_parent, connect_parent],
    )
    p_stats.add_argument(
        "grammar", nargs="?",
        help=".slp.json or .slpb file (optional with --connect, which "
        "reports the daemon's status instead)",
    )
    p_stats.add_argument(
        "--profile", action="store_true",
        help="also time a probe preprocessing build plus a store "
        "save/restore round-trip with the active kernel",
    )

    p_decompress = sub.add_parser("decompress", help="expand an SLP back to text")
    p_decompress.add_argument("grammar", help=".slp.json file")
    p_decompress.add_argument("-o", "--output", help="output file (default: stdout)")
    p_decompress.add_argument(
        "--limit", type=int, default=10_000_000,
        help="refuse to expand documents longer than this (default 10M)",
    )

    p_query = sub.add_parser(
        "query", help="evaluate a spanner on a compressed document",
        parents=[engine_parent, connect_parent],
    )
    p_query.add_argument("grammar", help=".slp.json file")
    p_query.add_argument("pattern", help="spanner regex, e.g. '.*(?P<x>ab).*'")
    p_query.add_argument(
        "--alphabet",
        help="document alphabet (default: the grammar's terminals)",
    )
    p_query.add_argument(
        "--task", choices=["enumerate", "count", "nonempty", "check"],
        default="enumerate",
    )
    p_query.add_argument("--limit", type=int, default=20, help="max results to print")
    p_query.add_argument(
        "--rank", type=int, help="print only the result with this rank (0-based)"
    )
    p_query.add_argument(
        "--span", action="append", default=[],
        help="for --task check: VAR=START,END (1-based, end-exclusive); repeatable",
    )
    p_query.add_argument(
        "--show-text", action="store_true",
        help="also print the extracted substrings (expands only the spans)",
    )

    p_batch = sub.add_parser(
        "batch",
        help="evaluate many patterns over many documents, sharing work",
        parents=[
            engine_parent,
            _jobs_parent(
                1,
                "shard the batch across N worker processes (each hydrates "
                "its own engine; with --store the fleet shares one table "
                "store)",
            ),
            connect_parent,
        ],
    )
    p_batch.add_argument("grammars", nargs="+", help=".slp.json files")
    p_batch.add_argument(
        "-p", "--pattern", action="append", required=True, dest="patterns",
        help="spanner regex (repeatable; every pattern runs on every grammar)",
    )
    p_batch.add_argument(
        "--alphabet",
        help="shared alphabet (default: union of all grammars' terminals)",
    )
    p_batch.add_argument(
        "--task", choices=list(PRINTABLE_BATCH_TASKS), default="count",
    )
    p_batch.add_argument(
        "--limit", type=int, default=10,
        help="max results printed per (grammar, pattern) pair (enumerate)",
    )
    p_batch.add_argument(
        "--cache-stats", action="store_true",
        help="print engine cache hit/miss statistics after the batch",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived service daemon (persistent worker fleet "
        "behind a unix socket)",
        parents=[
            engine_parent,
            _jobs_parent(
                max(1, os.cpu_count() or 1),
                "size of the persistent worker fleet (default: all cores)",
            ),
        ],
    )
    p_serve.add_argument(
        "--socket", required=True, metavar="PATH",
        help="unix socket to listen on (created owner-only; clients use "
        "--connect PATH)",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock cap per job (default: none)",
    )
    p_serve.add_argument(
        "--max-pending-jobs", type=int, default=32, metavar="N",
        help="admission bound across all clients: past N concurrently "
        "admitted jobs, new submissions get a structured 'busy' "
        "refusal instead of unbounded queueing (default 32)",
    )
    p_serve.add_argument(
        "--max-jobs-per-client", type=int, default=8, metavar="N",
        help="per-connection admission bound (default 8)",
    )
    p_serve.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="hung-shard watchdog: execution allowance for a mean-cost "
        "shard before its worker is killed and the shard retried "
        "(costlier shards get proportionally longer, each failed "
        "attempt doubles it; default: disabled)",
    )

    p_ping = sub.add_parser(
        "ping",
        help="liveness probe: exit 0 iff a daemon answers ping on the "
        "socket within --timeout",
    )
    p_ping.add_argument(
        "--connect", required=True, metavar="SOCKET",
        help="unix socket of the daemon (see 'repro-spanner serve')",
    )
    p_ping.add_argument(
        "--timeout", type=float, default=5.0, metavar="SECONDS",
        help="bound on the dial and on the ping round trip (default 5)",
    )

    p_cancel = sub.add_parser(
        "cancel",
        help="abort tagged jobs on a running daemon (see --tag on "
        "query/batch)",
    )
    p_cancel.add_argument("tag", metavar="TAG", help="cancellation tag to match")
    p_cancel.add_argument(
        "--connect", required=True, metavar="SOCKET",
        help="unix socket of the daemon (see 'repro-spanner serve')",
    )
    return parser


def _configure_trace(args) -> None:
    """Point the process-global tracer at ``--trace PATH`` (if given)."""
    trace = getattr(args, "trace", None)
    if trace:
        from repro.obs.trace import get_tracer

        get_tracer().configure(trace)


def cmd_compress(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        document = fh.read()
    if not document:
        print("error: input document is empty", file=sys.stderr)
        return 1
    slp = COMPRESSORS[args.method](document)
    output = args.output or args.input + ".slp.json"
    slp_io.save_file(slp, output)
    stats = slp_stats(slp)
    print(
        f"{args.input}: {stats['length']:,} symbols -> grammar size "
        f"{stats['size']:,} (ratio {stats['ratio']:.2f}x, depth {stats['depth']})"
    )
    print(f"wrote {output}")
    return 0


def cmd_convert(args) -> int:
    is_binary_input = slp_io.sniff_format(args.grammar) == "binary"
    slp = slp_io.load_file(args.grammar)
    target = args.to
    if target is None and args.output:
        target = "binary" if args.output.endswith(".slpb") else (
            "json" if args.output.endswith(".json") else None
        )
    if target is None:
        target = "json" if is_binary_input else "binary"
    if args.output:
        output = args.output
    else:
        base = args.grammar
        for suffix in (".slpb", ".slp.json", ".json"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
                break
        output = base + (".slpb" if target == "binary" else ".slp.json")
    if target == "binary":
        slp_io.save_binary(slp, output)
    else:
        slp_io.save_file(slp, output)
    print(
        f"{args.grammar} -> {output} ({target}, {os.path.getsize(output):,} bytes, "
        f"digest {slp.structural_digest()})"
    )
    return 0


def _print_service_status(socket_path: str) -> None:
    """The daemon's ping payload, printed in stats' key/value style.

    An unreachable daemon raises :class:`~repro.service.ServiceError`,
    which ``main`` turns into the usual ``error: ...`` exit.
    """
    from repro.service.client import ServiceClient

    with ServiceClient(socket_path, timeout=30.0) as client:
        info = client.ping()
        metrics = client.metrics()
    print(f"{'service_socket':18s} {socket_path}")
    print(f"{'service_pid':18s} {info['pid']}")
    print(f"{'service_uptime':18s} {info['uptime']:.1f} s")
    print(f"{'service_requests':18s} {info['requests']}")
    print(f"{'service_jobs_run':18s} {info['jobs_run']}")
    fleet = info["fleet"]
    print(f"{'fleet_workers':18s} {fleet['alive']} of {fleet['jobs']} alive")
    scheduler = info.get("scheduler") or {}
    if scheduler:
        print(
            f"{'sched_jobs':18s} {scheduler.get('active_jobs', 0)} active "
            f"({scheduler.get('queued_shards', 0)} shards queued, "
            f"{scheduler.get('inflight_shards', 0)} in flight)"
        )
        print(
            f"{'sched_totals':18s} {scheduler.get('jobs_completed', 0)} done, "
            f"{scheduler.get('jobs_failed', 0)} failed, "
            f"{scheduler.get('jobs_cancelled', 0)} cancelled, "
            f"{scheduler.get('jobs_rejected_busy', 0)} busy-rejected"
        )
    config = info["config"]
    print(f"{'fleet_store':18s} {config['store_dir'] or '(none)'}")
    print(f"{'fleet_kernel':18s} {config['kernel'] or 'auto'}")
    _print_service_metrics(metrics)


def _print_service_metrics(metrics: dict) -> None:
    """Highlights of the daemon's merged metrics + the slow-query log."""
    combined = metrics.get("combined") or {}
    counters = combined.get("counters") or {}
    histograms = combined.get("histograms") or {}
    interesting = (
        "wire.frames",
        "worker.shards_done",
        "engine.prep_builds",
        "store.restores",
        "store.writes",
    )
    parts = [
        f"{name}={counters[name]}" for name in interesting if name in counters
    ]
    if parts:
        print(f"{'metrics':18s} " + "  ".join(parts))
    for name in ("scheduler.job_seconds", "scheduler.shard_seconds"):
        hist = histograms.get(name)
        if hist and hist.get("count"):
            print(
                f"{name:18s} {hist['count']} samples, "
                f"mean {hist['total'] / hist['count'] * 1e3:.1f} ms, "
                f"max {hist['max'] * 1e3:.1f} ms"
            )
    slow = (metrics.get("daemon") or {}).get("slow") or []
    for entry in slow[:5]:
        tags = entry.get("tags") or {}
        detail = " ".join(f"{k}={v}" for k, v in sorted(tags.items()))
        print(
            f"{'slow_query':18s} {entry['seconds'] * 1e3:.1f} ms  "
            f"{entry['name']}  {detail}".rstrip()
        )


def cmd_stats(args) -> int:
    _configure_trace(args)
    if args.connect:
        _print_service_status(args.connect)  # a dead daemon raises -> error exit
        if args.grammar is None:
            return 0
    elif args.grammar is None:
        print(
            "error: stats needs a grammar file (or --connect SOCKET)",
            file=sys.stderr,
        )
        return 1
    slp = slp_io.load_file(args.grammar)
    for key, value in slp_stats(slp).items():
        print(f"{key:18s} {value}")
    # The content address: this is what engine structural keys, .slpb
    # headers and the preprocessing store key entries by.
    print(f"{'structural_digest':18s} {slp.structural_digest()}")
    if args.store:
        from repro.core.prepared import PreparedDocument
        from repro.store import PreprocessingStore

        if not os.path.isdir(args.store):
            # Read-only inspection must not conjure up an empty store at
            # a mistyped path and report a plausible "0 of 0".
            print(
                f"error: store directory {args.store!r} does not exist",
                file=sys.stderr,
            )
            return 1
        store = PreprocessingStore(args.store)
        # .prep filenames are one-way hashes; entries are correlated with
        # this grammar through the padded form's digest in their headers
        # (default engine padding: balance on, '#' end symbol).
        padded_digest = PreparedDocument(slp).padded.structural_digest()
        entries = store.scan_headers()
        matching = [e for e in entries if e.padded_digest == padded_digest]
        print(f"{'padded_digest':18s} {padded_digest}")
        print(
            f"{'store_entries':18s} {len(matching)} of {len(entries)} "
            f"in {args.store}"
        )
        for entry in matching:
            print(
                f"  {entry.filename}  automaton {entry.automaton_digest}  "
                f"q={entry.q}"
            )
    if args.profile:
        _print_profile(slp, args.kernel)
    return 0


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f} ms"


def _print_profile(slp, kernel_spec: str) -> None:
    """Time a probe preprocessing build + store round-trip (stats --profile).

    Timed through :class:`~repro.obs.trace.Stopwatch`, so with ``--trace``
    the same probe stages also land in the JSONL trace as spans.
    """
    import tempfile

    from repro.core.kernels import resolve_kernel
    from repro.core.matrices import Preprocessing
    from repro.core.prepared import PreparedDocument, PreparedSpanner
    from repro.obs.trace import stopwatch
    from repro.store import PreprocessingStore

    kernel = resolve_kernel(None if kernel_spec == "auto" else kernel_spec)
    # A one-variable universal probe: valid over any alphabet, so the
    # timings reflect this grammar, not a hand-picked pattern.
    alphabet = "".join(sorted(slp.alphabet))
    probe = compile_spanner(r".*(?P<x>.).*", alphabet=alphabet)
    doc = PreparedDocument(slp)
    span = PreparedSpanner(probe)
    automaton = span.padded_dfa

    with stopwatch("profile.prep_build", kernel=kernel.name) as t_build:
        prep = Preprocessing(doc.padded, automaton, kernel=kernel)

    slp_digest = slp.structural_digest()
    auto_digest = automaton.structural_digest()
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
        store = PreprocessingStore(tmp)
        with stopwatch("profile.store_save", kernel=kernel.name) as t_save:
            store.save(slp_digest, auto_digest, prep)
        with stopwatch("profile.store_restore", kernel=kernel.name) as t_restore:
            restored = store.load(
                slp_digest, auto_digest, doc.padded, automaton, kernel=kernel
            )
    detected = " (auto-detected)" if kernel_spec == "auto" else ""
    print(f"{'kernel':18s} {kernel.name}{detected}")
    print(f"{'prep_build':18s} {_fmt_ms(t_build.seconds)}  (probe DFA, q={prep.q})")
    print(f"{'store_save':18s} {_fmt_ms(t_save.seconds)}")
    status = "hit" if restored is not None else "MISS"
    print(f"{'store_restore':18s} {_fmt_ms(t_restore.seconds)}  ({status})")


def cmd_decompress(args) -> int:
    slp = slp_io.load_file(args.grammar)
    if slp.length() > args.limit:
        print(
            f"error: document has {slp.length():,} symbols, over the "
            f"--limit of {args.limit:,}",
            file=sys.stderr,
        )
        return 1
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        for symbol in iter_symbols(slp):
            out.write(symbol)
    finally:
        if args.output:
            out.close()
    return 0


def _parse_span(spec: str) -> tuple:
    try:
        var, bounds = spec.split("=", 1)
        start, end = bounds.split(",", 1)
        return var, Span(int(start), int(end))
    except ValueError:
        raise ReproError(f"bad --span {spec!r}; expected VAR=START,END")


def _extract_text(slp, tup: SpanTuple) -> dict:
    from repro.slp.derive import substring

    return {
        var: "".join(substring(slp, span.start - 1, span.end - 1))
        for var, span in tup.items()
    }


def _engine_options(args) -> dict:
    """:class:`~repro.session.SessionConfig` fields of the engine options."""
    return dict(
        store_dir=args.store or None,
        # An absent flag is auto: identity keys in one process, content
        # digests whenever work crosses into workers or the daemon.
        structural_keys=True if args.structural_keys else None,
        kernel=None if args.kernel == "auto" else args.kernel,
        trace=args.trace or None,
    )


def _session(args):
    """The one :class:`~repro.session.Session` a query or batch runs on:
    in process (serial, or a worker pool with ``--jobs N``) or, with
    ``--connect``, a client of the daemon."""
    from repro.session import connect

    return connect(
        args.connect or None,
        jobs=getattr(args, "jobs", 1),
        priority=args.priority,
        tag=args.tag,
        deadline_ms=args.deadline_ms,
        **_engine_options(args),
    )


def cmd_query(args) -> int:
    if args.connect and args.rank is not None:
        print(
            "error: --rank needs an in-process session "
            "(drop --connect for ranked access)",
            file=sys.stderr,
        )
        return 1
    with _session(args) as session:
        if args.connect:
            # The daemon decodes the grammar and compiles the pattern
            # itself; the pattern travels as a recipe, the document as a
            # path.  --show-text still expands spans from the local file.
            from repro.engine.spec import SpannerSpec

            alphabet = args.alphabet or "".join(
                sorted(slp_io.peek_alphabet(args.grammar))
            )
            spanner = SpannerSpec(pattern=args.pattern, alphabet=alphabet)
            document = args.grammar
            slp = slp_io.load_file(args.grammar) if args.show_text else None
        else:
            slp = document = slp_io.load_file(args.grammar)
            alphabet = args.alphabet or "".join(sorted(slp.alphabet))
            spanner = compile_spanner(args.pattern, alphabet=alphabet)

        if args.task == "nonempty":
            nonempty = session.is_nonempty(spanner, document)
            print("nonempty" if nonempty else "empty")
            return 0
        if args.task == "count":
            print(session.count(spanner, document))
            return 0
        if args.task == "check":
            if not args.span:
                print(
                    "error: --task check needs at least one --span",
                    file=sys.stderr,
                )
                return 1
            tup = SpanTuple(dict(_parse_span(s) for s in args.span))
            result = session.model_check(spanner, document, tup)
            print(f"{tup}: {'IN' if result else 'NOT IN'} the relation")
            return 0 if result else 2

        # enumerate / ranked access
        if args.rank is not None:
            tup = session.ranked(spanner, document).select_tuple(args.rank)
            line = str(tup)
            if args.show_text:
                line += f"   {_extract_text(slp, tup)}"
            print(f"#{args.rank}: {line}")
            return 0
        # --limit <= 0 still shows one tuple.
        cap = max(args.limit, 1)
        shown = 0
        for tup in session.enumerate(spanner, document, limit=cap):
            line = str(tup)
            if args.show_text:
                line += f"   {_extract_text(slp, tup)}"
            print(line)
            shown += 1
        if shown == cap:
            remaining = session.count(spanner, document) - shown
            if remaining > 0:
                print(f"... ({remaining:,} more; raise --limit or use --rank)")
        if shown == 0:
            print("(no results)")
        return 0


def _print_batch_items(args, items) -> None:
    """The batch output, shared verbatim by every execution route."""
    for item in items:
        doc = args.grammars[item.document_index]
        pattern = args.patterns[item.spanner_index]
        header = f"{doc} :: {pattern}"
        if args.task == "count":
            print(f"{header} -> {item.result}")
        elif args.task == "nonempty":
            print(f"{header} -> {'nonempty' if item.result else 'empty'}")
        else:
            print(f"{header}:")
            for tup in item.result:
                print(f"  {tup}")
            if not item.result:
                print("  (no results)")


def cmd_batch(args) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 1
    if args.connect and args.jobs != 1:
        print(
            "note: --jobs is ignored with --connect; the daemon's "
            "fleet size applies",
            file=sys.stderr,
        )
    with _session(args) as session:
        # One decode per grammar: the serial engine gets the grammars
        # loaded here, while workers and the daemon decode their own from
        # paths, so the union alphabet comes from .slpb headers instead.
        if args.connect or args.jobs > 1:
            documents = list(args.grammars)
            alphabets = [] if args.alphabet else [
                slp_io.peek_alphabet(path) for path in args.grammars
            ]
        else:
            documents = [slp_io.load_file(path) for path in args.grammars]
            alphabets = [slp.alphabet for slp in documents]
        alphabet = args.alphabet or "".join(sorted(set().union(*alphabets)))
        if args.connect:
            # Patterns travel as recipes: the daemon compiles (and caches)
            # them and returns the real compile error on a bad one.
            from repro.engine.spec import SpannerSpec

            spanners = [
                SpannerSpec(pattern=p, alphabet=alphabet) for p in args.patterns
            ]
        else:
            spanners = [compile_spanner(p, alphabet=alphabet) for p in args.patterns]
        limit = args.limit if args.task == "enumerate" else None
        items = session.batch(spanners, documents, task=args.task, limit=limit)
        stats = session.stats() if args.cache_stats else None
    _print_batch_items(args, items)
    if stats is None:
        return 0
    if args.connect:
        fleet = stats["fleet"]
        print(
            f"# service {args.connect}: pid {stats['pid']}, "
            f"{stats['jobs_run']} jobs over {stats['requests']} requests, "
            f"{fleet['alive']}/{fleet['jobs']} workers "
            f"(uptime {stats['uptime']:.1f}s)"
        )
        return 0
    for name, cache in stats["cache"].items():
        print(
            f"# cache {name} [{cache.key_mode}]: {cache.hits} hits, "
            f"{cache.misses} misses, {cache.evictions} evictions "
            f"(hit rate {cache.hit_rate:.0%})"
        )
    store = stats["store"]
    if store is not None:
        print(
            f"# store {args.store}: {store.hits} hits, "
            f"{store.misses} misses, {store.rejects} rejects, "
            f"{store.writes} writes"
        )
    return 0


def cmd_serve(args) -> int:
    from repro.service.server import serve
    from repro.session import SessionConfig

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 1
    config = SessionConfig(
        jobs=args.jobs,
        timeout=args.timeout,
        max_pending_jobs=args.max_pending_jobs,
        max_jobs_per_client=args.max_jobs_per_client,
        shard_timeout=args.shard_timeout,
        **_engine_options(args),
    )
    return serve(
        config,
        args.socket,
        announce=lambda line: print(line, flush=True),
    )


def cmd_ping(args) -> int:
    """Liveness probe (``repro-spanner ping --connect PATH``).

    Exit 0 iff a healthy daemon answers ``ping`` within ``--timeout``;
    non-zero (with a diagnostic on stderr) otherwise — connect refused,
    dial timeout, a stalled daemon, a garbled response.  Built for
    health checks: ``repro-spanner ping --connect /run/repro.sock``.
    """
    from repro.service.client import ServiceClient
    from repro.service.protocol import ServiceError

    # retries=0: a probe reports the daemon's state *now*; retry policy
    # belongs to whatever supervisor invokes the probe.
    client = ServiceClient(
        args.connect,
        timeout=args.timeout,
        connect_timeout=args.timeout,
        retries=0,
    )
    try:
        info = client.ping()
    except ServiceError as exc:
        print(f"unhealthy: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    fleet = info.get("fleet") or {}
    print(
        f"ok: pid {info.get('pid')}, uptime {info.get('uptime', 0.0):.1f}s, "
        f"{fleet.get('alive', '?')}/{fleet.get('jobs', '?')} workers alive"
    )
    return 0


def cmd_cancel(args) -> int:
    from repro.service.client import ServiceClient

    with ServiceClient(args.connect, timeout=30.0) as client:
        cancelled = client.cancel(args.tag)
    print(f"cancelled {cancelled} job(s) tagged {args.tag!r}")
    # "nothing matched" exits nonzero so scripts can tell a no-op from a
    # kill, the way `pkill` does
    return 0 if cancelled else 2


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "compress": cmd_compress,
        "convert": cmd_convert,
        "stats": cmd_stats,
        "decompress": cmd_decompress,
        "query": cmd_query,
        "batch": cmd_batch,
        "serve": cmd_serve,
        "ping": cmd_ping,
        "cancel": cmd_cancel,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
