"""The four workloads: inputs, set-up, one op, its oracle check, mechanism guards.

Every op goes through the public API (``repro.connect()`` / ``Session``,
``repro-spanner serve``) from one client thread in a closed loop, and
every answer is checked against the oracle in :mod:`spanbench.inputs`.
``spanbench/README.md`` records why each workload exists, which layers
it loads and bypasses, and which ROADMAP item it judges.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

import repro
from repro.engine.spec import SpannerSpec
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer, read_trace
from repro.spanner.regex import compile_spanner
from repro.workloads.queries import pair_spanner

from spanbench.inputs import (
    S1_ALPHABET,
    S1_PATTERN,
    Document,
    abba_spans,
    block_documents,
    iter_spans,
    log_document,
    log_pairs,
)
from spanbench.layers import PER_CALL, LayerClock, daemon_split, span_union
from spanbench.procs import Daemon, peak_rss_kb, reset_peak_rss

#: Loop seconds between two restart-and-stream probes of a count workload:
#: spread over the whole run, the probes see the same mix of fast and slow
#: host phases as the ops.
PROBE_INTERVAL_S = 0.6
#: Cache capacities of the ingest session.
INGEST_CACHE = 8
#: Timed-layer metric name -> the :class:`LayerClock` layer it reports.
TIMED_LAYERS = {
    "slp_io.decode_ms": "slp_io.decode",
    "keying.digest_ms": "keying.digest",
    "prepared_document.balance_ms": "prepared_document.balance",
    "prepared_document.pad_ms": "prepared_document.pad",
    "prepared_spanner.ms": "prepared_spanner",
    "kernel.build_planes_ms": "kernel.build_planes",
    "kernel.build_counts_ms": "kernel.build_counts",
    "store.save_ms": "store.save",
    "store.restore_ms": "store.restore",
}
#: Program counters read per op (in process) or per loop (daemon).
COUNTERS = {
    "kernel.builds": "engine.prep_builds",
    "store.save_bytes": "store.save_bytes",
    "store.restore_bytes": "store.restore_bytes",
}
#: Every per-layer metric and its unit, in report order.
PER_LAYER_UNITS = {
    **{name: "ms" for name in TIMED_LAYERS},
    "kernel.builds": "count",
    "store.save_bytes": "bytes",
    "store.restore_bytes": "bytes",
    "enumeration.next_us": "us",
    "markers.decode_us": "us",
    "engine.prep_hit_ratio": "ratio",
    "wire.ms": "ms",
    "wire.request_bytes": "bytes",
    "wire.response_bytes": "bytes",
    "service.ms": "ms",
    "scheduler.queue_ms": "ms",
    "worker.shard_ms": "ms",
    "parallel.pool_ms": "ms",
    "parallel.shard_ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}


def counter(name: str) -> int:
    """The value of one counter of this process's metrics registry."""
    return int(get_registry().counter(name).value)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..1) of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def prep_counts(session: Any) -> Tuple[int, int]:
    """``(hits, misses)`` of an in-process session's preprocessing cache."""
    stats = session.stats()["cache"]["preprocessings"]
    return stats.hits, stats.misses


def store_bytes(directory: str) -> Dict[str, int]:
    """``.prep`` file name -> size, for every entry in a store directory."""
    return {
        name: os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
        if name.endswith(".prep")
    }


def stream(session: Any, spanner: Any, path: str) -> Tuple[List[Any], float, List[float]]:
    """Enumerate one relation: ``(tuples, first-result s, gaps s)``.

    The clock starts before the call, so the first result includes the
    store restore and every preparation step the session runs first.
    """
    tuples: List[Any] = []
    gaps: List[float] = []
    started = time.perf_counter()
    last = started
    for item in session.enumerate(spanner, path):
        now = time.perf_counter()
        gaps.append(now - last)
        last = now
        tuples.append(item)
    if not gaps:
        raise RuntimeError("empty relation")
    return tuples, gaps[0], gaps[1:]


class Workload:
    """Shared bookkeeping; subclasses supply inputs, set-up and the op."""

    name = ""
    #: Set-up repetitions in an untraced run (``setup_s`` is their median).
    setup_reps = 3
    #: Whether an untraced loop interleaves probes (the count workloads).
    probes = True

    def __init__(self, root: str, work: str, seed: int, seconds: float) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.inputs = os.path.join(work, "inputs")
        os.makedirs(self.inputs)
        self._setups = 0
        #: Process groups of every daemon this workload spawned.
        self.groups: List[int] = []
        #: Per traced op: the layer readings the workload collected.
        self.readings: List[Dict[str, Any]] = []
        #: Stream metrics: first-result seconds of every stream.
        self.firsts: List[float] = []
        #: Per stream, its between-result seconds.
        self.streams: List[List[float]] = []
        self.probe_failures: List[str] = []
        self.clock = LayerClock()

    def fresh_dir(self, stem: str) -> str:
        self._setups += 1
        path = os.path.join(self.work, f"{stem}{self._setups}")
        os.makedirs(path)
        return path

    # -- hooks --------------------------------------------------------------

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def max_ops(self) -> int:
        return 1 << 30

    def op(self, index: int, traced: bool) -> Any:
        raise NotImplementedError

    def check(self, index: int, result: Any) -> Optional[str]:
        """``None`` when ``result`` matches the oracle, else why not."""
        raise NotImplementedError

    def snapshot(self) -> Dict[str, Any]:
        """The program counters the mechanism guards compare."""
        raise NotImplementedError

    def guards(self, before: Dict[str, Any], after: Dict[str, Any], ops: int) -> List[str]:
        """Failed mechanism guards (empty when the op took its path)."""
        raise NotImplementedError

    def serving_pids(self) -> List[int]:
        return [os.getpid()]

    def store_ratio(self) -> float:
        """``.prep`` bytes written per plain-text byte ingested (exact)."""
        raise NotImplementedError

    def probe_target(self, k: int) -> Tuple[str, Any, Document]:
        """``(store dir, spanner, document)`` of probe ``k``."""
        raise NotImplementedError

    def layer_metrics(self, untraced: List[float], traced: List[float]) -> Dict[str, float]:
        raise NotImplementedError

    # -- shared pieces ------------------------------------------------------

    def reset_peak(self) -> None:
        for pid in self.serving_pids():
            reset_peak_rss(pid)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_kb(pid) for pid in self.serving_pids()) / 1024.0

    def probe(self) -> None:
        """One restart-and-stream probe: a fresh in-process session over
        the workload's store enumerates S1 on one of its documents."""
        k = len(self.firsts) + len(self.probe_failures)
        store_dir, spanner, document = self.probe_target(k)
        builds = counter("engine.prep_builds")
        try:
            with repro.connect(store_dir=store_dir, kernel="numpy") as session:
                tuples, first, gaps = stream(session, spanner, document.path)
        except Exception as exc:  # a raised error is a failed probe
            self.probe_failures.append(f"probe {k}: raised {exc!r}")
            return
        if counter("engine.prep_builds") != builds:
            self.probe_failures.append(f"probe {k}: built preprocessing")
        elif sorted(iter_spans(tuples, ("x",))) != [(s,) for s in abba_spans(document.text)]:
            self.probe_failures.append(f"probe {k}: relation disagrees with the oracle")
        else:
            self.firsts.append(first)
            self.streams.append(gaps)


class InProcess(Workload):
    """An in-process workload: traced ops run under the :class:`LayerClock`."""

    def traced_call(self, call: Any, prep_counts: Any) -> Any:
        """Run ``call()`` with the layer wrappers installed; keep the reading.

        ``prep_counts()`` gives the session's preprocessing-cache
        ``(hits, misses)``.
        """
        before = {name: counter(c) for name, c in COUNTERS.items()}
        hits, misses = prep_counts()
        self.clock.install()
        started = time.perf_counter()
        try:
            result = call()
        finally:
            latency = time.perf_counter() - started
            self.clock.uninstall()
        reading = self.clock.take()
        reading["latency"] = latency
        for name, c in COUNTERS.items():
            reading[name] = counter(c) - before[name]
        after_hits, after_misses = prep_counts()
        reading["prep_hits"] = after_hits - hits
        reading["prep_misses"] = after_misses - misses
        self.readings.append(reading)
        return result

    def layer_metrics(self, untraced: List[float], traced: List[float]) -> Dict[str, float]:
        """Per-layer metrics from :class:`LayerClock` readings of traced ops."""
        out = {name: 0.0 for name in PER_LAYER_UNITS}
        for name, layer in TIMED_LAYERS.items():
            out[name] = 1e3 * median([r["seconds"].get(layer, 0.0) for r in self.readings])
        for name in COUNTERS:
            out[name] = median([float(r[name]) for r in self.readings])
        for name, layer in zip(("enumeration.next_us", "markers.decode_us"), PER_CALL):
            calls = [c for r in self.readings for c in r["calls"].get(layer, [])]
            out[name] = 1e6 * median(calls)
        hits = sum(r["prep_hits"] for r in self.readings)
        lookups = hits + sum(r["prep_misses"] for r in self.readings)
        out["engine.prep_hit_ratio"] = hits / lookups if lookups else 0.0
        out["trace.overhead_share"] = median(traced) / median(untraced) - 1.0
        out["trace.unattributed_share"] = median(
            [1.0 - sum(r["seconds"].values()) / r["latency"] for r in self.readings]
        )
        return out


class ColdIngest(InProcess):
    """Each op counts S1 on a ``.slpb`` the session and store have never seen."""

    name = "cold_ingest"
    setup_reps = 5
    #: Documents generated per second of run: above the fastest op rate
    #: expected, so the loop normally ends on time, not on inputs.
    DOCS_PER_SECOND = 14
    MIN_DOCS = 120

    def generate(self) -> None:
        count = max(self.MIN_DOCS, int(self.DOCS_PER_SECOND * self.seconds))
        self.documents = block_documents(self.name, self.seed, count, self.inputs)
        [self.warmup] = block_documents(self.name, self.seed, 1, self.inputs, tag="warmup")
        self.session: Any = None

    def setup(self) -> None:
        self.teardown()
        self.store_dir = self.fresh_dir("store")
        # Small caches: an ingest session never sees a document twice.
        self.session = repro.connect(
            store_dir=self.store_dir,
            kernel="numpy",
            jobs=1,
            max_documents=INGEST_CACHE,
            max_preprocessings=INGEST_CACHE,
        )
        self.spanner = compile_spanner(S1_PATTERN, alphabet=S1_ALPHABET)
        if self.session.count(self.spanner, self.warmup.path) != len(abba_spans(self.warmup.text)):
            raise RuntimeError("warm-up count disagrees with the oracle")
        self.stored_before = store_bytes(self.store_dir)

    def teardown(self) -> None:
        if getattr(self, "session", None) is not None:
            self.session.close()
            self.session = None

    def max_ops(self) -> int:
        return len(self.documents)

    def op(self, index: int, traced: bool) -> Any:
        path = self.documents[index].path
        self.ingested = index + 1
        if not traced:
            return self.session.count(self.spanner, path)
        return self.traced_call(
            lambda: self.session.count(self.spanner, path),
            lambda: prep_counts(self.session),
        )

    def check(self, index: int, result: Any) -> Optional[str]:
        expected = len(abba_spans(self.documents[index].text))
        return None if result == expected else f"count {result} != oracle {expected}"

    def snapshot(self) -> Dict[str, Any]:
        stats = self.session.stats()
        return {
            "prep_hits": stats["cache"]["preprocessings"].hits,
            "store_hits": stats["store"].hits,
            "store_writes": stats["store"].writes,
            "builds": counter("engine.prep_builds"),
        }

    def guards(self, before: Dict[str, Any], after: Dict[str, Any], ops: int) -> List[str]:
        delta = {k: after[k] - before[k] for k in before}
        failed = []
        if delta["prep_hits"] or delta["store_hits"]:
            failed.append(f"cache or store hits during cold ops: {delta}")
        if delta["store_writes"] != ops or delta["builds"] != ops:
            failed.append(f"expected one build and one save per op: {delta}")
        return failed

    def store_ratio(self) -> float:
        written = {
            name: size
            for name, size in store_bytes(self.store_dir).items()
            if name not in self.stored_before
        }
        ingested = sum(len(d.text) for d in self.documents[: len(written)])
        return sum(written.values()) / ingested

    def probe_target(self, k: int) -> Tuple[str, Any, Document]:
        return self.store_dir, self.spanner, self.documents[k % self.ingested]


class RestartEnumerate(InProcess):
    """Each op is a fresh session enumerating a stored log's whole relation."""

    name = "restart_enumerate"
    setup_reps = 5
    probes = False

    def generate(self) -> None:
        self.document = log_document(self.name, self.seed, self.inputs)
        self.expected = log_pairs(self.document.text)

    def setup(self) -> None:
        self.store_dir = self.fresh_dir("store")
        self.spanner = pair_spanner()
        with repro.connect(store_dir=self.store_dir, kernel="numpy") as session:
            tuples, _, _ = stream(session, self.spanner, self.document.path)
        if self.check(-1, (tuples, 0.0, [], None)) is not None:
            raise RuntimeError("indexing enumeration disagrees with the oracle")

    def teardown(self) -> None:
        pass  # sessions are per op; the store is removed with the work dir

    def _enumerate(self) -> Tuple[List[Any], float, List[float], Any]:
        with repro.connect(store_dir=self.store_dir, kernel="numpy") as session:
            tuples, first, gaps = stream(session, self.spanner, self.document.path)
        return tuples, first, gaps, session

    def op(self, index: int, traced: bool) -> Any:
        if not traced:
            return self._enumerate()
        holder: List[Any] = []

        def call() -> Any:
            holder.append(self._enumerate())
            return holder[0]

        # Each op's session is new: its counts start at zero.
        return self.traced_call(
            call, lambda: prep_counts(holder[0][3]) if holder else (0, 0)
        )

    def check(self, index: int, result: Any) -> Optional[str]:
        """Compare with the oracle; keep a correct op's stream timings."""
        tuples, first, gaps, _ = result
        found = list(iter_spans(tuples, ("user", "action")))
        if len(found) != len(set(found)) or set(found) != self.expected:
            return f"{len(found)} tuples disagree with the oracle's {len(self.expected)}"
        if index >= 0:
            self.firsts.append(first)
            self.streams.append(gaps)
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {
            "builds": counter("engine.prep_builds"),
            "restores": counter("store.restores"),
        }

    def guards(self, before: Dict[str, Any], after: Dict[str, Any], ops: int) -> List[str]:
        delta = {k: after[k] - before[k] for k in before}
        if delta["builds"] or delta["restores"] != ops:
            return [f"expected zero builds and one store restore per op: {delta}"]
        return []

    def store_ratio(self) -> float:
        return sum(store_bytes(self.store_dir).values()) / len(self.document.text)


class WarmDaemon(Workload):
    """Counts over the wire against a daemon holding four built documents."""

    name = "warm_daemon"
    setup_reps = 3
    DOCUMENTS = 4

    def generate(self) -> None:
        # Four independent texts: a single RePair grammar's sizes would
        # make every op of a run cost the same as its one base text.
        self.documents = block_documents(
            self.name, self.seed, self.DOCUMENTS, self.inputs, images=1
        )
        self.spec = SpannerSpec(pattern=S1_PATTERN, alphabet=S1_ALPHABET)
        self.probe_spanner = compile_spanner(S1_PATTERN, alphabet=S1_ALPHABET)
        self.daemon: Optional[Daemon] = None
        self.session: Any = None
        self.trace_path = os.path.join(self.work, "trace.jsonl")

    def setup(self) -> None:
        self.teardown()
        self.store_dir = self.fresh_dir("store")
        # A socket path relative to this process's directory keeps it
        # under the AF_UNIX length limit wherever the checkout lives;
        # the daemon starts in the same directory.
        socket_path = os.path.relpath(os.path.join(self.store_dir, "d.sock"))
        self.daemon = Daemon(
            os.getcwd(),
            socket_path,
            self.store_dir,
            os.path.join(self.work, "daemon.log"),
            os.path.join(self.root, "src"),
        )
        try:
            self.daemon.start()
        finally:
            if self.daemon.process is not None:
                self.groups.append(self.daemon.pgid)
        self.session = repro.connect(socket_path, timeout=30.0)
        for k, document in enumerate(self.documents):
            result = self.session.count(self.spec, document.path)
            if self.check(k, result) is not None:
                raise RuntimeError("indexing count disagrees with the oracle")

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def op(self, index: int, traced: bool) -> Any:
        path = self.documents[index % self.DOCUMENTS].path
        if not traced:
            return self.session.count(self.spec, path)
        tracer = get_tracer()
        tracer.configure(self.trace_path)
        self.clock.install()
        try:
            with tracer.span("bench.op", op=index) as span:
                result = self.session.count(self.spec, path)
        finally:
            self.clock.uninstall()
            tracer.configure(None)
        reading = self.clock.take()
        reading["trace_id"] = span.span.trace_id
        reading["latency"] = span.span.end - span.span.start
        self.readings.append(reading)
        return result

    def check(self, index: int, result: Any) -> Optional[str]:
        document = self.documents[index % self.DOCUMENTS]
        expected = len(abba_spans(document.text))
        return None if result == expected else f"count {result} != oracle {expected}"

    def snapshot(self) -> Dict[str, Any]:
        from repro.service.client import ServiceClient

        client = ServiceClient(self.daemon.socket_path, timeout=30.0, retries=0)
        try:
            combined = client.metrics()["combined"]["counters"]
            workers = client.ping()["fleet"]["pids"]
        finally:
            client.close()
        keys = (
            "engine.prep_builds",
            "store.restores",
            "store.save_bytes",
            "store.restore_bytes",
            "cache.preprocessings.hits",
            "cache.preprocessings.misses",
        )
        snap: Dict[str, Any] = {k: int(combined.get(k, 0)) for k in keys}
        snap["workers"] = sorted(workers)
        return snap

    def guards(self, before: Dict[str, Any], after: Dict[str, Any], ops: int) -> List[str]:
        failed = []
        builds = after["engine.prep_builds"] - before["engine.prep_builds"]
        restores = after["store.restores"] - before["store.restores"]
        if builds or restores:
            failed.append(f"{builds} builds and {restores} store restores during warm ops")
        if not before["workers"] or before["workers"] != after["workers"]:
            failed.append(f"worker pids changed: {before['workers']} -> {after['workers']}")
        self.loop_counters = {
            k: after[k] - before[k] for k in before if k != "workers"
        }
        self.loop_ops = ops
        return failed

    def serving_pids(self) -> List[int]:
        return [self.daemon.pgid] + self.daemon.worker_pids()

    def store_ratio(self) -> float:
        ingested = sum(len(d.text) for d in self.documents)
        return sum(store_bytes(self.store_dir).values()) / ingested

    def probe_target(self, k: int) -> Tuple[str, Any, Document]:
        return self.store_dir, self.probe_spanner, self.documents[k % self.DOCUMENTS]

    def layer_metrics(self, untraced: List[float], traced: List[float]) -> Dict[str, float]:
        out = {name: 0.0 for name in PER_LAYER_UNITS}
        records = read_trace(self.trace_path)
        splits = []
        for reading in self.readings:
            split = daemon_split(records, reading["trace_id"])
            if split is None:
                raise RuntimeError(f"trace of {reading['trace_id']} lacks a span")
            split["op"] = reading["latency"]
            splits.append(split)
        for name, part in (
            ("wire.ms", "wire"),
            ("service.ms", "service"),
            ("scheduler.queue_ms", "queue"),
            ("worker.shard_ms", "shard"),
        ):
            out[name] = 1e3 * median([s[part] for s in splits])
        out["wire.request_bytes"] = median([float(r["request_bytes"]) for r in self.readings])
        out["wire.response_bytes"] = median([float(r["response_bytes"]) for r in self.readings])
        loop, ops = self.loop_counters, max(1, self.loop_ops)
        for name, key in COUNTERS.items():
            out[name] = loop[key] / ops
        lookups = loop["cache.preprocessings.hits"] + loop["cache.preprocessings.misses"]
        out["engine.prep_hit_ratio"] = (
            loop["cache.preprocessings.hits"] / lookups if lookups else 0.0
        )
        out["trace.overhead_share"] = median(traced) / median(untraced) - 1.0
        out["trace.unattributed_share"] = median(
            [1.0 - s["request"] / s["op"] for s in splits]
        )
        return out


class ParallelCorpus(InProcess):
    """Each op counts S1 over a corpus through an in-process ``Session(jobs=2)``."""

    name = "parallel_corpus"
    setup_reps = 5
    JOBS = 2
    #: Distinct documents in the corpus; each appears twice in it.
    DOCUMENTS = 2

    def generate(self) -> None:
        self.documents = block_documents(
            self.name, self.seed, self.DOCUMENTS, self.inputs, images=1
        )
        self.corpus = [d.path for d in self.documents] * 2
        self.expected = [len(abba_spans(d.text)) for d in self.documents] * 2
        self.spanner = compile_spanner(S1_PATTERN, alphabet=S1_ALPHABET)
        self.session: Any = None
        #: The report of every ``WorkerPool.run`` since set-up, in order.
        self.reports: List[Any] = []
        self.trace_path = os.path.join(self.work, "trace.jsonl")
        self._tap()

    def _tap(self) -> None:
        """Keep the report each ``WorkerPool.run`` returns.

        ``Session`` drops the report; the guards need its per-worker
        store and cache statistics.  The tap only passes the call through.
        """
        from repro.parallel.pool import WorkerPool

        original = WorkerPool.__dict__["run"]
        reports = self.reports

        def run(pool: Any, *args: Any, **kwargs: Any) -> Any:
            report = original(pool, *args, **kwargs)
            reports.append(report)
            return report

        WorkerPool.run = run  # type: ignore[method-assign]
        self._untap = lambda: setattr(WorkerPool, "run", original)

    def setup(self) -> None:
        self._close()
        self.store_dir = self.fresh_dir("store")
        self.session = repro.connect(store_dir=self.store_dir, kernel="numpy", jobs=self.JOBS)
        # Indexing: the first corpus call primes the store with both
        # (duplicated) documents before the workers fan out.
        if self.check(-1, self.session.count_corpus(self.spanner, self.corpus)) is not None:
            raise RuntimeError("indexing counts disagree with the oracle")

    def _close(self) -> None:
        if getattr(self, "session", None) is not None:
            self.session.close()
            self.session = None

    def teardown(self) -> None:
        self._close()
        untap, self._untap = getattr(self, "_untap", None), None
        if untap is not None:
            untap()

    def op(self, index: int, traced: bool) -> Any:
        if not traced:
            return self.session.count_corpus(self.spanner, self.corpus)
        tracer = get_tracer()
        tracer.configure(self.trace_path)
        seen = len(self.reports)
        try:
            with tracer.span("bench.op", op=index) as span:
                result = self.traced_call(
                    lambda: self.session.count_corpus(self.spanner, self.corpus),
                    lambda: self._pool_prep_counts(seen),
                )
        finally:
            tracer.configure(None)
        reading = self.readings[-1]
        reading["trace_id"] = span.span.trace_id
        # Worker counters: each fork starts from this process's values.
        for name, key in COUNTERS.items():
            base = counter(key)
            reading[name] += sum(
                int(snapshot["counters"].get(key, 0)) - base
                for report in self.reports[seen:]
                for snapshot in report.worker_metrics.values()
            )
        return result

    def _pool_prep_counts(self, seen: int) -> Tuple[int, int]:
        """``(hits, misses)`` of the workers' preprocessing caches, summed
        over the pool runs since report ``seen``."""
        hits = misses = 0
        for report in self.reports[seen:]:
            stats = report.cache_stats.get("preprocessings")
            if stats is not None:
                hits, misses = hits + stats.hits, misses + stats.misses
        return hits, misses

    def check(self, index: int, result: Any) -> Optional[str]:
        if list(result) != self.expected:
            return f"counts {list(result)} != oracle {self.expected}"
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {"builds": counter("engine.prep_builds"), "reports": len(self.reports)}

    def guards(self, before: Dict[str, Any], after: Dict[str, Any], ops: int) -> List[str]:
        failed = []
        runs = self.reports[before["reports"] : after["reports"]]
        if len(runs) != ops:
            failed.append(f"{len(runs)} WorkerPool runs for {ops} ops")
        misses = sum(r.store_stats.misses for r in runs if r.store_stats is not None)
        writes = sum(r.store_stats.writes for r in runs if r.store_stats is not None)
        builds = after["builds"] - before["builds"]
        # A worker builds exactly when its fresh engine misses the store.
        if builds or misses or writes:
            failed.append(
                f"builds during warm ops: {builds} in process, "
                f"{misses} worker store misses, {writes} store writes"
            )
        return failed

    def peak_rss_mb(self) -> float:
        """This process's peak plus the largest worker's (workers live one
        op each; the kernel keeps the peak of every child reaped)."""
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (peak_rss_kb(os.getpid()) + children) / 1024.0

    def store_ratio(self) -> float:
        ingested = sum(len(d.text) for d in self.documents)
        return sum(store_bytes(self.store_dir).values()) / ingested

    def probe_target(self, k: int) -> Tuple[str, Any, Document]:
        return self.store_dir, self.spanner, self.documents[k % self.DOCUMENTS]

    def layer_metrics(self, untraced: List[float], traced: List[float]) -> Dict[str, float]:
        out = super().layer_metrics(untraced, traced)
        records = read_trace(self.trace_path)
        pools, shards = [], []
        for reading in self.readings:
            spans = [
                (r["start"], r["end"])
                for r in records
                if r.get("trace") == reading["trace_id"]
                and r.get("name") == "worker.shard"
                and r.get("end") is not None
            ]
            if not spans:
                raise RuntimeError(f"trace of {reading['trace_id']} lacks a worker.shard span")
            shard = span_union(spans)
            shards.append(shard)
            pools.append(reading["seconds"].get("parallel.pool", 0.0) - shard)
        out["parallel.pool_ms"] = 1e3 * median(pools)
        out["parallel.shard_ms"] = 1e3 * median(shards)
        return out


WORKLOADS = {
    w.name: w for w in (ColdIngest, WarmDaemon, RestartEnumerate, ParallelCorpus)
}

