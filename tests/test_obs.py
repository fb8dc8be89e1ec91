"""Tests for ``repro.obs``: tracing, metrics, and their propagation.

The cross-process tests are the point: a spawn-lane parallel worker and
a daemon fleet worker must emit spans that parent back to the client's
root span *through* the pickle/wire boundaries, into the one shared
JSONL sink.  Merging of metrics snapshots must be associative, because
the scheduler merges latest-per-worker snapshots in whatever order
results arrive.
"""

import json
import os
import random
import threading

import pytest

from repro.engine.spec import SpannerSpec
from repro.obs.metrics import (
    TIME_BUCKETS,
    MetricsRegistry,
    merge_snapshots,
    set_registry,
)
from repro.obs.trace import (
    NOOP_SPAN,
    TraceContext,
    Tracer,
    descendants,
    read_trace,
    set_tracer,
)
from repro.parallel import parallel_many
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import ServiceThread
from repro.session import SessionConfig, connect
from repro.slp import io as slp_io
from repro.slp.construct import balanced_slp


@pytest.fixture(autouse=True)
def fresh_registry():
    """Isolate the process-global registry: ``ServiceThread`` daemons run
    in this very process, so counters would leak across tests."""
    set_registry(MetricsRegistry())
    yield
    set_registry(None)


# -- tracer basics ------------------------------------------------------------


class TestTracer:
    def test_disabled_tracer_returns_the_shared_noop(self):
        tracer = Tracer(None)
        handle = tracer.span("anything")
        assert handle is NOOP_SPAN
        with handle as span:
            assert span.context() is None
        assert not tracer.enabled

    def test_span_opens_whenever_some_sink_applies(self, tmp_path):
        # span()'s disabled fast path must not swallow any of the four
        # ways a sink reaches a new span.
        sink = str(tmp_path / "trace.jsonl")
        with Tracer(sink).span("configured") as configured:
            assert configured is not NOOP_SPAN
        tracer = Tracer(None)
        explicit = tracer.span("explicit", path=sink)
        assert explicit is not NOOP_SPAN
        with explicit:
            # the enclosing span's sink applies to a bare nested span
            with tracer.span("enclosed") as enclosed:
                assert enclosed is not NOOP_SPAN
        parent = TraceContext(trace_id="t" * 16, span_id="s" * 16, path=sink)
        with tracer.span("remote", parent=parent) as remote:
            assert remote is not NOOP_SPAN
        # a parent without a path, and nothing else: still disabled
        bare = TraceContext(trace_id="t" * 16, span_id="s" * 16)
        assert tracer.span("bare", parent=bare) is NOOP_SPAN
        assert tracer.span("after") is NOOP_SPAN  # the stack unwound
        outer = tracer.span("outer", path=sink)
        tracer.span("abandoned")  # never finished: unwound with outer
        seen = []
        worker = threading.Thread(target=lambda: seen.append(tracer.span("other")))
        worker.start()
        worker.join()
        assert seen == [NOOP_SPAN]  # a span open on another thread is no sink
        outer.finish()
        assert tracer.span("after") is NOOP_SPAN
        by_name = {r["name"]: r for r in read_trace(sink)}
        assert set(by_name) == {
            "configured", "explicit", "enclosed", "remote", "outer"
        }
        assert by_name["enclosed"]["parent"] == by_name["explicit"]["span"]
        assert by_name["remote"]["parent"] == "s" * 16

    def test_spans_nest_on_the_thread_and_export_jsonl(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        tracer = Tracer(sink)
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
        records = read_trace(sink)
        by_name = {r["name"]: r for r in records}
        assert set(by_name) == {"outer", "inner"}
        outer, inner = by_name["outer"], by_name["inner"]
        assert inner["parent"] == outer["span"]
        assert inner["trace"] == outer["trace"]
        assert outer["parent"] is None
        assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
        assert outer["tags"] == {"kind": "test"}

    def test_context_round_trips_over_the_wire_encoding(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        tracer = Tracer(sink)
        span = tracer.begin("root")
        ctx = span.context()
        assert ctx.path == sink
        decoded = TraceContext.from_wire(ctx.to_wire())
        assert decoded == ctx
        span.finish()
        # tolerant decoding: garbage is None, never an exception
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire({"id": 3}) is None
        assert TraceContext.from_wire("nope") is None

    def test_explicit_parent_wins_and_carries_the_sink(self, tmp_path):
        sink = str(tmp_path / "remote.jsonl")
        parent = TraceContext(trace_id="t" * 16, span_id="s" * 16, path=sink)
        tracer = Tracer(None)  # no local sink: only the parent's applies
        child = tracer.begin("child", parent=parent)
        child.finish()
        [record] = read_trace(sink)
        assert record["parent"] == "s" * 16
        assert record["trace"] == "t" * 16

    def test_error_exit_tags_the_span(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        tracer = Tracer(sink)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        [record] = read_trace(sink)
        assert record["tags"]["error"] == "ValueError"

    def test_read_trace_skips_torn_lines(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        good = {"name": "a", "span": "1", "parent": None}
        sink.write_text(json.dumps(good) + "\n" + '{"name": "torn', "utf-8")
        assert read_trace(str(sink)) == [good]


# -- metrics merge ------------------------------------------------------------


def _random_snapshot(rng):
    # Every observed value is a small multiple of 0.25, so float sums
    # are exact and bit-for-bit associativity is a fair assertion (the
    # real invariant is associativity up to float rounding of totals).
    registry = MetricsRegistry()
    for name in rng.sample(["c.a", "c.b", "c.c", "c.d"], rng.randint(1, 4)):
        registry.counter(name).inc(rng.randint(1, 100))
    for name in rng.sample(["g.x", "g.y"], rng.randint(0, 2)):
        registry.gauge(name).set(rng.randint(0, 200) * 0.25)
    for name in ("h.same", "h.mixed"):
        if rng.random() < 0.8:
            # h.mixed sometimes uses different bounds: the merge must
            # degrade those to a scalar summary, associatively.
            bounds = (
                TIME_BUCKETS
                if name == "h.same" or rng.random() < 0.5
                else (0.5, 1.0)
            )
            hist = registry.histogram(name, bounds)
            for _ in range(rng.randint(1, 5)):
                hist.observe(rng.randint(0, 8) * 0.25)
    for _ in range(rng.randint(0, 3)):
        registry.slow.record(
            f"job:{rng.randint(0, 3)}", rng.randint(0, 20) * 0.25, tag="t"
        )
    return registry.snapshot()


class TestMetrics:
    def test_counters_sum_gauges_max_histograms_bucket_sum(self):
        a = MetricsRegistry()
        a.counter("n").inc(3)
        a.gauge("depth").set(7)
        a.histogram("t", TIME_BUCKETS).observe(0.5)
        b = MetricsRegistry()
        b.counter("n").inc(4)
        b.gauge("depth").set(2)
        b.histogram("t", TIME_BUCKETS).observe(0.0002)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["n"] == 7
        assert merged["gauges"]["depth"] == 7.0
        hist = merged["histograms"]["t"]
        assert hist["count"] == 2
        assert hist["total"] == pytest.approx(0.5002)
        assert sum(hist["counts"]) == 2
        assert hist["bounds"] == list(TIME_BUCKETS)

    def test_histogram_min_max_unset_until_observed(self):
        hist = MetricsRegistry().histogram("h")
        assert (hist.as_dict()["min"], hist.as_dict()["max"]) == (None, None)
        for value in (3, 0.5, 2):
            hist.observe(value)
        summary = hist.as_dict()
        assert (summary["min"], summary["max"], summary["total"]) == (0.5, 3.0, 5.5)
        assert type(summary["max"]) is float

    def test_mismatched_bounds_degrade_to_scalar_summary(self):
        a = MetricsRegistry()
        a.histogram("h", (1.0, 2.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", (5.0,)).observe(3.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        hist = merged["histograms"]["h"]
        assert hist["bounds"] == [] and hist["counts"] == []
        assert hist["count"] == 2
        assert hist["min"] == 0.5 and hist["max"] == 3.0

    def test_merge_is_associative_on_random_snapshots(self):
        rng = random.Random(117)
        for _ in range(25):
            a, b, c = (_random_snapshot(rng) for _ in range(3))
            left = merge_snapshots([merge_snapshots([a, b]), c])
            right = merge_snapshots([a, merge_snapshots([b, c])])
            flat = merge_snapshots([a, b, c])
            assert left == right == flat

    def test_slow_log_keeps_the_global_top_n(self):
        a = MetricsRegistry(slow_limit=2)
        a.slow.record("fast", 0.1, tag="one")
        a.slow.record("slow", 9.0, tag="one")
        b = MetricsRegistry(slow_limit=2)
        b.slow.record("slower", 12.0, tag="two")
        merged = merge_snapshots([a.snapshot(), b.snapshot()], slow_limit=2)
        assert [e["name"] for e in merged["slow"]] == ["slower", "slow"]
        assert merged["slow"][0]["tags"] == {"tag": "two"}


# -- cross-process propagation ------------------------------------------------


def _write_docs(tmp_path, texts):
    paths = []
    for index, text in enumerate(texts):
        path = str(tmp_path / f"doc{index}.slpb")
        slp_io.save_binary(balanced_slp(text), path)
        paths.append(path)
    return paths


class TestPropagation:
    def test_spawn_lane_worker_spans_parent_to_the_root(self, tmp_path):
        sink = str(tmp_path / "trace.jsonl")
        # the parallel API captures the *process-global* tracer's
        # current span as the workers' parent context
        tracer = Tracer(sink)
        set_tracer(tracer)
        spec = SpannerSpec(pattern=r".*(?P<x>a+)b.*", alphabet="ab")
        try:
            with tracer.span("client.root"):
                results = parallel_many(
                    [spec, spec],
                    balanced_slp("aabab" * 20),
                    task="count",
                    jobs=2,
                )
        finally:
            set_tracer(None)
        assert len(results) == 2 and results[0] == results[1] > 0
        records = read_trace(sink)
        root_record = next(r for r in records if r["name"] == "client.root")
        below = descendants(records, root_record["span"])
        shard_spans = [r for r in below if r["name"] == "worker.shard"]
        assert shard_spans, "no worker.shard span parented to the root"
        assert any(r["pid"] != os.getpid() for r in shard_spans), (
            "worker spans should come from other processes"
        )
        # engine internals nest under the worker's shard span
        engine_spans = [r for r in below if r["name"].startswith("engine.")]
        shard_ids = {r["span"] for r in shard_spans}
        assert engine_spans and all(
            r["parent"] in shard_ids for r in engine_spans
        )

    def test_daemon_round_trip_traces_into_one_file(
        self, tmp_path, service_socket
    ):
        sink = str(tmp_path / "trace.jsonl")
        paths = _write_docs(tmp_path, ["abab" * 30, "aabb" * 25])
        spec = SpannerSpec(pattern=r".*(?P<x>a+)b.*", alphabet="ab")
        config = SessionConfig(jobs=2, store_dir=str(tmp_path / "store"))
        with ServiceThread(config, service_socket) as svc:
            with connect(svc.socket_path, trace=sink, timeout=120.0) as session:
                counts = session.corpus(spec, paths, task="count")
        assert counts == [60, 50]
        records = read_trace(sink)
        [root] = [r for r in records if r["name"] == "session.request"]
        below = descendants(records, root["span"])
        names = {r["name"] for r in below}
        assert "service.run" in names
        assert "scheduler.queue" in names
        assert "worker.shard" in names
        assert names & {"engine.kernel_build", "engine.store_restore"}
        # monotonic, non-overlapping stage accounting: every finished
        # span nests inside its parent's interval (one monotonic clock
        # domain across processes on this host)
        by_span = {r["span"]: r for r in records}
        for record in records:
            parent = by_span.get(record.get("parent"))
            if parent is None or parent.get("end") is None:
                continue
            assert parent["start"] <= record["start"]
            assert record["end"] <= parent["end"]
        # the queue span ends at first dispatch, before the job is done
        queue = next(r for r in below if r["name"] == "scheduler.queue")
        run = next(r for r in below if r["name"] == "service.run")
        assert queue["end"] <= run["end"]

    def test_daemon_metrics_op_merges_fleet_snapshots(
        self, tmp_path, service_socket
    ):
        paths = _write_docs(tmp_path, ["abab" * 30])
        spec = SpannerSpec(pattern=r".*(?P<x>a+)b.*", alphabet="ab")
        config = SessionConfig(jobs=1)
        with ServiceThread(config, service_socket) as svc:
            with connect(
                svc.socket_path, timeout=120.0, tag="tenant-a"
            ) as session:
                session.corpus(spec, paths, task="count")
            with ServiceClient(svc.socket_path, timeout=120.0) as client:
                metrics = client.metrics()
                info = client.ping()
        assert {"daemon", "workers", "combined"} <= set(metrics)
        assert metrics["jobs_run"] == 1
        combined = metrics["combined"]
        assert combined["counters"]["worker.shards_done"] >= 1
        assert combined["counters"]["scheduler.jobs_completed"] == 1
        assert combined["counters"]["wire.frames"] >= 1
        assert combined["histograms"]["scheduler.job_seconds"]["count"] == 1
        # the slow-query log attributes the job to its tenant tag
        [entry] = metrics["daemon"]["slow"]
        assert entry["name"] == "job:count"
        assert entry["tags"]["tag"] == "tenant-a"
        # the richer ping carries a slow-log teaser too
        assert "slow" in info


# -- zero-overhead wire compatibility ----------------------------------------


class TestWireCompatibility:
    def test_untraced_run_frames_are_byte_identical_to_legacy(self):
        """Tracing off must not add wire fields: the exact request params
        a pre-tracing client would send, byte-for-byte once packed."""
        captured = {}

        class CapturingClient(ServiceClient):
            def request(self, op, **params):
                captured["op"] = op
                captured["params"] = params
                return {"task": "count", "results": []}

        client = CapturingClient("/nonexistent.sock")
        client.run_grid(["d.slpb"], [], task="count", limit=None, trace=None)
        legacy_params = dict(
            documents=["d.slpb"], spanners=[], task="count", limit=None
        )
        assert captured["params"] == legacy_params
        frame = protocol.pack_frame(
            {"id": 1, "op": captured["op"], **captured["params"]}
        )
        legacy_frame = protocol.pack_frame(
            {"id": 1, "op": "run", **legacy_params}
        )
        assert frame == legacy_frame

    def test_traced_run_attaches_the_context_field(self):
        captured = {}

        class CapturingClient(ServiceClient):
            def request(self, op, **params):
                captured.update(params)
                return {"task": "count", "results": []}

        ctx = TraceContext(trace_id="t" * 16, span_id="s" * 16, path="/t.jsonl")
        CapturingClient("/nonexistent.sock").run_grid(
            ["d.slpb"], [], task="count", trace=ctx.to_wire()
        )
        assert captured["trace"] == {
            "id": "t" * 16,
            "span": "s" * 16,
            "path": "/t.jsonl",
        }
