"""Tests for repro.parallel: sharding, the worker pool, and the APIs.

Process-boundary correctness is the point of this subsystem, so the
tests here run real ``multiprocessing`` workers (kept tiny so the suite
stays fast); the cross-check against the serial engine on randomized
workloads lives in ``tests/test_differential.py``.
"""

import multiprocessing
import os
import tempfile
import time

import pytest

from repro.engine import Engine, EngineConfig, SpannerSpec, TaskSpec, evaluate_corpus
from repro.engine.batch import run_batch
from repro.faults import parse_plan, set_plan
from repro.parallel import (
    ParallelExecutionError,
    WorkItem,
    WorkerPool,
    corpus_items,
    grammar_cost,
    parallel_batch,
    parallel_corpus,
    parallel_many,
    plan_shards,
    spill_corpus,
)
from repro.obs.metrics import get_registry
from repro.parallel.pool import default_start_method
from repro.parallel.sharding import DUPLICATE_COST_FACTOR
from repro.slp import io as slp_io
from repro.slp.construct import balanced_slp
from repro.slp.repair import repair_slp
from repro.session import Session
from repro.spanner.regex import compile_spanner
from repro.store import PreprocessingStore
from repro.workloads import write_corpus

TIMEOUT = 120.0  # generous per-run cap: a hang should fail, not wedge CI


def ab_spanner(pattern=r".*(?P<x>a+)b.*"):
    return compile_spanner(pattern, alphabet="ab")


@pytest.fixture
def small_corpus(tmp_path):
    """Six .slpb files, three distinct contents (duplication 2)."""
    return write_corpus(
        str(tmp_path / "corpus"), 6, duplication=2, doc_length=120, seed=7
    )


# -- sharding -----------------------------------------------------------------


class TestSharding:
    def test_grammar_cost_reads_slpb_header(self, tmp_path):
        slp = repair_slp("abab" * 50)
        path = str(tmp_path / "g.slpb")
        slp_io.save_binary(slp, path)
        assert grammar_cost(path) == len(slp.canonical_order())

    def test_grammar_cost_json_falls_back_to_bytes(self, tmp_path):
        path = str(tmp_path / "g.slp.json")
        slp_io.save_file(repair_slp("abab" * 50), path)
        assert grammar_cost(path) >= 1

    def test_grammar_cost_unreadable_is_one(self, tmp_path):
        assert grammar_cost(str(tmp_path / "missing.slpb")) == 1

    def test_plan_covers_every_item_exactly_once(self, small_corpus):
        items = corpus_items(small_corpus)
        plan = plan_shards(items, 4)
        indices = sorted(i.index for s in plan.shards for i in s.items)
        assert indices == list(range(len(small_corpus)))
        assert plan.num_items == len(small_corpus)

    def test_digest_affinity_groups_duplicates(self, small_corpus):
        items = corpus_items(small_corpus)
        plan = plan_shards(items, 6)
        shard_of = {}
        for shard in plan.shards:
            for item in shard.items:
                shard_of[item.index] = shard.shard_id
        by_digest = {}
        for item in items:
            by_digest.setdefault(item.digest, []).append(item.index)
        for digest, indices in by_digest.items():
            assert len({shard_of[i] for i in indices}) == 1, digest

    def test_duplicates_are_discounted(self, small_corpus):
        items = corpus_items(small_corpus)
        plan = plan_shards(items, 3)
        # 3 digest groups of 2: each shard carries one group whose second
        # item is discounted.
        for shard in plan.shards:
            costs = sorted(item.cost for item in shard.items)
            assert costs[0] == pytest.approx(costs[-1] * DUPLICATE_COST_FACTOR)

    def test_lpt_balances_without_affinity(self):
        items = [
            WorkItem(index=k, path=f"p{k}", cost=c)
            for k, c in enumerate([10, 9, 8, 2, 2, 2, 1, 1, 1])
        ]
        plan = plan_shards(items, 3, digest_affinity=False)
        assert len(plan.shards) == 3
        assert plan.imbalance <= 1.1

    def test_single_shard_plan(self, small_corpus):
        plan = plan_shards(corpus_items(small_corpus), 1)
        assert len(plan.shards) == 1
        assert plan.imbalance == 1.0

    def test_spill_corpus_round_trips(self, tmp_path):
        slps = [balanced_slp(t) for t in ("abab", "babab")]
        paths = spill_corpus(slps, str(tmp_path / "spill"))
        assert [slp_io.load_file(p).structural_digest() for p in paths] == [
            s.structural_digest() for s in slps
        ]


# -- engine-side specs --------------------------------------------------------


class TestSpecs:
    def test_task_spec_validates_task(self):
        with pytest.raises(ValueError, match="unknown batch task"):
            TaskSpec(task="frobnicate")

    def test_spanner_spec_needs_exactly_one_source(self):
        with pytest.raises(ValueError):
            SpannerSpec()
        with pytest.raises(ValueError):
            SpannerSpec(pattern="a", nfa=ab_spanner())
        with pytest.raises(ValueError):
            SpannerSpec(pattern="a")  # no alphabet

    def test_spanner_spec_pattern_resolves(self):
        spec = SpannerSpec(pattern=r"(?P<x>a+)b", alphabet="ab")
        assert (
            spec.resolve().structural_digest()
            == ab_spanner(r"(?P<x>a+)b").structural_digest()
        )

    def test_engine_config_builds_store_backed_engine(self, tmp_path):
        config = EngineConfig(store_dir=str(tmp_path / "s"), structural_keys=True)
        engine = config.build()
        assert engine.structural_keys and engine.store is not None


# -- the worker pool ----------------------------------------------------------


class TestPool:
    def test_results_come_back_in_input_order(self, small_corpus):
        spanner = ab_spanner()
        serial = evaluate_corpus(
            spanner, [slp_io.load_file(p) for p in small_corpus]
        )
        parallel = parallel_corpus(
            spanner, small_corpus, jobs=2, timeout=TIMEOUT
        )
        assert parallel == serial  # same values AND same order

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_report_aggregates_fleet_stats(self, small_corpus, tmp_path):
        report = parallel_corpus(
            ab_spanner(),
            small_corpus,
            task="count",
            jobs=2,
            store=str(tmp_path / "store"),
            timeout=TIMEOUT,
            report=True,
        )
        assert report.jobs == 2
        assert len(report.worker_cache_stats) == 2
        merged = report.cache_stats
        assert merged["preprocessings"].misses >= 1
        # store is shared: the fleet's writes cover all three distinct
        # digests
        assert report.store_stats is not None
        assert len(PreprocessingStore(str(tmp_path / "store"))) == 3

    def test_crashed_worker_shard_is_requeued(self, small_corpus, tmp_path):
        spanner = ab_spanner()
        serial = evaluate_corpus(
            spanner, [slp_io.load_file(p) for p in small_corpus]
        )
        token = f"{tmp_path / 'crash-once'}:1"
        report = parallel_corpus(
            spanner,
            small_corpus,
            jobs=2,
            timeout=TIMEOUT,
            report=True,
            _fault_tokens={0: token},
        )
        assert report.workers_crashed == 1
        assert report.retries == 1
        assert report.results == serial

    def test_single_worker_crash_recovers_via_respawn(self, tmp_path):
        # All docs share one digest -> one shard -> one worker: recovery
        # cannot rely on a "surviving" worker, a replacement is spawned.
        spanner = ab_spanner()
        docs = [balanced_slp("abab") for _ in range(3)]
        serial = evaluate_corpus(spanner, docs)
        token = f"{tmp_path / 'lone-crash'}:1"
        report = parallel_corpus(
            spanner,
            docs,
            jobs=1,
            timeout=TIMEOUT,
            report=True,
            _fault_tokens={0: token},
        )
        assert report.jobs == 1
        assert report.workers_crashed == 1 and report.retries == 1
        assert report.results == serial

    def test_retry_cap_raises(self, small_corpus, tmp_path):
        token = f"{tmp_path / 'crash-forever'}:99"
        with pytest.raises(ParallelExecutionError, match="failed"):
            parallel_corpus(
                ab_spanner(),
                small_corpus,
                jobs=2,
                max_retries=1,
                timeout=TIMEOUT,
                _fault_tokens={0: token},
            )

    def test_in_worker_exception_is_retried_not_fatal(self, small_corpus, tmp_path):
        # A missing file raises inside the worker (no crash): the shard is
        # retried and the run eventually aborts with the traceback, because
        # the failure is deterministic.
        bad = str(tmp_path / "gone.slpb")
        paths = list(small_corpus) + [bad]
        with pytest.raises(ParallelExecutionError, match="gone.slpb"):
            parallel_corpus(
                ab_spanner(), paths, jobs=2, max_retries=1, timeout=TIMEOUT
            )

    def test_spawn_start_method_matches_serial(self, small_corpus, monkeypatch):
        # spawn is the start method on macOS and the likely future
        # default everywhere: results must cross the boundary intact
        # (this is the lane that caught SpanTuple's stale pickled hash).
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "spawn")
        spanner = ab_spanner()
        serial = evaluate_corpus(
            spanner, [slp_io.load_file(p) for p in small_corpus]
        )
        assert (
            parallel_corpus(spanner, small_corpus, jobs=2, timeout=TIMEOUT)
            == serial
        )

    def test_jobs_capped_by_shards(self):
        spanner = ab_spanner()
        docs = [balanced_slp("aab")]
        report = parallel_corpus(
            spanner, docs, jobs=8, timeout=TIMEOUT, report=True
        )
        assert report.jobs == 1  # one shard: no point paying for 8 workers
        assert report.results == evaluate_corpus(spanner, docs)

    def test_unhydratable_fleet_fails_fast_with_the_worker_traceback(
        self, small_corpus
    ):
        """Workers that die before ``ready`` spend the fleet's crash
        budget; past it the call fails with the reported traceback
        instead of respawning until a timeout."""
        started = time.monotonic()
        with pytest.raises(ParallelExecutionError, match="unknown kernel 'bogus'"):
            parallel_corpus(
                ab_spanner(), small_corpus, kernel="bogus", jobs=2, timeout=TIMEOUT
            )
        assert time.monotonic() - started < 5.0
        assert not _leftover_workers()

    def test_shard_timeout_recovers_a_hung_shard(self, small_corpus, tmp_path):
        """The per-call watchdog kills a hung worker and retries its
        shard: the first shard attempt anywhere in the fleet hangs for
        60 s, every later one runs normally."""
        spanner = ab_spanner()
        serial = evaluate_corpus(
            spanner, [slp_io.load_file(p) for p in small_corpus]
        )
        counter = tmp_path / "hang-once"
        set_plan(parse_plan(f"worker.shard:hang:nth=1,counter={counter},arg=60"))
        started = time.monotonic()
        try:
            report = parallel_corpus(
                spanner,
                small_corpus,
                jobs=2,
                shard_timeout=1.0,
                timeout=TIMEOUT,
                report=True,
            )
        finally:
            set_plan(None)
        assert time.monotonic() - started < 30.0
        assert report.watchdog_kills >= 1
        assert report.results == serial


def _leftover_workers():
    """Live ``repro-parallel-*`` children of this process."""
    return [
        p
        for p in multiprocessing.active_children()
        if p.name.startswith("repro-parallel") and p.is_alive()
    ]


class TestShutdown:
    """Abnormal-exit cleanup: no orphan workers, no leaked spill files."""

    def test_context_manager_closes_the_fleet(self, small_corpus):
        from repro.engine.spec import EngineConfig, SpannerSpec, TaskSpec
        from repro.parallel.sharding import corpus_items, plan_shards

        spanner_spec = SpannerSpec(pattern=r".*(?P<x>a+)b.*", alphabet="ab")
        plan = plan_shards(corpus_items(small_corpus), 4)
        with WorkerPool(2, EngineConfig(), timeout=TIMEOUT) as pool:
            report = pool.run(plan, [spanner_spec], TaskSpec(task="count"))
        assert all(isinstance(r, int) for r in report.results)
        assert not _leftover_workers()

    def test_context_manager_aborts_on_error(self, small_corpus):
        from repro.engine.spec import EngineConfig

        with pytest.raises(RuntimeError, match="sentinel"):
            with WorkerPool(2, EngineConfig(), timeout=TIMEOUT):
                raise RuntimeError("sentinel")  # client code blew up
        assert not _leftover_workers()

    def test_keyboard_interrupt_terminates_workers_and_removes_spills(
        self, monkeypatch
    ):
        """The Ctrl-C regression guard: an interrupt mid-run must leave
        neither worker processes nor spill temp directories behind.

        The interrupt is injected into the scheduler's multiplex point
        (``connection.wait``) after the fleet is up and dispatching —
        the worst moment: workers alive, shards in flight, in-memory
        documents spilled to disk.
        """
        from repro.parallel import api as parallel_api
        from repro.parallel import pool as pool_module

        spill_dirs = []
        real_tempdir = tempfile.TemporaryDirectory

        def recording_tempdir(*args, **kwargs):
            tmp = real_tempdir(*args, **kwargs)
            spill_dirs.append(tmp.name)
            return tmp

        monkeypatch.setattr(
            parallel_api.tempfile, "TemporaryDirectory", recording_tempdir
        )

        real_wait = pool_module.connection.wait
        calls = {"n": 0}

        def interrupting_wait(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:  # exactly once, after the first dispatch
                # (process.join reuses connection.wait internally, so a
                # sticky interrupt would re-fire *inside* the cleanup —
                # a real Ctrl-C is a single signal)
                raise KeyboardInterrupt
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(pool_module.connection, "wait", interrupting_wait)

        docs = [balanced_slp("ab" * 30) for _ in range(6)]  # in-memory: spilled
        with pytest.raises(KeyboardInterrupt):
            parallel_corpus(ab_spanner(), docs, jobs=2, timeout=TIMEOUT)

        assert calls["n"] >= 2, "the run never reached the scheduler loop"
        assert not _leftover_workers(), "interrupted run leaked workers"
        assert spill_dirs, "the in-memory corpus was never spilled"
        for directory in spill_dirs:
            assert not os.path.exists(directory), f"leaked spill dir {directory}"

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_repeated_calls_leak_no_descriptors_or_children(self, small_corpus):
        """Every call builds (and must release) its own fleet and
        scheduler, wake pipe included."""
        spanner = ab_spanner()
        parallel_corpus(spanner, small_corpus, jobs=2, timeout=TIMEOUT)  # warm-up
        fds = sorted(os.listdir("/proc/self/fd"))
        children = multiprocessing.active_children()
        for _ in range(20):
            parallel_corpus(spanner, small_corpus, jobs=2, timeout=TIMEOUT)
        assert sorted(os.listdir("/proc/self/fd")) == fds
        assert multiprocessing.active_children() == children

    def test_failed_run_leaves_no_workers(self, small_corpus, tmp_path):
        token = f"{tmp_path / 'always-crash'}:99"
        with pytest.raises(ParallelExecutionError):
            parallel_corpus(
                ab_spanner(),
                small_corpus,
                jobs=2,
                max_retries=0,
                timeout=TIMEOUT,
                _fault_tokens={0: token},
            )
        assert not _leftover_workers()


# -- the API entry points -----------------------------------------------------


class TestApi:
    def test_parallel_corpus_accepts_mixed_docs(self, small_corpus):
        spanner = ab_spanner()
        mixed = [small_corpus[0], balanced_slp("ababab"), small_corpus[1]]
        expected = evaluate_corpus(
            spanner,
            [
                slp_io.load_file(small_corpus[0]),
                balanced_slp("ababab"),
                slp_io.load_file(small_corpus[1]),
            ],
        )
        assert parallel_corpus(spanner, mixed, jobs=2, timeout=TIMEOUT) == expected

    @pytest.mark.parametrize("task", ["evaluate", "enumerate", "count", "nonempty"])
    def test_all_tasks_match_serial(self, small_corpus, task):
        spanner = ab_spanner()
        slps = [slp_io.load_file(p) for p in small_corpus]
        serial = [
            item.result
            for item in run_batch([spanner], slps, task=task, limit=None)
        ]
        parallel = parallel_corpus(
            spanner, small_corpus, task=task, jobs=2, timeout=TIMEOUT
        )
        assert parallel == serial

    def test_enumerate_limit_is_honoured(self, small_corpus):
        results = parallel_corpus(
            ab_spanner(),
            small_corpus,
            task="enumerate",
            limit=2,
            jobs=2,
            timeout=TIMEOUT,
        )
        assert all(len(r) <= 2 for r in results)

    def test_parallel_many_matches_serial(self):
        from repro.engine import evaluate_many

        spanners = [
            ab_spanner(),
            ab_spanner(r"(?P<x>b+)a"),
            ab_spanner(r".*(?P<x>ab)(?P<y>b*).*"),
        ]
        doc = balanced_slp("aabbababab")
        assert parallel_many(
            spanners, doc, jobs=2, timeout=TIMEOUT
        ) == evaluate_many(spanners, doc)

    def test_parallel_batch_matches_run_batch_row_major(self, small_corpus):
        spanners = [ab_spanner(), ab_spanner(r"(?P<x>b+)")]
        slps = [slp_io.load_file(p) for p in small_corpus[:3]]
        serial = run_batch(spanners, slps, task="count")
        parallel = parallel_batch(
            spanners, small_corpus[:3], task="count", jobs=2, timeout=TIMEOUT
        )
        assert [
            (i.document_index, i.spanner_index, i.result) for i in parallel
        ] == [(i.document_index, i.spanner_index, i.result) for i in serial]

    def test_bad_task_fails_fast_in_parent(self, small_corpus):
        with pytest.raises(ValueError, match="unknown batch task"):
            parallel_corpus(ab_spanner(), small_corpus, task="bogus", jobs=2)

    def test_empty_corpus(self):
        assert parallel_corpus(ab_spanner(), [], jobs=2, timeout=TIMEOUT) == []


# -- digest affinity: one build per distinct digest ---------------------------


def fleet_prep_builds(report, parent_before):
    """Lemma 6.5 builds across parent and workers during one pool call.

    Worker snapshots are cumulative per process, and a forked worker
    starts from the parent's counter as it stood at fork time (its
    value now: the parent builds nothing while the pool runs), so that
    inherited value is taken off.
    """
    parent_after = get_registry().counter("engine.prep_builds").value
    inherited = parent_after if default_start_method() == "fork" else 0
    workers = sum(
        snap["counters"].get("engine.prep_builds", 0) - inherited
        for snap in report.worker_metrics.values()
    )
    return workers + parent_after - parent_before


@pytest.fixture
def counted_loads(monkeypatch):
    """Count grammar decodes in this (the calling) process."""
    calls = []
    load_file = slp_io.load_file

    def counting_load_file(path, *args, **kwargs):
        calls.append(path)
        return load_file(path, *args, **kwargs)

    monkeypatch.setattr(slp_io, "load_file", counting_load_file)
    return calls


class TestDigestAffinity:
    """Copies of a grammar share a shard, so the fleet builds each
    distinct digest once and the calling process never decodes."""

    @pytest.fixture
    def dup_corpus(self, tmp_path):
        paths = write_corpus(
            str(tmp_path / "corpus"), 8, duplication=4, doc_length=120, seed=5
        )
        assert len({slp_io.peek_digest(p) for p in paths}) == 2
        return paths

    def test_parallel_corpus_builds_once_then_restores(
        self, dup_corpus, tmp_path, counted_loads
    ):
        spanner, store_dir = ab_spanner(), str(tmp_path / "store")
        serial = evaluate_corpus(
            spanner, [slp_io.load_file(p) for p in dup_corpus]
        )
        del counted_loads[:]

        def run():
            before = get_registry().counter("engine.prep_builds").value
            report = parallel_corpus(
                spanner,
                dup_corpus,
                jobs=2,
                store=store_dir,
                timeout=TIMEOUT,
                report=True,
            )
            assert report.results == serial
            return report, fleet_prep_builds(report, before)

        first, builds = run()
        assert counted_loads == []
        assert builds == 2
        assert first.store_stats.writes == 2
        assert len(PreprocessingStore(store_dir)) == 2
        second, builds = run()
        assert builds == 0
        assert second.store_stats.writes == 0
        assert second.store_stats.hits >= 2
        assert counted_loads == []

    def test_session_fleet_builds_once_then_restores(
        self, dup_corpus, tmp_path, counted_loads
    ):
        spanner = ab_spanner()
        serial = Engine().count_corpus(
            spanner, [slp_io.load_file(p) for p in dup_corpus]
        )
        del counted_loads[:]
        with Session(
            jobs=2, store_dir=str(tmp_path / "store"), timeout=TIMEOUT
        ) as session:
            assert session.count_corpus(spanner, dup_corpus) == serial
            assert counted_loads == []
            first = session.stats()
            assert first["cache"]["preprocessings"].misses == 2
            assert first["store"].writes == 2
            assert session.count_corpus(spanner, dup_corpus) == serial
            second = session.stats()
        assert second["store"].writes == first["store"].writes
        assert second["store"].hits - first["store"].hits >= 2
        assert counted_loads == []
