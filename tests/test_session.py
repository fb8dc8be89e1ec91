"""Tests for the unified Session API (repro.session).

The contract under test: a :class:`Session` is one facade over the
engine, the parallel pool and the service daemon, and every backend
returns *the same values in the same order* as the serial engine.  The
daemon backend's deeper cross-checks live in ``tests/test_service.py``
and the differential harness; here the focus is the facade itself —
configuration resolution, routing, Engine-compatible shapes, and the
compatibility exports.
"""

import pickle
import time

import pytest

import repro
from repro.engine import Engine, EngineConfig, run_batch
from repro.engine.spec import SpannerSpec
from repro.faults import parse_plan, set_plan
from repro.session import Session, SessionConfig, connect
from repro.slp import io as slp_io
from repro.slp.construct import balanced_slp
from repro.spanner.regex import compile_spanner
from repro.spanner.spans import Span, SpanTuple
from repro.workloads import write_corpus


def ab_spanner(pattern=r".*(?P<x>a+)b.*"):
    return compile_spanner(pattern, alphabet="ab")


@pytest.fixture
def docs():
    return [balanced_slp(d) for d in ("aabab", "bbbb", "aab", "ababab")]


# -- SessionConfig ------------------------------------------------------------


class TestSessionConfig:
    def test_defaults_are_in_process_serial(self):
        config = SessionConfig()
        assert config.jobs == 1
        assert config.socket_path is None
        assert config.structural_keys is None  # auto

    def test_structural_keys_auto_resolution(self):
        auto = SessionConfig()
        # serial in-process: identity keys (cheapest correct choice)
        assert auto.resolved_structural_keys(cross_process=False) is False
        # anything crossing a process boundary: digests, always
        assert auto.resolved_structural_keys(cross_process=True) is True
        # explicit settings are never overridden
        assert SessionConfig(structural_keys=True).resolved_structural_keys(
            False
        ) is True
        assert SessionConfig(structural_keys=False).resolved_structural_keys(
            True
        ) is False

    def test_engine_config_carries_every_engine_knob(self, tmp_path):
        config = SessionConfig(
            store_dir=str(tmp_path / "store"),
            kernel="python",
            balance=False,
            end_symbol="$",
            max_documents=7,
            max_spanners=9,
            max_preprocessings=11,
        )
        ec = config.engine_config(cross_process=True)
        assert ec == EngineConfig(
            store_dir=str(tmp_path / "store"),
            structural_keys=True,
            balance=False,
            end_symbol="$",
            max_documents=7,
            max_spanners=9,
            max_preprocessings=11,
            kernel="python",
        )

    def test_config_is_picklable(self):
        config = SessionConfig(jobs=4, kernel="python", socket_path="/x.sock")
        assert pickle.loads(pickle.dumps(config)) == config


# -- connect() ----------------------------------------------------------------


class TestConnect:
    def test_default_is_in_process(self):
        session = connect()
        assert isinstance(session, Session)
        assert session.backend == "in-process"

    def test_keyword_overrides_reach_the_config(self, tmp_path):
        session = connect(store_dir=str(tmp_path), jobs=3, kernel="python")
        assert session.config.store_dir == str(tmp_path)
        assert session.config.jobs == 3

    def test_full_config_plus_overrides(self):
        base = SessionConfig(jobs=2)
        session = connect(config=base, kernel="python")
        assert session.config.jobs == 2
        assert session.config.kernel == "python"
        assert base.kernel is None  # the original is untouched

    def test_socket_path_selects_daemon_backend(self, tmp_path):
        # No daemon is running: the backend must still construct (the
        # client connects lazily) and identify itself.
        session = connect(str(tmp_path / "none.sock"))
        assert session.backend == "daemon"
        session.close()


# -- in-process backend vs the engine ----------------------------------------


class TestInProcessSession:
    def test_single_pair_tasks_match_engine(self, docs):
        spanner = ab_spanner()
        engine = Engine()
        with connect() as session:
            for slp in docs:
                assert session.evaluate(spanner, slp) == engine.evaluate(
                    spanner, slp
                )
                assert session.count(spanner, slp) == engine.count(spanner, slp)
                assert session.is_nonempty(spanner, slp) == engine.is_nonempty(
                    spanner, slp
                )
                assert list(session.enumerate(spanner, slp)) == list(
                    engine.enumerate(spanner, slp)
                )

    def test_enumerate_limit(self, docs):
        spanner = ab_spanner()
        with connect() as session:
            full = list(session.enumerate(spanner, docs[0]))
            capped = list(session.enumerate(spanner, docs[0], limit=1))
            assert capped == full[:1]
            # negative limits clamp to "nothing" (as run_task does on
            # every other backend), never an islice ValueError
            assert list(session.enumerate(spanner, docs[0], limit=-1)) == []

    def test_model_check(self, docs):
        spanner = ab_spanner()
        with connect() as session:
            hits = session.evaluate(spanner, docs[0])
            for tup in hits:
                assert session.model_check(spanner, docs[0], tup)
            assert not session.model_check(
                spanner, docs[0], SpanTuple({"x": Span(1, 1)})
            )

    def test_ranked_access(self, docs):
        spanner = ab_spanner()
        with connect() as session:
            ranked = session.ranked(spanner, docs[0])
            expected = list(session.enumerate(spanner, docs[0]))
            assert [
                ranked.select_tuple(k) for k in range(len(expected))
            ] == expected

    def test_corpus_many_batch_match_run_batch(self, docs):
        spanners = [ab_spanner(), ab_spanner(r"(?P<x>b+)a")]
        serial = run_batch(spanners, docs, task="count")
        with connect() as session:
            batch = session.batch(spanners, docs, task="count")
            assert [
                (i.document_index, i.spanner_index, i.result) for i in batch
            ] == [(i.document_index, i.spanner_index, i.result) for i in serial]
            assert session.corpus(spanners[0], docs, task="count") == [
                i.result for i in serial if i.spanner_index == 0
            ]
            assert session.many(spanners, docs[0], task="count") == [
                i.result for i in serial if i.document_index == 0
            ]

    def test_engine_compatible_wrappers(self, docs):
        spanner = ab_spanner()
        engine = Engine()
        with connect() as session:
            assert session.evaluate_corpus(spanner, docs) == engine.evaluate_corpus(
                spanner, docs
            )
            assert session.count_corpus(spanner, docs) == engine.count_corpus(
                spanner, docs
            )
            assert session.evaluate_many([spanner], docs[0]) == [
                engine.evaluate(spanner, docs[0])
            ]
            assert session.count_many([spanner], docs[0]) == [
                engine.count(spanner, docs[0])
            ]

    def test_accepts_paths_specs_and_slps(self, docs, tmp_path):
        path = str(tmp_path / "d.slpb")
        slp_io.save_binary(docs[0], path)
        spec = SpannerSpec(pattern=r".*(?P<x>a+)b.*", alphabet="ab")
        with connect() as session:
            expected = session.count(ab_spanner(), docs[0])
            assert session.count(spec, path) == expected
            assert session.corpus(spec, [path, docs[1]], task="count") == [
                expected,
                session.count(spec, docs[1]),
            ]

    def test_jobs_routes_batches_through_the_pool(self, docs):
        spanner = ab_spanner()
        serial = Engine().evaluate_corpus(spanner, docs)
        with connect(jobs=2, timeout=120) as session:
            assert session.corpus(spanner, docs) == serial
            # single-pair calls stay on the in-process engine regardless
            assert session.count(spanner, docs[0]) == len(serial[0])

    def test_jobs_honours_shard_timeout(self, tmp_path):
        """The in-process pool arms the hung-shard watchdog from the
        session config: the first shard attempt hangs for 60 s, the
        watchdog kills it after about 1 s and the retry succeeds."""
        spanner = ab_spanner()
        paths = write_corpus(
            str(tmp_path / "corpus"), 6, duplication=2, doc_length=120, seed=7
        )
        serial = Engine().count_corpus(spanner, [slp_io.load_file(p) for p in paths])
        counter = tmp_path / "hang-once"
        set_plan(parse_plan(f"worker.shard:hang:nth=1,counter={counter},arg=60"))
        started = time.monotonic()
        try:
            with Session(jobs=2, shard_timeout=1.0, timeout=120) as session:
                counts = session.count_corpus(spanner, paths)
        finally:
            set_plan(None)
        assert time.monotonic() - started < 30.0
        assert counts == serial

    def test_jobs_ships_the_whole_engine_config(self):
        """The pool's workers hydrate from the session's own engine
        config, not a partial copy: a custom end symbol reaches them (the
        default one occurs in this document), and so do the capacities."""
        spanner = compile_spanner(r".*(?P<x>ab).*", alphabet="ab\x03")
        docs = [balanced_slp("ab\x03ab"), balanced_slp("\x03aab")]
        with connect(jobs=1, end_symbol="$") as serial:
            expected = serial.corpus(spanner, docs, task="count")
        assert expected == [2, 1]
        with connect(
            jobs=2, end_symbol="$", max_preprocessings=11, timeout=120
        ) as session:
            assert session.corpus(spanner, docs, task="count") == expected
            maxsize = session.stats()["cache"]["preprocessings"].maxsize
        assert maxsize > 0 and maxsize % 11 == 0

    def test_jobs_stats_report_the_fleet(self, docs, tmp_path):
        """With jobs > 1 the grid runs on worker engines; stats() folds
        their counters in instead of reporting the idle private engine."""
        spanner = ab_spanner()
        with connect(jobs=2, timeout=120) as session:
            session.count_corpus(spanner, docs)
            prep = session.stats()["cache"]["preprocessings"]
        assert prep.misses >= 1
        assert prep.key_mode == "structural"
        with connect(jobs=2, store_dir=str(tmp_path), timeout=120) as session:
            session.count_corpus(spanner, docs)
            store = session.stats()["store"]
        assert store is not None and store.misses + store.hits >= 1

    def test_unknown_task_rejected(self, docs):
        with connect() as session:
            with pytest.raises(ValueError, match="unknown batch task"):
                session.corpus(ab_spanner(), docs, task="bogus")

    def test_stats_shape_and_repr(self, docs):
        with connect() as session:
            session.count(ab_spanner(), docs[0])
            stats = session.stats()
            assert stats["backend"] == "in-process"
            assert stats["cache"]["preprocessings"].misses >= 1
            assert "in-process" in repr(session)

    def test_store_dir_round_trip(self, docs, tmp_path):
        store = str(tmp_path / "store")
        spanner = ab_spanner()
        with connect(store_dir=store, structural_keys=True) as session:
            expected = session.count(spanner, docs[0])
        with connect(store_dir=store, structural_keys=True) as fresh:
            assert fresh.count(spanner, balanced_slp("aabab")) == expected
            assert fresh.stats()["store"].hits >= 1


# -- export hygiene -----------------------------------------------------------


class TestExports:
    def test_session_api_is_exported(self):
        assert repro.connect is connect
        assert repro.Session is Session
        assert repro.SessionConfig is SessionConfig
        for name in ("connect", "Session", "SessionConfig"):
            assert name in repro.__all__

    def test_compatibility_shims_still_import(self):
        # The pre-Session surfaces must keep working unchanged.
        from repro import Engine as E
        from repro import parallel_corpus, parallel_many, evaluate_corpus

        assert E is Engine
        assert callable(parallel_corpus) and callable(parallel_many)
        assert callable(evaluate_corpus)
        for name in ("Engine", "parallel_corpus", "parallel_many"):
            assert name in repro.__all__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name
