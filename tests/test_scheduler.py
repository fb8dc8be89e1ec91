"""Tests for the multi-tenant fleet scheduler (service layer).

Everything here runs a real daemon (:class:`ServiceThread`) with real
worker processes and drives it over the wire: fairness, priorities,
cancellation, admission control and crash isolation are all properties
of the *whole* stack, not of the scheduler object in isolation.

Timing is made deterministic with the test-only fault hooks
(``_shard_sleep`` / ``_fault_tokens``, gated on the
``REPRO_SERVICE_TEST_FAULTS`` environment variable): a "slow" job is a
job whose shards sleep a known number of seconds, not a job over a
large corpus, so assertions compare against known work totals instead
of machine speed.
"""

from __future__ import annotations

import contextlib
import os
import socket as socket_module
import threading
import time

import pytest

from repro.engine import Engine
from repro.engine.spec import SpannerSpec
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceBusyError, ServiceError
from repro.service.server import TEST_FAULTS_ENV, ServiceThread
from repro.session import SessionConfig
from repro.slp import io as slp_io
from repro.slp.construct import balanced_slp

TIMEOUT = 120.0

SPANNER = SpannerSpec(pattern=r".*(?P<x>a+)b.*", alphabet="ab")


def write_docs(tmp_path, count, *, stem="doc"):
    """``count`` documents with pairwise-distinct texts.

    Distinct content matters: the shard planner groups items by grammar
    digest, so repeating one path ``count`` times would collapse the
    whole batch into a single shard and there would be nothing to
    interleave.
    """
    paths = []
    for k in range(count):
        text = "aabab" * 4 + "ab" * (k + 1)
        path = str(tmp_path / f"{stem}{k}.slpb")
        slp_io.save_binary(balanced_slp(text), path)
        paths.append(path)
    return paths


def serial_counts(paths):
    engine = Engine()
    spanner = SPANNER.resolve()
    return [
        engine.count(spanner, slp_io.load_binary(path)) for path in paths
    ]


@contextlib.contextmanager
def running_daemon(socket_path, tmp_path, **overrides):
    overrides.setdefault("jobs", 2)
    overrides.setdefault("store_dir", str(tmp_path / "prep"))
    with ServiceThread(SessionConfig(**overrides), socket_path) as svc:
        yield svc


class JobThread(threading.Thread):
    """Run one ``run_grid`` call on its own connection, capture the outcome."""

    def __init__(self, socket_path, paths, **kwargs):
        super().__init__(daemon=True)
        self.socket_path = socket_path
        self.paths = paths
        self.kwargs = kwargs
        self.result = None
        self.error = None
        self.elapsed = None
        self.finished_at = None

    def run(self):
        started = time.monotonic()
        try:
            with ServiceClient(self.socket_path, timeout=TIMEOUT) as client:
                self.result = client.run_grid(
                    self.paths, [SPANNER], task="count", **self.kwargs
                )
        except BaseException as exc:  # noqa: B036 - captured for the test body
            self.error = exc
        finally:
            self.finished_at = time.monotonic()
            self.elapsed = self.finished_at - started


@pytest.fixture(autouse=True)
def _enable_fault_hooks(monkeypatch):
    monkeypatch.setenv(TEST_FAULTS_ENV, "1")


# -- fairness and priorities --------------------------------------------------


class TestFairness:
    def test_small_job_overtakes_a_running_batch(self, service_socket, tmp_path):
        """A small query submitted mid-batch must not wait for the batch.

        The batch is 8 shards x 0.5 s of injected sleep on 2 workers
        (>= 2 s of wall clock); under the old FIFO fleet the small job
        would queue behind all of it.  Weighted-fair interleaving must
        get the small job a worker after at most ~one shard's delay.
        """
        big_paths = write_docs(tmp_path, 8, stem="big")
        small_paths = write_docs(tmp_path, 1, stem="small")
        with running_daemon(service_socket, tmp_path, jobs=2) as svc:
            big = JobThread(
                svc.socket_path, big_paths,
                _test_params={"_shard_sleep": 0.5},
            )
            big.start()
            time.sleep(0.4)  # let the batch occupy the fleet
            small = JobThread(svc.socket_path, small_paths)
            small.start()
            small.join(TIMEOUT)
            big.join(TIMEOUT)
        assert big.error is None, big.error
        assert small.error is None, small.error
        assert small.result == serial_counts(small_paths)
        assert big.result == serial_counts(big_paths)
        # the small job finished strictly inside the batch's runtime ...
        assert small.finished_at < big.finished_at
        # ... and quickly: a worker freed after at most one 0.5 s shard.
        assert small.elapsed < 1.5, f"small job took {small.elapsed:.2f}s"

    def test_high_priority_job_is_served_first(self, service_socket, tmp_path):
        """With one worker, a later high-priority job overtakes a low one.

        A blocker shard pins the only worker while both jobs queue; the
        weighted-fair clock then advances the priority-6 job 64x slower
        per shard, so all its shards dispatch before the low job's
        second shard.
        """
        blocker_paths = write_docs(tmp_path, 1, stem="blk")
        low_paths = write_docs(tmp_path, 4, stem="low")
        high_paths = write_docs(tmp_path, 4, stem="high")
        with running_daemon(service_socket, tmp_path, jobs=1) as svc:
            blocker = JobThread(
                svc.socket_path, blocker_paths,
                _test_params={"_shard_sleep": 1.0},
            )
            blocker.start()
            time.sleep(0.3)  # blocker is on the worker; the rest queues
            low = JobThread(
                svc.socket_path, low_paths,
                priority=0, _test_params={"_shard_sleep": 0.2},
            )
            low.start()
            time.sleep(0.1)
            high = JobThread(
                svc.socket_path, high_paths,
                priority=6, _test_params={"_shard_sleep": 0.2},
            )
            high.start()
            for t in (blocker, low, high):
                t.join(TIMEOUT)
        for t in (blocker, low, high):
            assert t.error is None, t.error
        assert high.result == serial_counts(high_paths)
        assert low.result == serial_counts(low_paths)
        assert high.finished_at < low.finished_at, (
            "priority 6 job should complete before the earlier priority 0 job"
        )

    def test_priority_is_validated_on_the_wire(self, service_socket, tmp_path):
        paths = write_docs(tmp_path, 1)
        with running_daemon(service_socket, tmp_path, jobs=1) as svc:
            with ServiceClient(svc.socket_path, timeout=TIMEOUT) as client:
                with pytest.raises(ServiceError, match="priority"):
                    client.request(
                        "run",
                        documents=paths,
                        spanners=[protocol.encode_spanner(SPANNER)],
                        task="count",
                        priority="high",
                    )


# -- cancellation -------------------------------------------------------------


class TestCancellation:
    def test_wire_cancel_releases_the_waiter(self, service_socket, tmp_path):
        paths = write_docs(tmp_path, 4)
        with running_daemon(service_socket, tmp_path, jobs=2) as svc:
            victim = JobThread(
                svc.socket_path, paths,
                tag="victim", _test_params={"_shard_sleep": 8.0},
            )
            victim.start()
            time.sleep(0.5)  # shards are asleep on the workers
            with ServiceClient(svc.socket_path, timeout=TIMEOUT) as client:
                t0 = time.monotonic()
                assert client.cancel("victim") == 1
                victim.join(TIMEOUT)
                released = time.monotonic() - t0
                # the waiter must not ride out the 8 s shard sleeps
                assert released < 4.0, f"waiter released after {released:.1f}s"
                assert isinstance(victim.error, ServiceError)
                assert victim.error.remote_type == "JobCancelledError"
                # cancelled means gone: a second cancel matches nothing
                assert client.cancel("victim") == 0
                # and the daemon keeps serving new work promptly (the
                # cancelled job's sleeping shards drain in background)
                quick = write_docs(tmp_path, 1, stem="after")
                assert client.run_grid(
                    quick, [SPANNER], task="count"
                ) == serial_counts(quick)

    def test_cancel_requires_a_tag(self, service_socket, tmp_path):
        with running_daemon(service_socket, tmp_path, jobs=1) as svc:
            with ServiceClient(svc.socket_path, timeout=TIMEOUT) as client:
                with pytest.raises(ServiceError, match="tag"):
                    client.request("cancel", tag="")
                assert client.cancel("no-such-tag") == 0

    def test_disconnect_cancels_an_abandoned_job(self, service_socket, tmp_path):
        """``cancel_on_disconnect`` reclaims the fleet from dead clients."""
        paths = write_docs(tmp_path, 4)
        with running_daemon(service_socket, tmp_path, jobs=2) as svc:
            sock = socket_module.socket(socket_module.AF_UNIX)
            sock.settimeout(TIMEOUT)
            sock.connect(svc.socket_path)
            protocol.send_frame(sock, {
                "id": 1,
                "op": "run",
                "documents": paths,
                "spanners": [protocol.encode_spanner(SPANNER)],
                "task": "count",
                "cancel_on_disconnect": True,
                "_shard_sleep": 8.0,
            })
            time.sleep(0.5)  # job admitted, shards asleep
            sock.close()  # client dies without waiting for the result
            with ServiceClient(svc.socket_path, timeout=TIMEOUT) as client:
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    info = client.ping()
                    if info["scheduler"]["jobs_cancelled"] >= 1:
                        break
                    time.sleep(0.1)
                assert info["scheduler"]["jobs_cancelled"] >= 1, info


# -- admission control ---------------------------------------------------------


class TestBackpressure:
    def test_global_admission_bound_returns_busy(self, service_socket, tmp_path):
        with running_daemon(
            service_socket, tmp_path, jobs=1, max_pending_jobs=2
        ) as svc:
            slow = [
                JobThread(
                    svc.socket_path, write_docs(tmp_path, 1, stem=f"s{k}"),
                    tag=f"slow{k}", _test_params={"_shard_sleep": 8.0},
                )
                for k in range(2)
            ]
            for t in slow:
                t.start()
            time.sleep(0.5)  # both admitted: daemon at max_pending_jobs
            paths = write_docs(tmp_path, 1, stem="extra")
            with ServiceClient(svc.socket_path, timeout=TIMEOUT) as client:
                with pytest.raises(ServiceBusyError, match="capacity"):
                    client.run_grid(paths, [SPANNER], task="count")
                # busy is load shedding, not failure: freeing capacity
                # makes the same request succeed
                assert client.cancel("slow0") + client.cancel("slow1") == 2
                for t in slow:
                    t.join(TIMEOUT)
                assert client.run_grid(
                    paths, [SPANNER], task="count"
                ) == serial_counts(paths)

    def test_busy_travels_as_a_structured_frame(self, service_socket, tmp_path):
        """The wire shape is load-bearing: ``ok=false`` plus ``busy=true``."""
        with running_daemon(
            service_socket, tmp_path, jobs=1, max_pending_jobs=1
        ) as svc:
            hog = JobThread(
                svc.socket_path, write_docs(tmp_path, 1, stem="hog"),
                tag="hog", _test_params={"_shard_sleep": 8.0},
            )
            hog.start()
            time.sleep(0.5)
            sock = socket_module.socket(socket_module.AF_UNIX)
            sock.settimeout(TIMEOUT)
            try:
                sock.connect(svc.socket_path)
                protocol.send_frame(sock, {
                    "id": 9,
                    "op": "run",
                    "documents": write_docs(tmp_path, 1, stem="shed"),
                    "spanners": [protocol.encode_spanner(SPANNER)],
                    "task": "count",
                })
                response = protocol.recv_frame(sock)
            finally:
                sock.close()
            assert response["id"] == 9
            assert response["ok"] is False
            assert response["busy"] is True
            assert response["error"]["type"] == "ServiceBusyError"
            with ServiceClient(svc.socket_path, timeout=TIMEOUT) as client:
                assert client.cancel("hog") == 1
            hog.join(TIMEOUT)

    def test_per_client_quota_is_per_connection(self, service_socket, tmp_path):
        """One greedy connection hits its quota; other clients still run."""
        with running_daemon(
            service_socket, tmp_path, jobs=2, max_jobs_per_client=1
        ) as svc:
            spanners = [protocol.encode_spanner(SPANNER)]
            greedy = socket_module.socket(socket_module.AF_UNIX)
            greedy.settimeout(TIMEOUT)
            try:
                greedy.connect(svc.socket_path)
                # two pipelined run frames on one connection: the server
                # handles frames concurrently, so both reach admission
                # while the first is still running
                for request_id, stem in ((1, "one"), (2, "two")):
                    protocol.send_frame(greedy, {
                        "id": request_id,
                        "op": "run",
                        "documents": write_docs(tmp_path, 1, stem=stem),
                        "spanners": spanners,
                        "task": "count",
                        "_shard_sleep": 2.0,
                    })
                # a *different* client is under its own quota and must
                # not be starved by the greedy one
                other = JobThread(
                    svc.socket_path, write_docs(tmp_path, 1, stem="oth")
                )
                other.start()
                other.join(TIMEOUT)
                assert other.error is None, other.error
                responses = {}
                for _ in range(2):
                    frame = protocol.recv_frame(greedy)
                    responses[frame["id"]] = frame
            finally:
                greedy.close()
            outcomes = sorted(
                bool(frame.get("busy")) for frame in responses.values()
            )
            assert outcomes == [False, True], responses
            busy = next(f for f in responses.values() if f.get("busy"))
            assert busy["error"]["type"] == "ServiceBusyError"
            assert "client" in busy["error"]["message"]


# -- crash isolation ----------------------------------------------------------


class TestCrashIsolation:
    def test_retryable_crash_still_yields_correct_results(
        self, service_socket, tmp_path
    ):
        paths = write_docs(tmp_path, 4)
        crash = str(tmp_path / "crash-once")
        with running_daemon(service_socket, tmp_path, jobs=2) as svc:
            with ServiceClient(svc.socket_path, timeout=TIMEOUT) as client:
                got = client.run_grid(
                    paths, [SPANNER], task="count",
                    _test_params={"_fault_tokens": {0: f"{crash}:1"}},
                )
                assert got == serial_counts(paths)
                info = client.ping()
                assert info["scheduler"]["workers_crashed"] >= 1
                assert info["scheduler"]["shard_retries"] >= 1
                # the crashed worker was respawned: full strength
                assert info["fleet"]["alive"] == info["fleet"]["jobs"] == 2

    def test_one_tenants_crashes_do_not_fail_another(
        self, service_socket, tmp_path
    ):
        """The PR 5 fleet reset nuked *every* tenant on one job's crash
        budget; the scheduler must fail only the crashing job."""
        crash = str(tmp_path / "crash-forever")
        doomed_paths = write_docs(tmp_path, 2, stem="doom")
        healthy_paths = write_docs(tmp_path, 4, stem="ok")
        with running_daemon(service_socket, tmp_path, jobs=2) as svc:
            healthy = JobThread(
                svc.socket_path, healthy_paths,
                _test_params={"_shard_sleep": 0.3},
            )
            healthy.start()
            doomed = JobThread(
                svc.socket_path, doomed_paths,
                # crash every attempt: blows the per-job retry budget
                _test_params={"_fault_tokens": {0: f"{crash}:99"}},
            )
            doomed.start()
            doomed.join(TIMEOUT)
            healthy.join(TIMEOUT)
            assert isinstance(doomed.error, ServiceError)
            assert doomed.error.remote_type == "ParallelExecutionError"
            assert "max_retries" in str(doomed.error)
            # the co-tenant never noticed
            assert healthy.error is None, healthy.error
            assert healthy.result == serial_counts(healthy_paths)
            with ServiceClient(svc.socket_path, timeout=TIMEOUT) as client:
                info = client.ping()
                assert info["fleet"]["alive"] == info["fleet"]["jobs"] == 2
                assert info["scheduler"]["jobs_failed"] == 1
                assert info["scheduler"]["jobs_completed"] >= 1


class TestCrashBudget:
    def test_unhydratable_fleet_fails_the_job_and_stops_respawning(
        self, service_socket, tmp_path
    ):
        """Workers that die before ``ready`` spend the fleet's crash
        budget: with no job timeout set, the job still fails, carrying
        the workers' traceback, and the fleet stops respawning."""
        paths = write_docs(tmp_path, 1)  # one item: a one-shard plan
        budget = 2 + (2 + 1) * 1  # jobs + (max_retries + 1) * shards
        with running_daemon(
            service_socket, tmp_path, jobs=2, kernel="bogus"
        ) as svc:
            with ServiceClient(svc.socket_path, timeout=TIMEOUT) as client:
                started = time.monotonic()
                with pytest.raises(ServiceError, match="unknown kernel 'bogus'"):
                    client.run_grid(paths, [SPANNER], task="count")
                assert time.monotonic() - started < 10.0
                first = client.ping()
                time.sleep(0.5)
                second = client.ping()
        assert 1 <= first["scheduler"]["workers_crashed"] <= budget
        assert second["scheduler"]["workers_crashed"] == (
            first["scheduler"]["workers_crashed"]
        )
        assert second["scheduler"]["jobs_failed"] == 1
        assert second["fleet"]["alive"] == 0


# -- the safety gate on the fault hooks ---------------------------------------


class TestFaultGate:
    def test_fault_fields_require_the_env_gate(
        self, service_socket, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(TEST_FAULTS_ENV)
        paths = write_docs(tmp_path, 1)
        with running_daemon(service_socket, tmp_path, jobs=1) as svc:
            with ServiceClient(svc.socket_path, timeout=TIMEOUT) as client:
                with pytest.raises(ServiceError, match=TEST_FAULTS_ENV):
                    client.run_grid(
                        paths, [SPANNER], task="count",
                        _test_params={"_shard_sleep": 0.1},
                    )
                # plain requests are unaffected by the missing gate
                assert client.run_grid(
                    paths, [SPANNER], task="count"
                ) == serial_counts(paths)


# -- scheduler introspection ---------------------------------------------------


class TestIntrospection:
    def test_ping_reports_scheduler_counters(self, service_socket, tmp_path):
        paths = write_docs(tmp_path, 2)
        with running_daemon(service_socket, tmp_path, jobs=2) as svc:
            with ServiceClient(svc.socket_path, timeout=TIMEOUT) as client:
                client.run_grid(paths, [SPANNER], task="count")
                sched = client.ping()["scheduler"]
        assert sched["jobs_admitted"] == 1
        assert sched["jobs_completed"] == 1
        assert sched["active_jobs"] == 0
        assert sched["queued_shards"] == 0
        assert sched["inflight_shards"] == 0
        assert sched["shards_dispatched"] >= 1
        assert sched["max_pending_jobs"] == 32
        assert sched["max_jobs_per_client"] == 8

    def test_ping_after_a_job_returns_is_never_stale(
        self, service_socket, tmp_path
    ):
        """The snapshot is refreshed before a job's waiter is released,
        so a ping sent after ``run_grid`` returns sees the finished job."""
        paths = write_docs(tmp_path, 2)
        with running_daemon(service_socket, tmp_path, jobs=2) as svc:
            with ServiceClient(svc.socket_path, timeout=TIMEOUT) as client:
                for i in range(200):
                    client.run_grid(paths, [SPANNER], task="count")
                    sched = client.ping()["scheduler"]
                    assert sched["jobs_completed"] == i + 1
                    assert sched["active_jobs"] == 0
                    assert sched["inflight_shards"] == 0

    def test_unused_fields_are_not_sent(
        self, service_socket, tmp_path, monkeypatch
    ):
        """Default-valued priority/tag stay off the wire (back-compat)."""
        captured = {}
        original = ServiceClient.request

        def spy(self, op, **params):
            if op == "run":
                captured.update(params)
            return original(self, op, **params)

        monkeypatch.setattr(ServiceClient, "request", spy)
        paths = write_docs(tmp_path, 1)
        with running_daemon(service_socket, tmp_path, jobs=1) as svc:
            with ServiceClient(svc.socket_path, timeout=TIMEOUT) as client:
                client.run_grid(paths, [SPANNER], task="count")
        assert "priority" not in captured
        assert "tag" not in captured
        assert "cancel_on_disconnect" not in captured
