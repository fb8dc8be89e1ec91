"""The benchmark's own tests.

Run from the repository root (the file name keeps them out of the
library's test suite)::

    PYTHONPATH=src:. python3 -m pytest -q spanbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.slp import io as slp_io
from repro.slp.derive import text as derive_text

from spanbench import inputs, procs, run
from spanbench.layers import LayerClock, _targets, daemon_split
from spanbench.procs import Daemon, descendants, group_members
from spanbench.workloads import WarmDaemon

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_generation_is_byte_identical_and_derives_the_oracle_text(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    # Five documents cross a RePair group: all four images plus a new base.
    docs = inputs.block_documents("cold_ingest", 7, 5, str(first))
    again = inputs.block_documents("cold_ingest", 7, 5, str(second))
    docs.append(inputs.log_document("restart_enumerate", 7, str(first)))
    again.append(inputs.log_document("restart_enumerate", 7, str(second)))
    digests = set()
    for doc, twin in zip(docs, again):
        with open(doc.path, "rb") as fh, open(twin.path, "rb") as gh:
            assert fh.read() == gh.read()
        assert doc.text == twin.text
        slp = slp_io.load_file(doc.path)
        assert derive_text(slp) == doc.text
        digests.add(slp.structural_digest())
    assert len(digests) == len(docs)
    other = inputs.block_documents("cold_ingest", 8, 1, str(tmp_path))
    assert other[0].text != docs[0].text


def test_oracles_on_hand_made_text():
    assert inputs.abba_spans("abbabba") == [(1, 5), (4, 8)]
    line = "user=bob action=read status=200\n"
    assert inputs.log_pairs(line + line) == {
        ((6, 9), (17, 21)),
        ((6 + len(line), 9 + len(line)), (17 + len(line), 21 + len(line))),
    }


def test_layer_clock_restores_every_function():
    clock = LayerClock()
    clock.install()
    swapped = list(clock._saved)
    assert len(swapped) == len(_targets()) + 3  # + enumeration, two wire frames
    assert all(owner.__dict__[name] is not original for owner, name, original in swapped)
    clock.uninstall()
    assert all(owner.__dict__[name] is original for owner, name, original in swapped)


def test_daemon_split_adds_up_to_the_request():
    def span(name, start, end):
        return {"name": name, "trace": "t", "start": start, "end": end}

    records = [
        span("session.request", 0.0, 10.0),
        span("service.run", 1.0, 9.0),
        span("scheduler.queue", 2.0, 3.0),
        span("worker.shard", 4.0, 7.0),
        {**span("worker.shard", 4.0, 8.0), "trace": "other"},
    ]
    split = daemon_split(records, "t")
    assert split == {"request": 10.0, "wire": 2.0, "service": 4.0, "queue": 1.0, "shard": 3.0}
    assert daemon_split(records[:1], "t") is None


@pytest.fixture
def daemon_groups(monkeypatch):
    """Record the process group of every daemon the run spawns."""
    groups = []
    start = Daemon.start

    def recording_start(self):
        try:
            start(self)
        finally:
            groups.append(self.pgid)

    monkeypatch.setattr(Daemon, "start", recording_start)
    monkeypatch.setattr(WarmDaemon, "setup_reps", 1)
    return groups


def _assert_nothing_left(groups):
    assert groups and all(groups)
    for pgid in groups:
        assert group_members(pgid) == []
    assert descendants(os.getpid()) == []
    work = os.path.join(ROOT, run.WORK_DIR, f"warm_daemon-3-{os.getpid()}")
    assert not os.path.exists(work)


def _raise_at(monkeypatch, exc_type, at=3):
    op = WarmDaemon.op

    def failing_op(self, index, traced):
        if index == at:
            raise exc_type("injected mid-run")
        return op(self, index, traced)

    monkeypatch.setattr(WarmDaemon, "op", failing_op)


def test_op_raising_mid_run_fails_the_run_and_leaves_no_process(monkeypatch, daemon_groups):
    _raise_at(monkeypatch, RuntimeError)
    result = run.run("warm_daemon", 3, 1.0, trace=False)
    assert result["failed"] == 1 and result["attempted"] > 4
    assert result["correct"] is False
    _assert_nothing_left(daemon_groups)


def test_interrupt_mid_run_stops_the_daemon(monkeypatch, daemon_groups):
    _raise_at(monkeypatch, KeyboardInterrupt)
    with pytest.raises(KeyboardInterrupt):
        run.run("warm_daemon", 3, 1.0, trace=True)
    _assert_nothing_left(daemon_groups)


def _fail_indexing(monkeypatch):
    """Make ``WarmDaemon.setup`` raise after its daemon has started."""
    monkeypatch.setattr(WarmDaemon, "check", lambda self, index, result: "injected mismatch")


def test_setup_failing_after_the_daemon_started_still_checks_for_leftovers(
    monkeypatch, daemon_groups
):
    _fail_indexing(monkeypatch)
    checked = []
    leftovers = procs.leftovers

    def recording(groups):
        checked.append(leftovers(groups))
        return checked[-1]

    monkeypatch.setattr(procs, "leftovers", recording)
    with pytest.raises(RuntimeError, match="indexing"):
        run.run("warm_daemon", 3, 1.0, trace=False)
    assert checked == [[]]
    _assert_nothing_left(daemon_groups)


def test_a_daemon_surviving_a_failed_run_is_reported(monkeypatch, daemon_groups, capsys):
    _fail_indexing(monkeypatch)
    monkeypatch.setattr(Daemon, "stop", lambda self: None)  # teardown leaves it up
    try:
        with pytest.raises(RuntimeError, match="indexing"):
            run.run("warm_daemon", 3, 1.0, trace=False)
        err = capsys.readouterr().err
        assert "processes still alive after the run" in err
        assert str(daemon_groups[0]) in err
    finally:
        for pgid in daemon_groups:
            os.killpg(pgid, signal.SIGKILL)
            os.waitpid(pgid, 0)  # the daemon leads its group and is our child
            deadline = time.monotonic() + 10
            while group_members(pgid) and time.monotonic() < deadline:
                time.sleep(0.01)
    _assert_nothing_left(daemon_groups)


def test_parallel_corpus_attributes_the_pool_and_restores_it():
    from repro.parallel.pool import WorkerPool

    run_method = WorkerPool.__dict__["run"]
    result = run.run("parallel_corpus", 3, 2.0, trace=True)
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["kernel.builds"] == 0
    assert metrics["parallel.shard_ms"] > 0 and metrics["parallel.pool_ms"] > 0
    assert metrics["store.restore_bytes"] > 0
    assert WorkerPool.__dict__["run"] is run_method
    assert descendants(os.getpid()) == []


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "spanbench"), tmp_path / "spanbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "spanbench/run.py", "--workload", "cold_ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_benchmark_json_names_what_the_runs_report():
    from spanbench.workloads import PER_LAYER_UNITS, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
