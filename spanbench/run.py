"""Run one benchmark workload and print its result as one JSON line.

Usage, from the repository root::

    python3 spanbench/run.py --workload cold_ingest --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` alternates plain and traced ops and reports the per-layer
metrics instead.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; a human-readable
summary goes to standard error.  The exit code is 0 only when every op
matched its oracle, every mechanism guard held and no process the run
started is still alive.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch space of every run, inside the checkout; removed at the end.
WORK_DIR = ".spanbench_run"

#: Ops per window of the windowed op statistics (see :func:`windowed`).
WINDOW_OPS = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "first_result_ms": "ms",
    "delay_p50_us": "us",
    "delay_p99_us": "us",
    "peak_rss_mb": "MB",
    "store_bytes_per_input_byte": "ratio",
}


def _loop(workload: Any, seconds: float, trace: bool) -> Dict[str, Any]:
    """Closed loop for ``seconds``: one op at a time, each checked.

    With ``trace``, every second op is traced; traced ops feed only the
    per-layer metrics.  Without, a count workload runs a restart-and-stream
    probe every ``PROBE_INTERVAL_S`` of loop time, between ops.
    """
    from spanbench.workloads import PROBE_INTERVAL_S

    untraced: List[float] = []
    traced: List[float] = []
    failures: List[str] = []
    index = 0
    started = time.perf_counter()
    next_probe = started + PROBE_INTERVAL_S
    while time.perf_counter() - started < seconds and index < workload.max_ops():
        is_traced = trace and index % 2 == 1
        readings = len(workload.readings)
        try:
            t0 = time.perf_counter()
            result = workload.op(index, is_traced)
            latency = time.perf_counter() - t0
            problem = workload.check(index, result)
        except Exception as exc:  # a raised error is a failed op
            problem = f"raised {exc!r}"
        if problem is not None:
            failures.append(f"op {index}: {problem}")
        elif is_traced:
            traced.append(workload.readings[readings]["latency"])
        else:
            untraced.append(latency)
        index += 1
        if workload.probes and not trace and time.perf_counter() >= next_probe:
            workload.probe()
            next_probe = time.perf_counter() + PROBE_INTERVAL_S
    return {"attempted": index, "untraced": untraced, "traced": traced, "failures": failures}


def windowed(latencies: List[float], statistic: Any) -> float:
    """``statistic`` per window of consecutive ops, median over windows.

    The run is cut into ``len // WINDOW_OPS`` equal windows (one when it
    has fewer than two windows' worth), so each window holds at least
    ``WINDOW_OPS`` ops and ten samples beyond its p90.  A few seconds of
    a slow host then move a few windows, not the run's figure.
    """
    from spanbench.workloads import median

    count = max(1, len(latencies) // WINDOW_OPS)
    size = len(latencies) / count
    return median(
        [statistic(latencies[round(k * size) : round((k + 1) * size)]) for k in range(count)]
    )


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One benchmark run; returns the result object (see the module doc)."""
    from spanbench.procs import leftovers
    from spanbench.workloads import PER_LAYER_UNITS, WORKLOADS, median, percentile

    work = os.path.join(ROOT, WORK_DIR, f"{workload_name}-{seed}-{os.getpid()}")
    # The program's temporary files (the daemon client's spill directory
    # per request) stay inside the checkout too.
    os.makedirs(os.path.join(work, "tmp"))
    saved_tempdir, tempfile.tempdir = tempfile.tempdir, os.path.join(work, "tmp")
    workload = WORKLOADS[workload_name](ROOT, work, seed, seconds)
    problems: List[str] = []
    try:
        generate_started = time.perf_counter()
        workload.generate()
        generate_s = time.perf_counter() - generate_started
        setups: List[float] = []
        for _ in range(1 if trace else workload.setup_reps):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        before = workload.snapshot()
        workload.reset_peak()
        loop = _loop(workload, seconds, trace)
        peak_mb = workload.peak_rss_mb()
        problems += workload.guards(before, workload.snapshot(), loop["attempted"])
        problems += loop["failures"]
        attempted, failed = loop["attempted"], len(loop["failures"])
        lat = loop["untraced"]
        if trace:
            values = workload.layer_metrics(lat, loop["traced"])
            units = PER_LAYER_UNITS
        else:
            firsts, streams = workload.firsts, workload.streams
            gaps = [gap for stream in streams for gap in stream]
            problems += workload.probe_failures
            if workload.probes:
                attempted += len(firsts) + len(workload.probe_failures)
                failed += len(workload.probe_failures)
            values = {
                "setup_s": median(setups),
                "ops_per_s": windowed(lat, lambda w: len(w) / sum(w)),
                "latency_p50_ms": 1e3 * windowed(lat, median),
                "latency_p90_ms": 1e3 * windowed(lat, lambda w: percentile(w, 0.90)),
                "first_result_ms": 1e3 * median(firsts),
                "delay_p50_us": 1e6 * median(gaps),
                # Per stream, so a few slow streams move a few samples.
                "delay_p99_us": 1e6 * median([percentile(s, 0.99) for s in streams]),
                "peak_rss_mb": peak_mb,
                "store_bytes_per_input_byte": workload.store_ratio(),
            }
            units = END_TO_END_UNITS
            shortest = min(map(len, streams), default=0)
            if len(lat) < 100 or shortest < 999:
                print(
                    f"# warning: {len(lat)} ops / a stream of {shortest} gaps are too "
                    "few for ten samples beyond p90 / p99",
                    file=sys.stderr,
                )
    finally:
        try:
            workload.teardown()
        finally:
            tempfile.tempdir = saved_tempdir
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(os.path.join(ROOT, WORK_DIR))
            except OSError:
                pass  # another run's directory is still there
            # Checked on every way out, a failed or interrupted run too.
            alive = leftovers(workload.groups)
            if alive:
                print(f"# FAILED processes still alive after the run: {alive}", file=sys.stderr)
    for problem in problems:
        print(f"# FAILED {problem}", file=sys.stderr)
    print(
        f"# {workload_name} seed {seed}: {attempted} attempted, {failed} failed; "
        f"generation {generate_s:.1f}s, set-up samples (s) "
        + ", ".join(f"{s:.3f}" for s in setups),
        file=sys.stderr,
    )
    for name, value in values.items():
        print(f"#   {name:30s} {value:14.4f} {units[name]}", file=sys.stderr)
    return {
        "correct": not problems and not alive,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    # SIGTERM unwinds like Ctrl-C, so every ``finally`` stops its processes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The run owns its configuration: no inherited trace sink or fault plan.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    from spanbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
