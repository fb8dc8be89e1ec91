"""Process-local metrics: counters, gauges, fixed-bucket histograms.

Each process (client, daemon, every fleet worker) owns one
:class:`MetricsRegistry`.  Registries never talk to each other live;
instead a registry exports a plain-dict :meth:`~MetricsRegistry.snapshot`
— JSON-codable and picklable — and snapshots merge associatively via
:func:`merge_snapshots`:

* counters add,
* gauges keep the maximum,
* histograms add per-bucket counts (identical bounds) and fold
  count/total/min/max,
* slow-log entries union and keep the global top-N.

Associativity is what lets workers ship *cumulative* snapshots with each
result message while the scheduler keeps only the latest per worker and
merges on demand — no ordering or pairwise discipline required (covered
by a property test).

The registry also hosts the slow-query log: completed jobs over a
latency threshold are recorded with their tenant tag, so one tenant's
``q²`` blowup dragging the fleet is visible from ``repro-spanner stats
--connect`` without reading a full trace.

Failure-path counters (PR 9) follow the same conventions; the ones
every operator dashboard should watch:

* ``faults.injected`` — fault-layer activations (:mod:`repro.faults`);
  nonzero outside a chaos run means ``REPRO_FAULTS`` leaked into prod;
* ``sched.watchdog_kills`` — workers killed by the scheduler's
  hung-shard watchdog (daemon fleets and per-call pools alike);
* ``store.quarantined`` — corrupt ``.prep`` entries moved aside and
  rebuilt; ``store.save_errors`` — failed (rolled-back) store saves;
* ``client.retries`` — service-client connect/busy retries;
  ``session.fallbacks`` — daemon calls degraded to in-process.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "BYTE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SlowLog",
    "TIME_BUCKETS",
    "get_registry",
    "merge_snapshots",
    "set_registry",
]

#: Default histogram bounds for durations in seconds (100µs .. 30s).
TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.001, 0.0025, 0.01, 0.025, 0.1, 0.25, 1.0, 2.5, 10.0, 30.0,
)

#: Default histogram bounds for payload sizes in bytes (256B .. 16MiB).
BYTE_BUCKETS: Tuple[float, ...] = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0, 16777216.0,
)


class Counter:
    """A monotonically increasing integer; merge = sum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-written level; merge = max (the only associative choice
    that stays meaningful for queue depths and high-water marks)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bound bucket histogram; values above the last bound land in
    the overflow bucket, so ``len(counts) == len(bounds) + 1``."""

    __slots__ = ("bounds", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, bounds: Sequence[float] = TIME_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        # Infinite sentinels keep ``observe`` to two plain comparisons;
        # ``as_dict`` reports ``None`` until something was observed.
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def as_dict(self) -> Dict[str, Any]:
        observed = self.count > 0
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.vmin if observed else None,
            "max": self.vmax if observed else None,
        }


class SlowLog:
    """Top-N completed operations over a latency threshold, with tags."""

    __slots__ = ("threshold", "limit", "entries", "_lock")

    def __init__(self, threshold: float = 0.0, limit: int = 32) -> None:
        self.threshold = threshold
        self.limit = limit
        self.entries: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def record(self, name: str, seconds: float, **tags: Any) -> None:
        if seconds < self.threshold:
            return
        entry: Dict[str, Any] = {"name": name, "seconds": seconds}
        if tags:
            entry["tags"] = tags
        with self._lock:
            self.entries.append(entry)
            self.entries.sort(key=_slow_sort_key)
            del self.entries[self.limit:]

    def snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(entry) for entry in self.entries]


def _slow_sort_key(entry: Mapping[str, Any]) -> Tuple[float, str]:
    # Deterministic order (slowest first, then name) keeps top-N
    # truncation associative under merging.
    return (-float(entry.get("seconds", 0.0)), str(entry.get("name", "")))


class MetricsRegistry:
    """Named metrics for one process; snapshot/merge via plain dicts."""

    def __init__(self, slow_threshold: float = 0.0, slow_limit: int = 32) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.slow = SlowLog(threshold=slow_threshold, limit=slow_limit)

    # Metric handles are created once and then mutated without the
    # registry lock: single bytecode-level updates are tolerable to
    # race (metrics, not ledgers), and the hot paths stay cheap.

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(name, Counter())
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge())
        return metric

    def histogram(self, name: str, bounds: Sequence[float] = TIME_BUCKETS) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(name, Histogram(bounds))
        return metric

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-codable, picklable copy of every metric."""
        with self._lock:
            counters = {name: c.value for name, c in self._counters.items()}
            gauges = {name: g.value for name, g in self._gauges.items()}
            histograms = {name: h.as_dict() for name, h in self._histograms.items()}
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "slow": self.slow.snapshot(),
        }


def _merge_histogram(left: Mapping[str, Any], right: Mapping[str, Any]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {
        "count": int(left.get("count", 0)) + int(right.get("count", 0)),
        "total": float(left.get("total", 0.0)) + float(right.get("total", 0.0)),
        "min": _fold(min, left.get("min"), right.get("min")),
        "max": _fold(max, left.get("max"), right.get("max")),
    }
    lb, rb = list(left.get("bounds", [])), list(right.get("bounds", []))
    if lb and lb == rb:
        merged["bounds"] = lb
        merged["counts"] = [
            int(a) + int(b)
            for a, b in zip(left.get("counts", []), right.get("counts", []))
        ]
    else:
        # Mismatched bounds (mixed code versions): drop the buckets but
        # keep the scalar summary.  Empty bounds never match non-empty
        # ones, so this degradation is itself associative.
        merged["bounds"] = []
        merged["counts"] = []
    return merged


def _fold(op: Any, left: Optional[float], right: Optional[float]) -> Optional[float]:
    if left is None:
        return right
    if right is None:
        return left
    return float(op(left, right))


def merge_snapshots(
    snapshots: Iterable[Mapping[str, Any]], slow_limit: int = 32
) -> Dict[str, Any]:
    """Associatively merge registry snapshots into one combined view."""
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    slow: List[Dict[str, Any]] = []
    for snap in snapshots:
        if not isinstance(snap, Mapping):
            continue
        for name, value in dict(snap.get("counters", {})).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in dict(snap.get("gauges", {})).items():
            value = float(value)
            gauges[name] = value if name not in gauges else max(gauges[name], value)
        for name, hist in dict(snap.get("histograms", {})).items():
            if name in histograms:
                histograms[name] = _merge_histogram(histograms[name], hist)
            else:
                histograms[name] = _copy_histogram(hist)
        slow.extend(dict(entry) for entry in snap.get("slow", []))
    slow.sort(key=_slow_sort_key)
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "slow": slow[:slow_limit],
    }


def _copy_histogram(hist: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "bounds": list(hist.get("bounds", [])),
        "counts": [int(c) for c in hist.get("counts", [])],
        "count": int(hist.get("count", 0)),
        "total": float(hist.get("total", 0.0)),
        "min": hist.get("min"),
        "max": hist.get("max"),
    }


# -- process-global registry ----------------------------------------------

_global_lock = threading.Lock()
_global_registry: Optional[MetricsRegistry] = None


def get_registry() -> MetricsRegistry:
    """The process-global registry every layer instruments into."""
    global _global_registry
    if _global_registry is None:
        with _global_lock:
            if _global_registry is None:
                _global_registry = MetricsRegistry()
    return _global_registry


def set_registry(registry: Optional[MetricsRegistry]) -> None:
    """Replace the process-global registry (tests)."""
    global _global_registry
    with _global_lock:
        _global_registry = registry
