"""Shard planning: partition a corpus into size-balanced units of work.

A *work item* is one (document file, spanner) cell; a *shard* is the unit
a worker claims from the queue.  Two scheduling ideas do the heavy
lifting:

* **Grammar size as the cost model.**  The paper's preprocessing runs in
  ``O(size(S) · q²)``, so ``size(S)`` — read straight from the
  ``repro-slpb`` header without decoding, falling back to file bytes for
  JSON — is a faithful per-document cost proxy.  Shards are balanced
  with the classic LPT greedy (heaviest item to the lightest shard),
  which is within 4/3 of optimal makespan.
* **Digest affinity.**  Items whose grammars share a structural digest
  are placed in the *same* shard: the worker's structurally-keyed engine
  then builds the Lemma 6.5 tables once and serves the duplicates from
  its in-memory cache — no cross-process coordination needed.  This is
  the only deduplication on both backends, per-call pools and the
  daemon alike: no pass ahead of fan-out builds or probes the store.
  Duplicate items are costed at a small fraction of the first
  occurrence so the balancer sees their true (cache-hit) weight.

In-memory corpora are *spilled* to ``repro-slpb`` temp files first
(:func:`spill_corpus`): workers are always handed paths, never pickled
grammars, so the task messages stay tiny and the store's
content-addressing works identically for both entry points.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.slp import io as slp_io
from repro.slp.grammar import SLP

#: Relative cost of re-evaluating a document whose digest already occurred
#: earlier in the same shard (an in-memory preprocessing cache hit: the
#: spanner run over the derivation is still paid, the table build is not).
DUPLICATE_COST_FACTOR = 0.15

_SLPB_COUNTS = struct.Struct("<II")  # (n_terminals, n_rules) at offset 26


def grammar_cost(path: str) -> int:
    """``size(S)`` of the grammar at ``path``, without decoding it.

    For ``repro-slpb`` files the terminal/rule counts sit at fixed header
    offsets; for JSON the byte size is used, scaled to roughly match
    (one rule serialises to ~10 bytes of JSON).  Costs only steer shard
    balance, so an approximation is fine; a zero cost is bumped to 1 so
    every item has weight.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(34)
    except OSError:
        return 1
    if head.startswith(slp_io.BINARY_MAGIC) and len(head) >= 34:
        n_terms, n_rules = _SLPB_COUNTS.unpack_from(head, 26)
        return max(1, n_terms + n_rules)
    try:
        return max(1, os.path.getsize(path) // 10)
    except OSError:
        return 1


@dataclass(frozen=True)
class WorkItem:
    """One (document, spanner) cell of the corpus grid.

    ``index`` is the item's position in the caller's original order —
    result collection places payloads back by this index, so shard
    execution order never leaks into the API's return order.
    """

    index: int
    path: str
    spanner_id: int = 0
    cost: float = 1.0
    digest: Optional[str] = None


@dataclass(frozen=True)
class Shard:
    """A batch of work items claimed as one unit by a worker.

    ``fault_token`` is test-only crash injection, kept as a per-shard
    shim over the general fault layer: the worker translates it into a
    :class:`repro.faults.FaultRule` at the ``worker.shard`` site (see
    :func:`repro.parallel.worker.maybe_inject_fault`).  It is ``None``
    in production; daemon-wide fault schedules are configured through
    ``REPRO_FAULTS`` instead (:mod:`repro.faults`).
    """

    shard_id: int
    items: Tuple[WorkItem, ...]
    fault_token: Optional[str] = None

    @property
    def cost(self) -> float:
        return sum(item.cost for item in self.items)


@dataclass
class ShardPlan:
    """The output of :func:`plan_shards`: balanced shards over a corpus."""

    shards: List[Shard]
    num_items: int

    @property
    def total_cost(self) -> float:
        return sum(shard.cost for shard in self.shards)

    @property
    def imbalance(self) -> float:
        """max/mean shard cost (1.0 = perfectly balanced)."""
        costs = [shard.cost for shard in self.shards if shard.items]
        if not costs:
            return 1.0
        mean = sum(costs) / len(costs)
        return max(costs) / mean if mean else 1.0

    def with_fault_tokens(self, tokens: Dict[int, str]) -> "ShardPlan":
        """A copy with crash-injection tokens on the given shards (tests)."""
        return ShardPlan(
            [
                replace(s, fault_token=tokens.get(s.shard_id, s.fault_token))
                for s in self.shards
            ],
            self.num_items,
        )


def plan_shards(
    items: Sequence[WorkItem],
    num_shards: int,
    *,
    digest_affinity: bool = True,
) -> ShardPlan:
    """Partition ``items`` into ``num_shards`` cost-balanced shards.

    With ``digest_affinity`` (the default), items sharing a grammar digest
    travel together and repeats are discounted by
    :data:`DUPLICATE_COST_FACTOR` — see the module docstring.  Groups are
    placed by LPT greedy; empty shards are dropped, so the plan may hold
    fewer shards than requested.
    """
    num_shards = max(1, num_shards)
    # Group items that should share a worker's in-memory caches.
    groups: List[List[WorkItem]]
    if digest_affinity:
        by_key: Dict[object, List[WorkItem]] = {}
        for item in items:
            # (digest, spanner) pairs share one preprocessing entry; an
            # unknown digest can never be deduplicated, so it stays alone.
            key = (
                (item.digest, item.spanner_id)
                if item.digest is not None
                else ("#unique", item.index)
            )
            by_key.setdefault(key, []).append(item)
        groups = [
            [
                replace(it, cost=it.cost * (1.0 if k == 0 else DUPLICATE_COST_FACTOR))
                for k, it in enumerate(group)
            ]
            for group in by_key.values()
        ]
    else:
        groups = [[item] for item in items]

    def group_cost(group: List[WorkItem]) -> float:
        return sum(item.cost for item in group)

    # LPT greedy: heaviest group onto the currently lightest shard.
    buckets: List[List[WorkItem]] = [[] for _ in range(num_shards)]
    loads = [0.0] * num_shards
    for group in sorted(groups, key=group_cost, reverse=True):
        lightest = min(range(num_shards), key=loads.__getitem__)
        buckets[lightest].extend(group)
        loads[lightest] += group_cost(group)
    shards = [
        Shard(shard_id, tuple(bucket))
        for shard_id, bucket in enumerate(b for b in buckets if b)
    ]
    return ShardPlan(shards, num_items=len(items))


def corpus_items(
    paths: Sequence[str],
    spanner_ids: Optional[Sequence[int]] = None,
) -> List[WorkItem]:
    """Work items for a corpus of grammar files, cost/digest annotated.

    ``spanner_ids`` assigns each path a spanner (default: spanner 0 for
    all — the ``parallel_corpus`` shape); item ``k`` gets index ``k``.
    """
    items = []
    for k, path in enumerate(paths):
        try:
            digest = slp_io.peek_digest(path)
        except (OSError, ValueError, ReproError):
            digest = None  # unreadable now; the worker will raise properly
        items.append(
            WorkItem(
                index=k,
                path=path,
                spanner_id=spanner_ids[k] if spanner_ids is not None else 0,
                cost=float(grammar_cost(path)),
                digest=digest,
            )
        )
    return items


def grid_items(
    paths: Sequence[str], n_spanners: int
) -> List[WorkItem]:
    """Work items for the (documents × spanners) grid, row-major.

    Item ``doc_index * n_spanners + spanner_id`` is document
    ``doc_index`` under spanner ``spanner_id`` — the one place the grid
    index convention lives (``parallel_batch`` and the service daemon
    both shard through here, so they can never disagree on result
    order).  Cost/digest annotations are read once per document and
    shared across its row.
    """
    items = []
    for doc_index, proto in enumerate(corpus_items(paths)):
        for spanner_id in range(n_spanners):
            items.append(
                WorkItem(
                    index=doc_index * n_spanners + spanner_id,
                    path=proto.path,
                    spanner_id=spanner_id,
                    cost=proto.cost,
                    digest=proto.digest,
                )
            )
    return items


def spill_corpus(
    slps: Iterable[SLP], directory: str, prefix: str = "doc"
) -> List[str]:
    """Write in-memory SLPs to ``repro-slpb`` files under ``directory``.

    The bridge from the in-memory API shape to the path-based worker
    protocol: returns the file paths in input order.
    """
    os.makedirs(directory, exist_ok=True)
    paths = []
    for k, slp in enumerate(slps):
        path = os.path.join(directory, f"{prefix}-{k:06d}.slpb")
        slp_io.save_binary(slp, path)
        paths.append(path)
    return paths


def as_paths(documents: Sequence, spill_dir: Optional[str]) -> List[str]:
    """Paths for a mixed path/``SLP`` corpus, spilling SLPs to ``spill_dir``.

    The one place the mixed API shape becomes the all-paths worker/daemon
    shape (both :mod:`repro.parallel.api` and the session's daemon
    backend route through here); order is preserved.
    """
    slps = [(k, doc) for k, doc in enumerate(documents) if isinstance(doc, SLP)]
    paths: List[Optional[str]] = [
        doc if not isinstance(doc, SLP) else None for doc in documents
    ]
    if slps:
        if spill_dir is None:
            raise ValueError("in-memory SLPs need a spill directory")
        for (k, _), path in zip(
            slps, spill_corpus([doc for _, doc in slps], spill_dir)
        ):
            paths[k] = path
    return paths  # type: ignore[return-value]


__all__ = [
    "DUPLICATE_COST_FACTOR",
    "Shard",
    "ShardPlan",
    "WorkItem",
    "as_paths",
    "corpus_items",
    "grammar_cost",
    "grid_items",
    "plan_shards",
    "spill_corpus",
]
