"""Composable, deterministic fault injection (see ``repro.faults``).

A *fault plan* is a list of rules, each binding an injection **site**
pattern (``fnmatch`` over dotted site names like ``worker.shard`` or
``store.save.bytes``) to a fault **kind** and a trigger.  Production
code declares sites with two calls that are no-ops unless a plan is
active:

* :func:`fault_point` — a control-flow site: the matched rule can
  crash the process, hang it, raise :class:`InjectedFault`, raise
  ``ENOSPC``, or drop the connection (``ConnectionResetError``);
* :func:`mangle` — a byte-stream site: the matched rule can corrupt
  one byte (``corrupt``) or truncate to a prefix (``torn``), modelling
  bit rot and torn writes.

Plans are parsed from the ``REPRO_FAULTS`` environment variable (rules
separated by ``;``)::

    REPRO_FAULTS='worker.shard:crash:nth=1,counter=/tmp/c;store.load.bytes:corrupt:p=0.5'
    REPRO_FAULTS_SEED=7

Rule syntax: ``site:kind[:key=value[,key=value...]]`` with keys

``p``
    fire with this probability per hit (seeded RNG — deterministic for
    a given ``REPRO_FAULTS_SEED`` and hit sequence);
``nth``
    fire only on the *nth* hit of this rule (1-based) — or, combined
    with ``counter``, on every hit **while** the cross-process counter
    is ≤ ``nth`` (the respawn-survival semantics crash tests need);
``times``
    stop firing after this many injections;
``arg``
    kind parameter: seconds for ``hang`` (default 30), kept prefix
    fraction for ``torn`` (default 0.5);
``counter``
    path of a file-backed hit counter shared across process respawns
    (each hit appends one byte; the file's size is the count).

The plan is process-global, loaded lazily from the environment on the
first declared site (so ``multiprocessing``-spawned workers inherit it
through their environment), and replaceable in tests via
:func:`set_plan`.  With no plan active every site is a cheap early
return, which is what lets the sites ride hot paths (``bench_service``
gates the disabled path at ≤ 3% overhead).  Every injection increments
the ``faults.injected`` counter in the process's metrics registry.
"""

from __future__ import annotations

import errno
import os
import random
import threading
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.metrics import get_registry

#: Environment variables that arm the layer.
FAULTS_ENV = "REPRO_FAULTS"
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"

#: Control-flow kinds (applied at :func:`fault_point` and, for byte
#: sites, before the data kinds at :func:`mangle`).
CONTROL_KINDS = ("crash", "hang", "error", "enospc", "drop")
#: Byte-stream kinds (applied only at :func:`mangle`).
DATA_KINDS = ("corrupt", "torn")
KINDS = CONTROL_KINDS + DATA_KINDS

#: Exit code used by injected crashes — distinct from real faults so a
#: test can tell an injected death from an accidental one.
CRASH_EXIT_CODE = 17


class InjectedFault(ReproError):
    """Raised by an ``error``-kind fault rule at a matched site."""


@dataclass(frozen=True)
class FaultRule:
    """One parsed rule of a fault plan (see module doc for semantics)."""

    site: str
    kind: str
    p: float = 1.0
    nth: Optional[int] = None
    times: Optional[int] = None
    arg: Optional[float] = None
    counter: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of {', '.join(KINDS)})"
            )
        if not self.site:
            raise ValueError("fault rule needs a non-empty site pattern")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"fault probability must be in [0, 1], got {self.p}")
        if self.counter is not None and self.nth is None:
            raise ValueError("counter= requires nth= (fire while count <= nth)")

    def matches(self, site: str) -> bool:
        return fnmatchcase(site, self.site)


def parse_rule(text: str) -> FaultRule:
    """Parse one ``site:kind[:key=value,...]`` rule."""
    parts = text.strip().split(":", 2)
    if len(parts) < 2:
        raise ValueError(
            f"bad fault rule {text!r}: expected 'site:kind[:key=value,...]'"
        )
    site, kind = parts[0].strip(), parts[1].strip()
    options: Dict[str, str] = {}
    if len(parts) == 3 and parts[2].strip():
        for pair in parts[2].split(","):
            key, sep, value = pair.partition("=")
            if not sep:
                raise ValueError(
                    f"bad fault option {pair!r} in rule {text!r}: expected key=value"
                )
            options[key.strip()] = value.strip()
    known = {"p", "nth", "times", "arg", "counter"}
    unknown = set(options) - known
    if unknown:
        raise ValueError(
            f"unknown fault option(s) {sorted(unknown)} in rule {text!r}"
        )
    return FaultRule(
        site=site,
        kind=kind,
        p=float(options.get("p", 1.0)),
        nth=int(options["nth"]) if "nth" in options else None,
        times=int(options["times"]) if "times" in options else None,
        arg=float(options["arg"]) if "arg" in options else None,
        counter=options.get("counter"),
    )


def parse_plan(spec: str, *, seed: int = 0) -> "FaultPlan":
    """Parse a ``;``-separated rule list into a :class:`FaultPlan`."""
    rules = [parse_rule(part) for part in spec.split(";") if part.strip()]
    return FaultPlan(rules, seed=seed)


def _bump_file_counter(path: str) -> int:
    """Append one byte to ``path``; return the resulting count.

    The file-backed counter survives process respawns, which is what
    lets a ``crash`` rule fire on the first N attempts and then let the
    replacement worker through — the semantics the retry tests need.
    The count is this write's own end offset: an ``O_APPEND`` write
    moves to the end and writes in one atomic step, so workers hitting
    the site at the same moment still draw distinct counts (re-reading
    the file size could give both the later one).
    """
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, b"\x00")
        return os.lseek(fd, 0, os.SEEK_CUR)
    finally:
        os.close(fd)


class FaultPlan:
    """An armed set of :class:`FaultRule`\\ s with per-rule trigger state.

    Thread-safe: hit counts and the seeded RNG are guarded by a lock
    (sites fire from the scheduler thread, the asyncio loop, and client
    threads of the same process).
    """

    def __init__(self, rules: Sequence[FaultRule], *, seed: int = 0) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        self._rng = random.Random(seed)
        self._hits: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return f"FaultPlan(rules={len(self.rules)}, seed={self.seed})"

    # -- trigger evaluation ---------------------------------------------

    def _should_fire_locked(self, index: int, rule: FaultRule) -> bool:
        hits = self._hits.get(index, 0) + 1
        self._hits[index] = hits
        fired = self._fired.get(index, 0)
        if rule.times is not None and fired >= rule.times:
            return False
        if rule.counter is not None:
            count = _bump_file_counter(rule.counter)
            fire = rule.nth is not None and count <= rule.nth
        elif rule.nth is not None:
            fire = hits == rule.nth
        elif rule.p < 1.0:
            fire = self._rng.random() < rule.p
        else:
            fire = True
        if fire:
            self._fired[index] = fired + 1
        return fire

    def fire(self, site: str, kinds: Sequence[str]) -> Optional[FaultRule]:
        """Return the first rule for ``site`` (restricted to ``kinds``)
        whose trigger fires at this hit, updating trigger state."""
        with self._lock:
            for index, rule in enumerate(self.rules):
                if rule.kind not in kinds or not rule.matches(site):
                    continue
                if self._should_fire_locked(index, rule):
                    return rule
        return None

    def deterministic_int(self, bound: int) -> int:
        """A seeded draw in ``[0, bound)`` (byte positions for ``corrupt``)."""
        with self._lock:
            return self._rng.randrange(bound)


# -- the process-global plan ------------------------------------------------

_plan: Optional[FaultPlan] = None
_env_checked = False
_plan_lock = threading.Lock()


def get_plan() -> Optional[FaultPlan]:
    """The active plan: explicit (:func:`set_plan`) or environment-loaded."""
    global _plan, _env_checked
    if _env_checked:
        return _plan
    with _plan_lock:
        if not _env_checked:
            spec = os.environ.get(FAULTS_ENV)
            if spec:
                seed = int(os.environ.get(FAULTS_SEED_ENV, "0"))
                _plan = parse_plan(spec, seed=seed)
            _env_checked = True
    return _plan


def set_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` as the process's active plan (tests; ``None``
    disarms the layer regardless of the environment)."""
    global _plan, _env_checked
    with _plan_lock:
        _plan = plan
        _env_checked = True


def reset_plan() -> None:
    """Forget any installed plan and re-read the environment lazily."""
    global _plan, _env_checked
    with _plan_lock:
        _plan = None
        _env_checked = False


# -- applying a fired rule --------------------------------------------------

def _count_injection(site: str, rule: FaultRule) -> None:
    get_registry().counter("faults.injected").inc()


def apply_rule(rule: FaultRule, site: str) -> None:
    """Execute a fired control-kind rule at ``site``."""
    _count_injection(site, rule)
    if rule.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if rule.kind == "hang":
        time.sleep(rule.arg if rule.arg is not None else 30.0)
        return
    if rule.kind == "error":
        raise InjectedFault(f"injected fault at site {site!r}")
    if rule.kind == "enospc":
        raise OSError(
            errno.ENOSPC,
            f"{os.strerror(errno.ENOSPC)} [injected at site {site!r}]",
        )
    if rule.kind == "drop":
        raise ConnectionResetError(f"injected wire drop at site {site!r}")
    raise ValueError(
        f"rule kind {rule.kind!r} is not a control kind"
    )  # pragma: no cover - guarded by fire(kinds=...)


def inject(rule: FaultRule, site: str) -> None:
    """Evaluate one standalone rule's trigger and apply it if it fires.

    The compatibility entry point for the legacy per-shard
    ``fault_token`` strings (``parallel.worker.maybe_inject_fault``),
    which predate plans: the token is translated to a rule and run
    through the same trigger/apply machinery as planned faults.
    """
    plan = FaultPlan([rule], seed=0)
    fired = plan.fire(site, CONTROL_KINDS)
    if fired is not None:
        apply_rule(fired, site)


def fault_point(site: str) -> None:
    """Declare a control-flow injection site (no-op unless armed)."""
    plan = get_plan()
    if plan is None:
        return
    rule = plan.fire(site, CONTROL_KINDS)
    if rule is not None:
        apply_rule(rule, site)


def mangle(site: str, data: bytes) -> bytes:
    """Declare a byte-stream injection site; returns the (possibly
    corrupted or truncated) payload.  No-op unless armed."""
    plan = get_plan()
    if plan is None:
        return data
    rule = plan.fire(site, CONTROL_KINDS)
    if rule is not None:
        apply_rule(rule, site)
    rule = plan.fire(site, DATA_KINDS)
    if rule is None:
        return data
    _count_injection(site, rule)
    if not data:
        return data
    if rule.kind == "corrupt":
        position = plan.deterministic_int(len(data))
        mutated = bytearray(data)
        mutated[position] ^= 0xFF
        return bytes(mutated)
    # torn: keep a deterministic prefix, as if the write was cut short.
    fraction = rule.arg if rule.arg is not None else 0.5
    keep = max(1, min(len(data) - 1, int(len(data) * fraction)))
    return data[:keep]


__all__ = [
    "CONTROL_KINDS",
    "CRASH_EXIT_CODE",
    "DATA_KINDS",
    "FAULTS_ENV",
    "FAULTS_SEED_ENV",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "KINDS",
    "apply_rule",
    "fault_point",
    "get_plan",
    "inject",
    "mangle",
    "parse_plan",
    "parse_rule",
    "reset_plan",
    "set_plan",
]
