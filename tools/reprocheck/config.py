"""Checker configuration: built-in defaults + ``[tool.reprocheck]``.

The defaults below *are* this repository's policy; ``pyproject.toml``
only needs entries that differ (the committed one restates the policy
explicitly so it is reviewable in one place).  Paths are repo-relative
with forward slashes.
"""

from __future__ import annotations

import os
import tomllib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class CheckConfig:
    """Everything the rules need to know about the tree they check."""

    #: Repo root every path in findings / policy lists is relative to.
    root: str = "."

    # -- numpy-containment ------------------------------------------------
    #: The only modules allowed an *unguarded* module-level numpy import.
    numpy_unguarded_allowed: Tuple[str, ...] = (
        "src/repro/core/kernels/numpy_kernel.py",
    )
    #: Modules allowed a guarded (try/ImportError) or lazy (in-function)
    #: numpy import.  Unguarded-allowed modules are implicitly included.
    numpy_guarded_allowed: Tuple[str, ...] = (
        "src/repro/core/kernels/__init__.py",
        "src/repro/slp/lz.py",
    )

    # -- process-boundary -------------------------------------------------
    #: Types that may cross a worker process boundary (plus builtins).
    spec_whitelist: Tuple[str, ...] = (
        "EngineConfig",
        "SpannerSpec",
        "TaskSpec",
        "Shard",
        "ShardPlan",
    )
    #: Worker entry points whose signatures the rule audits.
    worker_entry_points: Tuple[str, ...] = ("worker_main",)
    #: Methods building what crosses to a worker, whose return
    #: expressions the rule audits.
    boundary_hooks: Tuple[str, ...] = ("_worker_args", "_shard_message")
    #: ``self.<attr>`` values a hook may ship (must be spec-typed fields).
    boundary_safe_self_attrs: Tuple[str, ...] = ("config",)

    # -- protocol-completeness --------------------------------------------
    protocol_module: str = "src/repro/service/protocol.py"
    server_module: str = "src/repro/service/server.py"
    client_module: str = "src/repro/service/client.py"

    # -- resource-discipline ----------------------------------------------
    #: Resource-acquiring calls: bare names and ``module.attr`` pairs.
    resource_names: Tuple[str, ...] = ("open",)
    resource_attrs: Tuple[Tuple[str, str], ...] = (
        ("mmap", "mmap"),
        ("socket", "socket"),
        ("socket_module", "socket"),
        ("subprocess", "Popen"),
    )

    # -- ratchet ----------------------------------------------------------
    ratchet_file: str = "mypy-ratchet.toml"
    #: Packages/modules the ratchet file must cover (acceptance floor).
    ratchet_required: Tuple[str, ...] = (
        "src/repro/engine",
        "src/repro/core/kernels",
        "src/repro/session.py",
        "src/repro/service/protocol.py",
        "src/repro/store",
    )

    #: Extra per-rule path excludes, e.g. {"all-sync": ["src/legacy"]}.
    rule_excludes: Dict[str, List[str]] = field(default_factory=dict)


def _as_tuple(value: object, default: Tuple[str, ...]) -> Tuple[str, ...]:
    if isinstance(value, list):
        return tuple(str(item) for item in value)
    return default


def load_config(root: str, pyproject: Optional[str] = None) -> CheckConfig:
    """The config for ``root``, honouring its ``[tool.reprocheck]`` table."""
    defaults = CheckConfig(root=root)
    path = pyproject or os.path.join(root, "pyproject.toml")
    try:
        with open(path, "rb") as fh:
            table = tomllib.load(fh).get("tool", {}).get("reprocheck", {})
    except OSError:
        return defaults
    pairs = table.get("resource_attrs")
    resource_attrs = (
        tuple((str(a), str(b)) for a, b in pairs)
        if isinstance(pairs, list)
        else defaults.resource_attrs
    )
    excludes = table.get("rule_excludes")
    return CheckConfig(
        root=root,
        numpy_unguarded_allowed=_as_tuple(
            table.get("numpy_unguarded_allowed"), defaults.numpy_unguarded_allowed
        ),
        numpy_guarded_allowed=_as_tuple(
            table.get("numpy_guarded_allowed"), defaults.numpy_guarded_allowed
        ),
        spec_whitelist=_as_tuple(table.get("spec_whitelist"), defaults.spec_whitelist),
        worker_entry_points=_as_tuple(
            table.get("worker_entry_points"), defaults.worker_entry_points
        ),
        boundary_hooks=_as_tuple(table.get("boundary_hooks"), defaults.boundary_hooks),
        boundary_safe_self_attrs=_as_tuple(
            table.get("boundary_safe_self_attrs"), defaults.boundary_safe_self_attrs
        ),
        protocol_module=str(table.get("protocol_module", defaults.protocol_module)),
        server_module=str(table.get("server_module", defaults.server_module)),
        client_module=str(table.get("client_module", defaults.client_module)),
        resource_names=_as_tuple(table.get("resource_names"), defaults.resource_names),
        resource_attrs=resource_attrs,
        ratchet_file=str(table.get("ratchet_file", defaults.ratchet_file)),
        ratchet_required=_as_tuple(
            table.get("ratchet_required"), defaults.ratchet_required
        ),
        rule_excludes=dict(excludes) if isinstance(excludes, dict) else {},
    )
