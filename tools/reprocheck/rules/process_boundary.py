"""Rule ``process-boundary``: only spec types cross process boundaries.

Worker processes are hydrated from scratch (spawn-safe), so everything
that crosses the parent/worker boundary must be a small picklable value:
the frozen spec dataclasses (``EngineConfig``, ``SpannerSpec``,
``TaskSpec``), shard descriptions, and builtins.  Shipping a live object
— an ``Engine``, an open store, a compiled automaton — either fails to
pickle or (worse) silently pickles a snapshot whose caches and file
handles are meaningless in the child.

Two surfaces are audited:

* the **worker entry point** (``worker_main``):
  every parameter must be a transport pipe (``worker_id``/``task_conn``/
  ``result_conn``) or carry an annotation built solely from whitelisted
  spec types, builtins and typing containers;
* the **fleet hooks** (``_worker_args``/``_shard_message``): every
  returned expression must be built from hook parameters (already vetted
  at the pool surface), whitelisted ``self.<attr>`` spec fields,
  constants and tuple/list packing thereof.
"""

from __future__ import annotations

import ast
from typing import List, Sequence, Set

from reprocheck.config import CheckConfig
from reprocheck.findings import Finding

RULE = "process-boundary"

#: Parameters that are the transport itself, not boundary cargo.
_TRANSPORT_PARAMS = {"worker_id", "task_conn", "result_conn"}

#: Annotation atoms that are always boundary-safe.
_SAFE_ANNOTATION_NAMES = {
    "int", "str", "float", "bool", "bytes", "None", "object",
    "Sequence", "Tuple", "tuple", "List", "list", "Dict", "dict",
    "Mapping", "Iterable", "Optional", "Union", "FrozenSet", "frozenset",
    "Set", "set", "Connection",
}


def _annotation_violations(annotation: ast.expr, allowed: Set[str]) -> List[str]:
    bad: List[str] = []
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id not in allowed:
            bad.append(node.id)
        elif isinstance(node, ast.Attribute):
            if node.attr not in allowed:
                bad.append(node.attr)
    return bad


def _check_entry_point(
    func: ast.FunctionDef, relpath: str, config: CheckConfig
) -> List[Finding]:
    allowed = _SAFE_ANNOTATION_NAMES | set(config.spec_whitelist)
    findings: List[Finding] = []
    params = list(func.args.posonlyargs) + list(func.args.args) + list(
        func.args.kwonlyargs
    )
    for param in params:
        if param.annotation is None:
            if param.arg not in _TRANSPORT_PARAMS:
                findings.append(
                    Finding(
                        RULE,
                        relpath,
                        param.lineno,
                        f"worker entry point '{func.name}' parameter "
                        f"'{param.arg}' has no spec-type annotation — "
                        "boundary cargo must be declared as a whitelisted "
                        "spec type",
                    )
                )
            continue
        for name in _annotation_violations(param.annotation, allowed):
            findings.append(
                Finding(
                    RULE,
                    relpath,
                    param.lineno,
                    f"worker entry point '{func.name}' parameter "
                    f"'{param.arg}' is typed with non-spec type '{name}' — "
                    "only spec types "
                    f"({', '.join(config.spec_whitelist)}) and builtins may "
                    "cross the process boundary",
                )
            )
    return findings


def _check_hook(
    func: ast.FunctionDef, relpath: str, config: CheckConfig
) -> List[Finding]:
    param_names = {
        arg.arg
        for arg in (
            list(func.args.posonlyargs)
            + list(func.args.args)
            + list(func.args.kwonlyargs)
        )
    }
    param_names.discard("self")

    def safe(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in param_names
        if isinstance(expr, ast.Attribute):
            return (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in config.boundary_safe_self_attrs
            )
        if isinstance(expr, (ast.Tuple, ast.List)):
            return all(safe(element) for element in expr.elts)
        if isinstance(expr, ast.Starred):
            return safe(expr.value)
        if isinstance(expr, ast.Call):
            packer = isinstance(expr.func, ast.Name) and expr.func.id in (
                "tuple",
                "list",
            )
            return packer and not expr.keywords and all(safe(a) for a in expr.args)
        return False

    findings: List[Finding] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and node.value is not None:
            if not safe(node.value):
                findings.append(
                    Finding(
                        RULE,
                        relpath,
                        node.lineno,
                        f"boundary hook '{func.name}' returns "
                        f"'{ast.unparse(node.value)}' — only hook "
                        "parameters, whitelisted self-attributes "
                        f"({', '.join(config.boundary_safe_self_attrs)}), "
                        "constants and tuple/list packing of those may be "
                        "shipped to workers",
                    )
                )
    return findings


def check_file(
    tree: ast.Module, lines: Sequence[str], relpath: str, config: CheckConfig
) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name in config.worker_entry_points:
            findings.extend(_check_entry_point(node, relpath, config))
        elif node.name in config.boundary_hooks:
            findings.extend(_check_hook(node, relpath, config))
    return findings
