"""Observability-contract rule for the serving/cluster trace plane.

Latency attribution (:mod:`repro.insight`) tiles each request's
end-to-end interval with the ``queued`` / ``prefill`` / ``decode``
spans the engines emit, and fails loudly on any gap it cannot explain.
That exactness only holds if every code path that *ends* a request's
current lifecycle phase also closes the phase's span — including the
disruptive paths (preempt, quarantine, drain, terminal failure) where
forgetting the span is easiest.

``obs-span-balance`` enforces this statically over the serving and
cluster sources: any method that performs a **terminal lifecycle
transition** — requeueing a record (``reset_for_requeue`` /
``reset_for_preempt`` / ``reset_for_corruption``) or marking it
``FINISHED`` / ``FAILED`` — must emit a lifecycle span itself or via
a same-class helper it (transitively) calls.  The record's own
``reset_for_*`` methods are exempt: they are the state transition, not
the scheduler path that observed it.

In the serving engine every transition funnels into one emitter,
``ServingEngine._lifecycle``, which closes whatever phase the record
shows open; the rule still guards the call sites (``_retire``,
``_fail_request``, ``_requeue``) and the cluster's own paths.

A genuinely span-free transition (e.g. failing a request that never
reached any replica queue, so no span is open) is sanctioned with a
standard suppression on the mutating line::

    # repro: allow[obs-span-balance] -- <why no span is open here>
    record.status = RequestStatus.FAILED
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import Finding, ModuleInfo
from .registry import Rule, register

__all__ = ["SpanBalanceRule"]

#: Repo-relative path prefixes the rule patrols.
_SCOPES = ("src/repro/serving/", "src/repro/cluster/")

#: RequestRecord lifecycle-transition methods: calling one of these
#: tears down the record's current phase (requeue after preemption /
#: corruption / drain), so the caller owes a closed span.
_REQUEUE_METHODS = frozenset({
    "reset_for_requeue", "reset_for_preempt", "reset_for_corruption",
})

#: Terminal RequestStatus values whose assignment ends the lifecycle.
_TERMINAL_STATUSES = frozenset({"FINISHED", "FAILED"})


def _is_terminal_status_value(node: ast.AST) -> bool:
    """``RequestStatus.FINISHED`` / ``RequestStatus.FAILED`` reference."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in _TERMINAL_STATUSES
        and isinstance(node.value, ast.Name)
        and node.value.id == "RequestStatus"
    )


def _transition_lines(fn: ast.FunctionDef) -> List[int]:
    """Line numbers of terminal lifecycle transitions in one function."""
    lines: List[int] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _REQUEUE_METHODS:
            lines.append(node.lineno)
        elif isinstance(node, ast.Assign):
            if _is_terminal_status_value(node.value) and any(
                isinstance(t, ast.Attribute) and t.attr == "status"
                for t in node.targets
            ):
                lines.append(node.lineno)
    return sorted(lines)


def _emits_span_directly(fn: ast.FunctionDef) -> bool:
    """Body calls ``<anything>.span(...)`` — a tracer span emission."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "span":
            return True
    return False


def _self_calls(fn: ast.FunctionDef) -> Set[str]:
    calls: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                isinstance(node.func.value, ast.Name) and \
                node.func.value.id == "self":
            calls.add(node.func.attr)
    return calls


def _span_reachability(
    methods: Dict[str, ast.FunctionDef],
) -> Dict[str, bool]:
    """Fixed point: a method emits a span if it, or any same-class
    method it calls on ``self`` (transitively), does."""
    emits = {name: _emits_span_directly(fn) for name, fn in methods.items()}
    changed = True
    while changed:
        changed = False
        for name, fn in methods.items():
            if emits[name]:
                continue
            if any(emits.get(callee, False) for callee in _self_calls(fn)):
                emits[name] = True
                changed = True
    return emits


def _functions_with_context(
    tree: ast.Module,
) -> Iterator[Tuple[Optional[str], str, ast.FunctionDef,
                    Dict[str, ast.FunctionDef]]]:
    """Yield (class-name, fn-name, fn, same-class method map) pairs."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = {
                item.name: item for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            for name, fn in sorted(methods.items()):
                yield node.name, name, fn, methods
        elif isinstance(node, ast.FunctionDef):
            yield None, node.name, node, {node.name: node}


@register
class SpanBalanceRule(Rule):
    rule_id = "obs-span-balance"
    family = "observability"
    description = (
        "serving/cluster code path ends a request lifecycle phase "
        "(requeue or terminal status) without emitting a lifecycle span"
    )

    def check_module(self, module: ModuleInfo, index) -> Iterator[Finding]:
        if not module.relpath.startswith(_SCOPES):
            return
        for class_name, name, fn, methods in \
                _functions_with_context(module.tree):
            if name.startswith("reset_for_"):
                # The record's own transition methods *are* the state
                # change; the scheduler path invoking them owes the span.
                continue
            lines = _transition_lines(fn)
            if not lines:
                continue
            emits = _span_reachability(methods)
            if emits.get(name, False):
                continue
            where = f"{class_name}.{name}()" if class_name else f"{name}()"
            yield Finding(
                rule=self.rule_id,
                family=self.family,
                path=module.relpath,
                line=lines[0],
                message=(
                    f"{where} ends a request lifecycle phase (requeue or "
                    f"terminal status) but never emits a span, directly "
                    f"or via a same-class helper: the request's timeline "
                    f"has an untiled hole latency attribution cannot "
                    f"explain"
                ),
            )
