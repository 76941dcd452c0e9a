"""Observability rules: disabled-mode fast paths and exception routing.

* **RPA003** — instrumentation calls (``OBS.metrics``/``OBS.tracer``/
  ``OBS.progress``/``OBS.querylog``/``OBS.interaction``/``OBS.account``)
  inside per-row hot functions (operator ``__next__``/``_run``/
  ``execute``/``__iter__`` and ``*_batches`` loops) must sit behind an
  enabled check, preserving PR 2's ~0.07% disabled-overhead budget.
* **RPA005** — an ``except`` handler that swallows silently (body of
  ``pass``/``continue``/constant assignments only) must route through the
  ``obs.errors`` counter (:func:`repro.obs.record_error` or a wired
  ``error_counter``) or carry an explicit ``# repro: swallow(<why>)``
  idempotency comment.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..core import FileContext, Finding, Rule, dotted_name, register

# Per-row / per-batch functions where an unguarded instrumentation call
# costs on every iteration of the disabled path.
HOT_FUNCTION_NAMES = frozenset({"__next__", "_run", "execute", "__iter__"})
HOT_FUNCTION_SUFFIX = "_batches"

# OBS.<surface> calls that allocate/lock/record and therefore need the
# guard; record_error is exempt by design (always-on, rare by contract).
INSTRUMENTED_SURFACES = frozenset({
    "metrics", "tracer", "progress", "querylog", "interaction", "account",
})

SWALLOW_RE = re.compile(r"#\s*repro:\s*swallow\(")

# Exceptions that are iteration/generator control flow, not errors:
# catching and discarding them is the *meaning* of the construct.
CONTROL_FLOW_EXCEPTIONS = frozenset({
    "StopIteration", "StopAsyncIteration", "GeneratorExit",
})


def _is_hot_function(name: str) -> bool:
    return name in HOT_FUNCTION_NAMES or name.endswith(HOT_FUNCTION_SUFFIX)


def _mentions_enabled(node: ast.AST, local_flags: set[str]) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr == "enabled":
            return True
        if isinstance(child, ast.Name) and child.id in local_flags:
            return True
    return False


@register
class ObsFastPathRule(Rule):
    id = "RPA003"
    name = "obs-fast-path"
    description = (
        "instrumentation calls in operator __next__/_run/execute/__iter__ "
        "and *_batches loops are guarded by an enabled check (disabled-"
        "mode overhead budget)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for function in ast.walk(ctx.tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                continue
            if not _is_hot_function(function.name):
                continue
            yield from self._check_function(ctx, function)

    def _check_function(
        self, ctx: FileContext,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        local_flags = self._local_enabled_names(function)
        early_exit_lines = self._early_exit_lines(function, local_flags)
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            surface = self._instrumented_surface(node)
            if surface is None:
                continue
            if self._guarded(ctx, node, function, local_flags):
                continue
            if any(line < node.lineno for line in early_exit_lines):
                continue
            yield ctx.make_finding(
                self.id, node,
                f"'OBS.{surface}' call in hot function "
                f"'{function.name}' is not behind an enabled check; "
                "wrap it in 'if OBS.enabled:' to keep the disabled "
                "fast path free",
            )

    @staticmethod
    def _instrumented_surface(call: ast.Call) -> str | None:
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if len(parts) >= 2 and parts[0] == "OBS" \
                and parts[1] in INSTRUMENTED_SURFACES:
            return parts[1]
        return None

    @staticmethod
    def _local_enabled_names(function: ast.AST) -> set[str]:
        """Locals assigned from an expression reading ``.enabled`` — the
        ``logging = log.enabled; if logging:`` idiom."""
        flags: set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and _mentions_enabled(
                    node.value, set()):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        flags.add(target.id)
        return flags

    @staticmethod
    def _guarded(ctx: FileContext, node: ast.AST, function: ast.AST,
                 local_flags: set[str]) -> bool:
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.If, ast.IfExp)) \
                    and _mentions_enabled(ancestor.test, local_flags):
                return True
            if ancestor is function:
                break
        return False

    @staticmethod
    def _early_exit_lines(function: ast.AST,
                          local_flags: set[str]) -> list[int]:
        """Lines of ``if not <...enabled...>: return/continue/raise`` —
        everything after one is on the enabled path."""
        lines: list[int] = []
        for node in ast.walk(function):
            if not isinstance(node, ast.If) or node.orelse:
                continue
            if not isinstance(node.test, ast.UnaryOp) \
                    or not isinstance(node.test.op, ast.Not):
                continue
            if not _mentions_enabled(node.test.operand, local_flags):
                continue
            if node.body and isinstance(
                    node.body[-1], (ast.Return, ast.Continue, ast.Raise)):
                lines.append(node.lineno)
        return lines


@register
class SwallowRoutingRule(Rule):
    id = "RPA005"
    name = "swallow-routing"
    description = (
        "silent 'except ...: pass' swallows route the exception through "
        "the obs.errors counter (record_error / error_counter) or carry "
        "a '# repro: swallow(<why>)' idempotency comment"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_silent(node):
                continue
            if self._control_flow_only(node):
                continue
            last_line = node.end_lineno or node.lineno
            if ctx.comment_in_range(node.lineno, last_line, SWALLOW_RE):
                continue
            caught = self._caught_name(node)
            yield ctx.make_finding(
                self.id, node,
                f"'except {caught}' swallows silently: count it via "
                "record_error(...) / the wired error_counter, or mark "
                "the swallow idempotent with '# repro: swallow(<why>)'",
            )

    @staticmethod
    def _caught_name(node: ast.ExceptHandler) -> str:
        if node.type is None:
            return "BaseException"
        if isinstance(node.type, ast.Tuple):
            names = [dotted_name(elt) or "?" for elt in node.type.elts]
            return "(" + ", ".join(names) + ")"
        return dotted_name(node.type) or "<dynamic>"

    @staticmethod
    def _control_flow_only(node: ast.ExceptHandler) -> bool:
        if node.type is None:
            return False
        types = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        names = [dotted_name(t) for t in types]
        return all(
            name is not None
            and name.split(".")[-1] in CONTROL_FLOW_EXCEPTIONS
            for name in names
        )

    @classmethod
    def _is_silent(cls, node: ast.ExceptHandler) -> bool:
        """True when every statement discards the exception without a
        trace: pass/continue/break, or assignments of plain constants
        (the ``value = None`` fallback shape)."""
        return all(cls._is_silent_stmt(stmt) for stmt in node.body)

    @staticmethod
    def _is_silent_stmt(stmt: ast.stmt) -> bool:
        if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
            return True
        if isinstance(stmt, ast.Expr) \
                and isinstance(stmt.value, ast.Constant):
            return True  # stray docstring / ellipsis
        if isinstance(stmt, ast.Assign):
            return isinstance(stmt.value, ast.Constant)
        if isinstance(stmt, ast.AnnAssign):
            return stmt.value is None \
                or isinstance(stmt.value, ast.Constant)
        return False
