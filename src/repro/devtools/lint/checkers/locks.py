"""RL002: classes that declare ``self._lock`` must hold it to mutate.

The repo's shared-state classes (``MetricsRegistry``, ``SpanBuffer``,
``HealthState``, ``FlightRecorder``, ``ClusterExecutor``) all follow
one convention: a ``_lock`` created in ``__init__`` guards every
mutation of instance state.  A mutation outside ``with self._lock:``
is a data race waiting for enough cores — exactly the class of bug no
test reliably reproduces.

Scope notes (kept deliberately narrow to stay useful):

* Only *mutations* are checked — attribute stores, ``del``, subscript
  stores, and calls to known container mutators.  Reads are allowed
  outside the lock (the repo uses double-checked locking on read-heavy
  paths, e.g. ``_Metric.labels``).
* ``__init__``/``__new__``/dunder-repr methods are exempt (no
  concurrent aliasing exists before construction completes), as are
  methods named ``*_locked`` (documented caller-holds-lock contract).
* Methods that call ``self._lock.acquire()`` manage the lock by hand
  and are skipped wholesale rather than second-guessed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.framework import (
    Checker,
    FileContext,
    Finding,
    is_self_attr,
)

#: Container methods that mutate their receiver.
MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "extend", "extendleft", "insert", "add",
        "remove", "discard", "pop", "popleft", "popitem", "clear",
        "update", "setdefault", "sort", "reverse",
    }
)

#: Methods exempt from the discipline.
EXEMPT_METHODS = frozenset(
    {"__init__", "__new__", "__post_init__", "__repr__", "__str__",
     "__del__", "__getstate__", "__setstate__"}
)

LOCK_ATTR = "_lock"


def _declares_lock(cls: ast.ClassDef) -> bool:
    """True if any method assigns ``self._lock`` (usually ``__init__``)."""
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        self_name = _self_name(method)
        if self_name is None:
            continue
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and any(
                is_self_attr(t, self_name, LOCK_ATTR) for t in node.targets
            ):
                return True
            if isinstance(node, ast.AnnAssign) and is_self_attr(
                node.target, self_name, LOCK_ATTR
            ):
                return True
    return False


def _self_name(method: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
    args = method.args.posonlyargs + method.args.args
    for decorator in method.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "staticmethod":
            return None
    return args[0].arg if args else None


def _holds_lock(with_node: ast.With | ast.AsyncWith, self_name: str) -> bool:
    for item in with_node.items:
        expr = item.context_expr
        if is_self_attr(expr, self_name, LOCK_ATTR):
            return True
    return False


class LockDiscipline(Checker):
    rule = "RL002"
    name = "lock-discipline"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and _declares_lock(node):
                yield from self._check_class(ctx, node)

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in EXEMPT_METHODS or method.name.endswith(
                "_locked"
            ):
                continue
            self_name = _self_name(method)
            if self_name is None:
                continue
            if self._manages_lock_by_hand(method, self_name):
                continue
            yield from self._walk(ctx, cls, method, method.body, self_name,
                                  held=False)

    @staticmethod
    def _manages_lock_by_hand(method: ast.AST, self_name: str) -> bool:
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("acquire", "release")
                and is_self_attr(node.func.value, self_name, LOCK_ATTR)
            ):
                return True
        return False

    def _walk(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        method: ast.AST,
        body: list[ast.stmt],
        self_name: str,
        held: bool,
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested scopes have their own calling context
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                now_held = held or _holds_lock(stmt, self_name)
                yield from self._walk(ctx, cls, method, stmt.body, self_name,
                                      now_held)
                continue
            if not held:
                yield from self._check_stmt(ctx, cls, method, stmt, self_name)
            for child_body in self._nested_bodies(stmt):
                yield from self._walk(ctx, cls, method, child_body, self_name,
                                      held)

    @staticmethod
    def _nested_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
        bodies = []
        for field in ("body", "orelse", "finalbody"):
            value = getattr(stmt, field, None)
            if isinstance(value, list) and value and isinstance(
                value[0], ast.stmt
            ):
                bodies.append(value)
        for handler in getattr(stmt, "handlers", []):
            bodies.append(handler.body)
        return bodies

    def _check_stmt(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        stmt: ast.stmt,
        self_name: str,
    ) -> Iterator[Finding]:
        def flag(node: ast.AST, what: str) -> Finding:
            return self.finding(
                ctx,
                node,
                f"{cls.name}.{method.name} mutates {what} outside "
                f"`with self.{LOCK_ATTR}:` — hold the lock or rename the "
                "method *_locked if the caller owns it",
            )

        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(stmt, ast.AnnAssign) and stmt.value is None:
                targets = []
            else:
                targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = stmt.targets
        for target in targets:
            if isinstance(target, ast.Tuple):
                inner: list[ast.expr] = list(target.elts)
            else:
                inner = [target]
            for tgt in inner:
                base = tgt
                if isinstance(base, (ast.Subscript,)):
                    base = base.value
                if is_self_attr(base, self_name) and base.attr != LOCK_ATTR:
                    yield flag(tgt, f"self.{base.attr}")
        # Mutating method calls on self.X (self.X.append(...), ...).
        # Scan only the statement's own expressions — nested statement
        # bodies (an `if:` wrapping `with self._lock:`) are visited by
        # _walk with their own held-state.
        own_exprs = [
            child
            for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.expr)
        ]
        for node in (n for e in own_exprs for n in ast.walk(e)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS
                and is_self_attr(node.func.value, self_name)
                and node.func.value.attr != LOCK_ATTR
            ):
                yield flag(node, f"self.{node.func.value.attr}."
                                 f"{node.func.attr}()")
