"""RL003: nothing blocking directly inside ``async def`` bodies.

One stalled coroutine stalls every session the supervisor is serving
— the event loop is the shared resource the whole service plane rides.
Blocking work must leave the loop via ``loop.run_in_executor`` (the
engine's ``futures_pool`` is the sanctioned bridge) or use the asyncio
native (``asyncio.sleep``, ``asyncio.open_connection``).

Flags, when lexically inside an ``async def`` (nested sync ``def``
bodies are excluded — they run wherever they are called):

* ``time.sleep`` (use ``asyncio.sleep``);
* ``subprocess.run/call/check_call/check_output/Popen`` and
  ``os.system``/``os.popen`` (use ``asyncio.create_subprocess_*``);
* sync socket construction (``socket.socket``,
  ``socket.create_connection``) — use ``asyncio.open_connection``;
* builtin ``open``/``input`` (sync file/console I/O on the loop);
* ``hashlib`` calls inside a ``for``/``while`` loop — the hash
  mega-loops this repo's workloads are made of must offload to the
  engine pool, never run on the loop.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.framework import (
    Checker,
    FileContext,
    Finding,
    dotted_name,
)

#: Dotted call → suggested replacement.
BLOCKING_CALLS = {
    "time.sleep": "asyncio.sleep",
    "subprocess.run": "asyncio.create_subprocess_exec",
    "subprocess.call": "asyncio.create_subprocess_exec",
    "subprocess.check_call": "asyncio.create_subprocess_exec",
    "subprocess.check_output": "asyncio.create_subprocess_exec",
    "subprocess.Popen": "asyncio.create_subprocess_exec",
    "os.system": "asyncio.create_subprocess_shell",
    "os.popen": "asyncio.create_subprocess_shell",
    "socket.socket": "asyncio.open_connection",
    "socket.create_connection": "asyncio.open_connection",
}

#: Blocking builtins (bare-name calls).
BLOCKING_BUILTINS = {
    "open": "loop.run_in_executor (or read before entering async code)",
    "input": "never prompt on the event loop",
}


class BlockingInAsync(Checker):
    rule = "RL003"
    name = "blocking-in-async"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_body(ctx, node, node.body,
                                                  in_loop=False)

    def _check_async_body(
        self,
        ctx: FileContext,
        func: ast.AsyncFunctionDef,
        body: list[ast.stmt],
        in_loop: bool,
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # separate scope; nested async defs re-visited
            looping = in_loop or isinstance(
                stmt, (ast.For, ast.AsyncFor, ast.While)
            )
            exprs = [
                child
                for child in ast.iter_child_nodes(stmt)
                if isinstance(child, ast.expr)
            ]
            # `with open(...)` hides the call in a withitem node.
            for item in getattr(stmt, "items", []):
                exprs.append(item.context_expr)
            for expr in exprs:
                yield from self._check_expr(ctx, func, expr, looping)
            for field in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, field, None)
                if isinstance(nested, list) and nested and isinstance(
                    nested[0], ast.stmt
                ):
                    yield from self._check_async_body(ctx, func, nested,
                                                      looping)
            for handler in getattr(stmt, "handlers", []):
                yield from self._check_async_body(ctx, func, handler.body,
                                                  looping)

    def _check_expr(
        self,
        ctx: FileContext,
        func: ast.AsyncFunctionDef,
        expr: ast.expr,
        in_loop: bool,
    ) -> Iterator[Finding]:
        # Manual walk skipping lambda bodies: a lambda handed to
        # run_in_executor is deferred work, not a call on the loop.
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in BLOCKING_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"blocking call {name}() inside async def "
                    f"{func.name} — use {BLOCKING_CALLS[name]} or "
                    "offload via run_in_executor",
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in BLOCKING_BUILTINS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"blocking builtin {node.func.id}() inside async def "
                    f"{func.name} — {BLOCKING_BUILTINS[node.func.id]}",
                )
            elif (
                in_loop
                and name is not None
                and (name == "hashlib.new" or name.startswith("hashlib."))
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() inside a loop in async def {func.name} — "
                    "hash mega-loops must offload to the engine pool "
                    "(futures_pool + run_in_executor)",
                )
