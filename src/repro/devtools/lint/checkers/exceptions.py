"""RL004: broad except handlers must not swallow silently.

PR 7's decree: every swallowed exception is counted.  A broad handler
(bare ``except:``, ``except Exception``, ``except BaseException``, or
a tuple containing one of those) must do at least one of:

* re-raise (``raise`` anywhere in the handler);
* propagate the bound exception as data (reference ``exc``);
* log it structurally (``log_event(...)`` or a ``logger.warning``-style
  call);
* count it (``....inc()`` on an ``errors_total``-style counter, or a
  flight-recorder ``.record(...)``).

Narrow handlers (``except ValueError: pass``) are a deliberate,
reviewable statement about one failure mode and are not flagged —
"narrow the exception type" is an accepted fix for this rule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.framework import Checker, FileContext, Finding

BROAD_NAMES = frozenset({"Exception", "BaseException"})

#: Logger-style methods that count as handling.
LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical"}
)

#: Metric/recorder methods that count as handling.
COUNT_METHODS = frozenset({"inc", "record"})


def _is_broad(type_node: ast.expr | None) -> bool:
    if type_node is None:
        return True  # bare except:
    if isinstance(type_node, ast.Name):
        return type_node.id in BROAD_NAMES
    if isinstance(type_node, ast.Tuple):
        return any(_is_broad(elt) for elt in type_node.elts)
    return False


class SwallowedException(Checker):
    rule = "RL004"
    name = "swallowed-exception"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and _is_broad(node.type):
                if not self._handles(node):
                    yield self.finding(
                        ctx,
                        node,
                        "broad except handler swallows the error — "
                        "re-raise, log via log_event, count it into an "
                        "errors_total counter, or narrow the exception "
                        "type",
                    )

    @staticmethod
    def _handles(handler: ast.ExceptHandler) -> bool:
        bound = handler.name
        for node in (
            n for stmt in handler.body for n in ast.walk(stmt)
        ):
            if isinstance(node, ast.Raise):
                return True
            if bound and isinstance(node, ast.Name) and node.id == bound:
                return True
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "log_event":
                    return True
                if isinstance(func, ast.Attribute) and func.attr in (
                    LOG_METHODS | COUNT_METHODS
                ):
                    return True
        return False
