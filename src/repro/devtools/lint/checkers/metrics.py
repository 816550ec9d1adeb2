"""RL005: registry metrics follow the naming contract.

One dashboard queries every plane, so one contract names them all
(README "Observability"): every series carries the ``repro_`` prefix,
counters end ``_total`` (Prometheus convention — rate() only makes
sense on counters), non-counters must *not* claim ``_total``, and the
HELP text is present so a scrape is self-describing.

Checked at the registration call site: any ``.counter("name", ...)``,
``.gauge(...)``, ``.histogram(...)`` call whose first argument is a
string literal.  Dynamic names are skipped (nothing to check
statically) — the registry's own runtime validation still applies.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.devtools.lint.framework import Checker, FileContext, Finding

METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})

NAME_RE = re.compile(r"repro_[a-z0-9_]+")


class MetricsNaming(Checker):
    rule = "RL005"
    name = "metrics-naming"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in METRIC_FACTORIES
            ):
                continue
            kind = node.func.attr
            if not node.args:
                continue
            first = node.args[0]
            if not (
                isinstance(first, ast.Constant)
                and isinstance(first.value, str)
            ):
                continue  # dynamic name: runtime validation's problem
            name = first.value
            if NAME_RE.fullmatch(name) is None:
                yield self.finding(
                    ctx,
                    node,
                    f"metric {name!r} must match 'repro_[a-z0-9_]+' "
                    "(repo-wide namespace prefix, lowercase)",
                )
            if kind == "counter" and not name.endswith("_total"):
                yield self.finding(
                    ctx,
                    node,
                    f"counter {name!r} must end '_total' "
                    "(Prometheus counter convention)",
                )
            if kind != "counter" and name.endswith("_total"):
                yield self.finding(
                    ctx,
                    node,
                    f"{kind} {name!r} must not end '_total' — that "
                    "suffix promises counter semantics",
                )
            help_arg: ast.expr | None = None
            if len(node.args) > 1:
                help_arg = node.args[1]
            else:
                for kw in node.keywords:
                    if kw.arg == "help":
                        help_arg = kw.value
            if help_arg is None or (
                isinstance(help_arg, ast.Constant)
                and (
                    not isinstance(help_arg.value, str)
                    or not help_arg.value.strip()
                )
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"metric {name!r} registered without HELP text — "
                    "a scrape must be self-describing",
                )
