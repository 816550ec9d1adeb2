"""RL001: no pickle anywhere in the library — the allowlist is empty.

Cluster payloads ride the typed job codec
(:mod:`repro.service.jobcodec`): jobs are registered callable names
plus schema-checked arguments — data, never code — so nothing in
``src`` has any business importing a pickle-shaped serializer.  Any
such import reopens a deserialize-to-RCE surface, silently.
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

#: Modules that deserialize arbitrary Python objects.
FORBIDDEN_MODULES = frozenset(
    {"pickle", "cPickle", "_pickle", "dill", "cloudpickle", "shelve"}
)


class PickleContainment(Checker):
    rule = "RL001"
    name = "pickle-containment"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in FORBIDDEN_MODULES:
                        yield self.finding(
                            ctx,
                            node,
                            f"import of {alias.name!r} — pickle is "
                            "banned from the library; ship values "
                            "through the typed job codec in "
                            "repro.service.jobcodec",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in FORBIDDEN_MODULES:
                    yield self.finding(
                        ctx,
                        node,
                        f"import from {node.module!r} — pickle is "
                        "banned from the library; ship values through "
                        "the typed job codec in repro.service.jobcodec",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in ("__import__", "importlib.import_module"):
                    if (
                        node.args
                        and isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)
                        and node.args[0].value.split(".")[0]
                        in FORBIDDEN_MODULES
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"dynamic import of {node.args[0].value!r} "
                            "— pickle is banned from the library",
                        )
            elif isinstance(node, ast.Attribute):
                base = dotted_name(node.value)
                if base in FORBIDDEN_MODULES:
                    yield self.finding(
                        ctx,
                        node,
                        f"use of {base}.{node.attr} — pickle is banned "
                        "from the library",
                    )
