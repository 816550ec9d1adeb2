"""RL006: the typed job codec stays size-capped and bounds-checked.

The job codec (``repro/service/jobcodec.py``) is the value layer every
cluster frame carries.  Its vocabulary needs no rule — the one
``TERMS`` table and the struct table refuse to load on a duplicate tag
byte, name or class, a term without a decoder or a row that does not
cover its class, exactly as the frame table (``service/codec.py``) and
the message rows (``core/protocol.py``) do — but two promises are about
code, not tables:

* every envelope entry point (``encode_cluster_*``/``decode_cluster_*``)
  calls ``check_payload_size`` — no envelope leaves or enters unbounded;
* outside the ``_Decoder`` class, nothing subscripts a ``.data``
  buffer directly — all byte reads go through the bounds-checked
  ``take``/``uint``/``name`` accessors, so a lying length field cannot
  turn into an silent short read.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.framework import Checker, FileContext, Finding

JOBCODEC_SUFFIX = "service/jobcodec.py"


class WireSchemaCoverage(Checker):
    rule = "RL006"
    name = "wire-schema-coverage"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.rel_path.endswith(JOBCODEC_SUFFIX):
            yield from self._check_jobcodec(ctx)

    def _check_jobcodec(self, ctx: FileContext) -> Iterator[Finding]:
        decoder_nodes: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and node.name == "_Decoder":
                decoder_nodes.update(id(sub) for sub in ast.walk(node))
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.FunctionDef) and node.name.startswith(
                ("encode_cluster_", "decode_cluster_")
            ):
                capped = any(
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "check_payload_size"
                    for sub in ast.walk(node)
                )
                if not capped:
                    yield self.finding(
                        ctx, node,
                        f"envelope entry point {node.name!r} does not "
                        "call check_payload_size — unbounded payloads "
                        "cross the wire",
                    )
            elif (
                isinstance(node, ast.Subscript)
                and id(node) not in decoder_nodes
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "data"
            ):
                yield self.finding(
                    ctx, node,
                    "direct subscript of a decoder's .data buffer "
                    "outside _Decoder — byte reads must go through the "
                    "bounds-checked take/uint/name accessors",
                )
