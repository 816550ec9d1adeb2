"""RL006: the typed job codec stays closed and size-capped.

The job codec (``repro/service/jobcodec.py``) is the value layer every
cluster frame carries, and it spells its vocabulary in three tables a
reader has to keep in step by hand:

* the ``Tag`` byte table, the ``_DECODERS`` dispatch table and the
  ``_TAG_NAMES`` name table must agree member-for-member — a tag with
  no decoder is a frame the peer cannot read, a decoder with no tag is
  dead code wearing a wire byte;
* every envelope entry point (``encode_cluster_*``/``decode_cluster_*``)
  calls ``check_payload_size`` — no envelope leaves or enters unbounded;
* outside the ``_Decoder`` class, nothing subscripts a ``.data``
  buffer directly — all byte reads go through the bounds-checked
  ``take``/``uint``/``name`` accessors, so a lying length field cannot
  turn into an silent short read.

The frame codec (``repro/service/codec.py``) needs no rule: each frame
type is one row of its ``FRAMES`` table, a duplicate tag byte, wire
name or class fails at import, and ``tests/test_service_codec.py``
holds the table to the frame dataclasses and every length-delimited
field to a declared cap.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.framework import Checker, FileContext, Finding

JOBCODEC_SUFFIX = "service/jobcodec.py"


class WireSchemaCoverage(Checker):
    rule = "RL006"
    name = "wire-schema-coverage"
    description = (
        "jobcodec Tag/_DECODERS/_TAG_NAMES must agree, envelope entry "
        "points must call check_payload_size, and byte reads go "
        "through the bounds-checked _Decoder accessors"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.rel_path.endswith(JOBCODEC_SUFFIX):
            yield from self._check_jobcodec(ctx)

    def _check_jobcodec(self, ctx: FileContext) -> Iterator[Finding]:
        tag_members: set[str] = set()
        decoder_keys: set[str] = set()
        name_keys: set[str] = set()
        decoder_nodes: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                if node.name == "Tag":
                    for stmt in node.body:
                        if isinstance(stmt, ast.Assign):
                            tag_members.update(
                                t.id
                                for t in stmt.targets
                                if isinstance(t, ast.Name)
                            )
                elif node.name == "_Decoder":
                    decoder_nodes.update(id(sub) for sub in ast.walk(node))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if not isinstance(target, ast.Name) or not isinstance(
                        node.value, ast.Dict
                    ):
                        continue
                    members = {
                        key.attr
                        for key in node.value.keys
                        if isinstance(key, ast.Attribute)
                        and isinstance(key.value, ast.Name)
                        and key.value.id == "Tag"
                    }
                    if target.id == "_DECODERS":
                        decoder_keys = members
                    elif target.id == "_TAG_NAMES":
                        name_keys = members
        for member in sorted(tag_members - decoder_keys):
            yield self.finding(
                ctx, ctx.tree,
                f"Tag.{member} has no _DECODERS entry — an encodable "
                "value the peer cannot read", line=1,
            )
        for member in sorted(decoder_keys - tag_members):
            yield self.finding(
                ctx, ctx.tree,
                f"_DECODERS keys unknown Tag member {member!r} — dead "
                "decode branch wearing a wire byte", line=1,
            )
        for member in sorted(tag_members ^ name_keys):
            yield self.finding(
                ctx, ctx.tree,
                f"Tag table and _TAG_NAMES disagree on {member!r} — "
                "docs/errors would name tags the wire does not carry",
                line=1,
            )
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
