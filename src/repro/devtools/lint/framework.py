"""The lint framework: findings, the parsed file, and the file walk.

Checkers are small ``ast`` visitors (one module per rule under
:mod:`repro.devtools.lint.checkers`); everything shared lives here so
a new rule costs ~50 lines:

* :class:`Finding` — one diagnostic;
* :class:`FileContext` — a parsed file, shared by every checker;
* :class:`Checker` — the rule interface;
* :func:`lint_paths` — parse each file once, dispatch to every checker.

Nothing excuses a finding: it is fixed in the code, or its rule
changes in the checker along with a fixture.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, Iterator, Sequence


@dataclasses.dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a checker."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class FileContext:
    """One parsed file, shared by every checker."""

    def __init__(self, path: Path, rel_path: str, source: str) -> None:
        self.path = path
        self.rel_path = rel_path
        self.source = source
        self.tree = ast.parse(source, filename=rel_path)


class Checker:
    """Base class for one rule.

    Subclasses set ``rule`` (stable ID) and ``name`` and implement
    :meth:`check`.
    """

    rule: str = "RL000"
    name: str = "unnamed"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.rule,
            path=ctx.rel_path,
            line=node.lineno,
            col=node.col_offset + 1,
            message=message,
        )


#: Directory names never descended into during the walk.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".venv", "node_modules"}


def collect_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(sub.parts):
                    seen.setdefault(sub, None)
        else:
            seen.setdefault(path, None)
    return sorted(seen)


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(
    paths: Iterable[str | Path],
    checkers: Sequence[Checker],
    root: Path | None = None,
) -> tuple[list[Finding], int]:
    """Lint every file under ``paths`` with every checker.

    Returns ``(findings, files_scanned)``.  Findings are sorted by
    path, line, rule.  Unreadable or unparsable files surface as a
    single ``RL000`` finding — a lint run must never crash on the code
    it is judging.
    """
    root = root or Path.cwd()
    files = collect_files(paths)
    contexts: list[FileContext] = []
    findings: list[Finding] = []
    for path in files:
        rel = _rel_path(path, root)
        try:
            source = path.read_text(encoding="utf-8")
            contexts.append(FileContext(path, rel, source))
        except (OSError, SyntaxError, ValueError) as exc:
            findings.append(
                Finding(
                    rule="RL000",
                    path=rel,
                    line=getattr(exc, "lineno", None) or 1,
                    col=1,
                    message=f"cannot lint file: {exc}",
                )
            )
    for ctx in contexts:
        for checker in checkers:
            findings.extend(checker.check(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.col))
    return findings, len(contexts)


# ----------------------------------------------------------------------
# Shared AST helpers (used by several checkers)
# ----------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain rooted at a Name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_self_attr(node: ast.AST, self_name: str, attr: str | None = None) -> bool:
    """True for ``self.X`` (any X, or a specific ``attr``)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
        and (attr is None or node.attr == attr)
    )


def walk_no_functions(node: ast.AST) -> Iterator[ast.AST]:
    """Walk an AST without descending into nested function/class scopes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            stack.extend(ast.iter_child_nodes(child))
