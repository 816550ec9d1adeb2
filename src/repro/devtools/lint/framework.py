"""The lint framework: findings, suppressions, and the file walk.

Checkers are small ``ast`` visitors (one module per rule under
:mod:`repro.devtools.lint.checkers`); everything shared lives here so
a new rule costs ~50 lines:

* :class:`Finding` — one diagnostic, with a content-based fingerprint
  (rule + file + flagged-line text) so baselines survive line shifts;
* :class:`FileContext` — a parsed file plus its inline suppressions
  (``# repro-lint: disable=RL001[,RL002]`` on the flagged line or on a
  standalone comment line directly above it);
* :class:`Checker` — the rule interface;
* :func:`lint_paths` — parse each file once, dispatch to every
  checker, drop suppressed findings.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import io
import re
import tokenize
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Severity levels, strongest first (ordering used for sorting output).
SEVERITIES = ("error", "warning")

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_*,\s]+)"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a checker."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity for baselining.

        Content-based — rule + file + the flagged line's stripped text
        — so inserting unrelated lines above a grandfathered finding
        does not invalidate the baseline, while editing the flagged
        line itself (i.e. touching the code in question) does.
        """
        basis = "\x00".join((self.rule, self.path, self.snippet))
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity}: {self.message}"
        )


@dataclasses.dataclass(frozen=True)
class _Suppression:
    rules: frozenset[str]
    standalone: bool  # comment-only line → also covers the next line


def parse_suppressions(source: str) -> dict[int, _Suppression]:
    """Map line number → suppression parsed from ``# repro-lint:`` comments.

    Tokenize-based (not regex-over-lines) so a ``repro-lint`` string
    inside a string literal never counts as a directive.  Returns an
    empty map for source that fails to tokenize — the parse error is
    reported separately.
    """
    out: dict[int, _Suppression] = {}
    lines = source.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            rules = frozenset(
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            )
            if not rules:
                continue
            lineno, col = tok.start
            before = lines[lineno - 1][:col] if lineno <= len(lines) else ""
            out[lineno] = _Suppression(
                rules=rules, standalone=not before.strip()
            )
    except tokenize.TokenError:
        return {}
    return out


class FileContext:
    """One parsed file, shared by every checker."""

    def __init__(self, path: Path, rel_path: str, source: str) -> None:
        self.path = path
        self.rel_path = rel_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=rel_path)
        self.suppressions = parse_suppressions(source)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True if ``rule`` is disabled for ``line``.

        A directive suppresses its own line; a *standalone* comment
        line additionally suppresses the line directly below it.
        """
        own = self.suppressions.get(line)
        if own is not None and ("*" in own.rules or rule in own.rules):
            return True
        above = self.suppressions.get(line - 1)
        if (
            above is not None
            and above.standalone
            and ("*" in above.rules or rule in above.rules)
        ):
            return True
        return False


class Checker:
    """Base class for one rule.

    Subclasses set ``rule`` (stable ID), ``name``, ``description`` and
    implement :meth:`check`.
    """

    rule: str = "RL000"
    name: str = "unnamed"
    severity: str = "error"
    description: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST | None,
        message: str,
        *,
        line: int | None = None,
        severity: str | None = None,
    ) -> Finding:
        lineno = line if line is not None else getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) if line is None else 0
        return Finding(
            rule=self.rule,
            severity=severity or self.severity,
            path=ctx.rel_path,
            line=lineno,
            col=col + 1,
            message=message,
            snippet=ctx.snippet(lineno),
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
                    severity="error",
                    path=rel,
                    line=getattr(exc, "lineno", None) or 1,
                    col=1,
                    message=f"cannot lint file: {exc}",
                )
            )
    for ctx in contexts:
        for checker in checkers:
            for finding in checker.check(ctx):
                if not ctx.is_suppressed(finding.rule, finding.line):
                    findings.append(finding)
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
