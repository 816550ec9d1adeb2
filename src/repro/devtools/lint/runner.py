"""The CLI runner behind ``python -m repro.devtools.lint``.

Runs every rule over the given paths and prints one
``path:line:col: RULE message`` line per finding, then a summary.
Exit codes: 0 clean, 1 at least one finding, 2 usage error.
"""

from __future__ import annotations

import argparse

from repro.devtools.lint.checkers import ALL_CHECKERS
from repro.devtools.lint.framework import lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description=(
            "repro-lint: AST-based invariant checks (pickle containment, "
            "lock discipline, async blocking, swallowed exceptions, "
            "metrics naming, wire-schema coverage)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    findings, files_scanned = lint_paths(
        args.paths, [cls() for cls in ALL_CHECKERS]
    )
    for finding in findings:
        print(finding.render())
    print(
        f"repro-lint: {len(findings)} finding(s) in {files_scanned} file(s)"
    )
    return 1 if findings else 0
