"""Every name a package exports has a reader.

A package's ``__all__`` (the names of its ``_reexport`` table) is the
one import path its names are promised under.  A name stays there only
while some file outside that ``__init__`` reads it through the package:
a ``from <pkg> import …`` or a ``<pkg>.<name>`` reference in ``src``,
``tests``, ``examples``, ``benchmarks`` (the frozen ledger included),
``README.md`` or the CI workflow.  Everything else imports from the owning module.
"""

import importlib
import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The version string is the package's identity, not an API.
EXEMPT = {"__version__"}

_FROM_IMPORT = re.compile(r"from\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^\n]*)")
_DOTTED = re.compile(r"\brepro(?:\.\w+)+")


def _exports() -> dict[str, tuple[pathlib.Path, list[str]]]:
    """Package dotted name -> (its ``__init__``, its ``__all__``)."""
    out = {}
    for init in sorted((REPO_ROOT / "src" / "repro").rglob("__init__.py")):
        package = ".".join(init.relative_to(REPO_ROOT / "src").parent.parts)
        names = getattr(importlib.import_module(package), "__all__", None)
        if names is not None:
            out[package] = (init, list(names))
    return out


def _reader_files():
    for top in ("src", "tests", "examples", "benchmarks"):
        yield from sorted((REPO_ROOT / top).rglob("*.py"))
    yield REPO_ROOT / "README.md"
    yield REPO_ROOT / ".github" / "workflows" / "ci.yml"


def _reads(text: str) -> set[tuple[str, str]]:
    """Every (module path, name) pair the text reads."""
    found = set()
    for match in _FROM_IMPORT.finditer(text):
        names = re.sub(r"#[^\n]*", "", match.group(2)).strip("()")
        for part in names.split(","):
            name = part.strip().split(" as ")[0].strip()
            if name:
                found.add((match.group(1), name))
    for match in _DOTTED.finditer(text):
        parts = match.group(0).split(".")
        for i in range(1, len(parts)):
            found.add((".".join(parts[:i]), parts[i]))
    return found


def test_every_exported_name_has_a_reader():
    exports = _exports()
    assert "repro" in exports and "repro.engine.cluster" in exports  # the walk ran
    read: set[tuple[str, str]] = set()
    for path in _reader_files():
        if path == pathlib.Path(__file__).resolve():
            continue
        for package, name in _reads(path.read_text(encoding="utf-8")):
            if package in exports and exports[package][0] != path:
                read.add((package, name))
    unread = [
        f"{package}.{name}"
        for package, (_, names) in exports.items()
        for name in names
        if name not in EXEMPT and (package, name) not in read
    ]
    assert unread == []


def test_every_exported_name_resolves():
    for package, (_, names) in _exports().items():
        module = importlib.import_module(package)
        assert [n for n in names if not hasattr(module, n)] == [], package
