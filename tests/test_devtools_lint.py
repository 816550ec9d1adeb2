"""Fixture matrix for repro-lint (repro.devtools.lint).

Per rule: at least one positive (flagged) and one negative (clean)
sample, plus framework behavior — no comment silences a rule, the
README's rule table is the rule list, runner output and exit codes —
and the repo-level gates: ``src`` lints clean, and injecting a
violation into a copy of the tree makes the run fail.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest
from test_service_codec import _readme_section, _table_rows

from repro.devtools.lint import ALL_CHECKERS, lint_paths
from repro.devtools.lint.runner import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_lint(tmp_path: Path, files: dict[str, str], rules=None):
    """Write fixture files and lint them; returns findings."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    checkers = [
        cls() for cls in ALL_CHECKERS if rules is None or cls.rule in rules
    ]
    findings, _ = lint_paths([tmp_path], checkers, root=tmp_path)
    return findings


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# RL001 pickle containment
# ----------------------------------------------------------------------


class TestPickleContainment:
    def test_flags_import_outside_codec(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {"app.py": "import pickle\n"},
            rules={"RL001"},
        )
        assert rules_of(findings) == ["RL001"]
        assert "banned" in findings[0].message

    def test_flags_from_import_and_dynamic_import(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {
                "a.py": "from pickle import loads\n",
                "b.py": "import importlib\nimportlib.import_module('pickle')\n",
            },
            rules={"RL001"},
        )
        assert len(findings) == 2

    def test_no_module_is_sanctioned_anymore(self, tmp_path):
        # Wire v5 emptied the allowlist: even the frame codec itself
        # may not touch pickle — the typed jobcodec carries payloads.
        findings = run_lint(
            tmp_path,
            {
                "repro/service/codec.py": (
                    "import pickle\nDATA = pickle.dumps([1])\n"
                )
            },
            rules={"RL001"},
        )
        assert rules_of(findings) == ["RL001"]

    def test_clean_file_passes(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {"app.py": "import json\nDATA = json.dumps([1])\n"},
            rules={"RL001"},
        )
        assert findings == []


# ----------------------------------------------------------------------
# RL002 lock discipline
# ----------------------------------------------------------------------

LOCKED_CLASS_BAD = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        def put(self, item):
            self._items.append(item)
"""

LOCKED_CLASS_GOOD = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        def put(self, item):
            with self._lock:
                self._items.append(item)

        def _drain_locked(self):
            self._items.clear()

        def __repr__(self):
            self._cached_repr = "Store()"
            return self._cached_repr
"""


class TestLockDiscipline:
    def test_flags_unlocked_mutation(self, tmp_path):
        findings = run_lint(
            tmp_path, {"store.py": LOCKED_CLASS_BAD}, rules={"RL002"}
        )
        assert rules_of(findings) == ["RL002"]
        assert "Store.put" in findings[0].message

    def test_flags_unlocked_attribute_store(self, tmp_path):
        source = """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._value = None

                def set(self, value):
                    self._value = value
        """
        findings = run_lint(tmp_path, {"c.py": source}, rules={"RL002"})
        assert len(findings) == 1

    def test_locked_mutations_and_exemptions_pass(self, tmp_path):
        findings = run_lint(
            tmp_path, {"store.py": LOCKED_CLASS_GOOD}, rules={"RL002"}
        )
        assert findings == []

    def test_class_without_lock_is_ignored(self, tmp_path):
        source = """
            class Free:
                def __init__(self):
                    self._items = []

                def put(self, item):
                    self._items.append(item)
        """
        findings = run_lint(tmp_path, {"free.py": source}, rules={"RL002"})
        assert findings == []

    def test_lock_under_if_branch_is_honored(self, tmp_path):
        source = """
            import threading

            class Maybe:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def put(self, item, really):
                    if really:
                        with self._lock:
                            self._items.append(item)
        """
        findings = run_lint(tmp_path, {"m.py": source}, rules={"RL002"})
        assert findings == []


# ----------------------------------------------------------------------
# RL003 blocking in async
# ----------------------------------------------------------------------


class TestBlockingInAsync:
    def test_flags_time_sleep(self, tmp_path):
        source = """
            import time

            async def handler():
                time.sleep(1)
        """
        findings = run_lint(tmp_path, {"h.py": source}, rules={"RL003"})
        assert rules_of(findings) == ["RL003"]
        assert "asyncio.sleep" in findings[0].message

    def test_flags_subprocess_and_open(self, tmp_path):
        source = """
            import subprocess

            async def handler(path):
                subprocess.run(["ls"])
                with open(path) as fh:
                    return fh.read()
        """
        findings = run_lint(tmp_path, {"h.py": source}, rules={"RL003"})
        assert len(findings) == 2

    def test_flags_hashlib_loop(self, tmp_path):
        source = """
            import hashlib

            async def grind(items):
                out = []
                for item in items:
                    out.append(hashlib.sha256(item).digest())
                return out
        """
        findings = run_lint(tmp_path, {"h.py": source}, rules={"RL003"})
        assert len(findings) == 1
        assert "loop" in findings[0].message

    def test_sync_code_and_nested_defs_pass(self, tmp_path):
        source = """
            import asyncio
            import hashlib
            import time

            def sync_path():
                time.sleep(1)  # fine: not on the event loop

            async def handler(loop, pool, items):
                await asyncio.sleep(0.1)

                def offloaded():
                    for item in items:
                        hashlib.sha256(item).digest()

                return await loop.run_in_executor(pool, offloaded)
        """
        findings = run_lint(tmp_path, {"h.py": source}, rules={"RL003"})
        assert findings == []

    def test_single_hash_outside_loop_passes(self, tmp_path):
        source = """
            import hashlib

            async def fingerprint(data):
                return hashlib.sha256(data).hexdigest()
        """
        findings = run_lint(tmp_path, {"h.py": source}, rules={"RL003"})
        assert findings == []


# ----------------------------------------------------------------------
# RL004 swallowed exception
# ----------------------------------------------------------------------


class TestSwallowedException:
    def test_flags_silent_broad_handler(self, tmp_path):
        source = """
            def risky():
                try:
                    work()
                except Exception:
                    pass
        """
        findings = run_lint(tmp_path, {"r.py": source}, rules={"RL004"})
        assert rules_of(findings) == ["RL004"]

    def test_flags_bare_except_with_return(self, tmp_path):
        source = """
            def risky():
                try:
                    return work()
                except:
                    return None
        """
        findings = run_lint(tmp_path, {"r.py": source}, rules={"RL004"})
        assert len(findings) == 1

    @pytest.mark.parametrize(
        "handler",
        [
            "except ValueError:\n        pass",  # narrow: reviewable
            "except Exception:\n        raise",
            "except Exception as exc:\n        out.append(exc)",
            "except Exception:\n        log_event(log, 'boom')",
            "except Exception:\n        logger.warning('boom')",
            "except Exception:\n        errors.labels(site='x').inc()",
        ],
        ids=["narrow", "reraise", "bound-ref", "log_event", "logger", "counter"],
    )
    def test_handled_broad_handlers_pass(self, tmp_path, handler):
        source = (
            "def risky(out, log, logger, errors, log_event):\n"
            "    try:\n"
            "        work()\n"
            f"    {handler}\n"
        )
        findings = run_lint(tmp_path, {"r.py": source}, rules={"RL004"})
        assert findings == []


# ----------------------------------------------------------------------
# RL005 metrics naming
# ----------------------------------------------------------------------


class TestMetricsNaming:
    @pytest.mark.parametrize(
        "call,fragment",
        [
            ("reg.counter('repro_things', 'help')", "_total"),
            ("reg.counter('things_total', 'help')", "repro_"),
            ("reg.gauge('repro_things_total', 'help')", "counter semantics"),
            ("reg.counter('repro_things_total')", "HELP"),
            ("reg.histogram('repro_sizes', '')", "HELP"),
        ],
        ids=["no-total", "no-prefix", "gauge-total", "no-help", "empty-help"],
    )
    def test_flags_contract_violations(self, tmp_path, call, fragment):
        findings = run_lint(
            tmp_path, {"m.py": f"def f(reg):\n    {call}\n"}, rules={"RL005"}
        )
        assert findings, call
        assert any(fragment in f.message for f in findings)

    def test_conforming_registrations_pass(self, tmp_path):
        source = """
            def f(reg):
                reg.counter('repro_things_total', 'Things seen', ('site',))
                reg.gauge('repro_live', 'Live things')
                reg.histogram('repro_sizes_bytes', 'Sizes', buckets=(1, 2))
                reg.counter(dynamic_name, 'runtime-validated')
        """
        findings = run_lint(tmp_path, {"m.py": source}, rules={"RL005"})
        assert findings == []


# ----------------------------------------------------------------------
# RL006 wire-schema coverage (the job codec's envelopes and byte reads;
# every wire table — frames, messages, terms, structs — is checked where
# it is built: tests/test_wire_tables.py)
# ----------------------------------------------------------------------

MINI_JOBCODEC_OK = """
    def check_payload_size(what, size, cap):
        pass


    class _Decoder:
        def take(self, n, what):
            return self.data[self.pos:self.pos + n]

        def uint(self, what):
            return self.data[self.pos]


    def _dec_int(dec, depth):
        return dec.uint("int")


    def encode_cluster_payload(obj, max_bytes=1024):
        raw = b"x"
        check_payload_size("cluster payload", len(raw), max_bytes)
        return raw


    def decode_cluster_payload(raw, max_bytes=1024):
        check_payload_size("cluster payload", len(raw), max_bytes)
        return None
"""


class TestWireSchemaJobcodec:
    def test_consistent_jobcodec_passes(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {"repro/service/jobcodec.py": MINI_JOBCODEC_OK},
            rules={"RL006"},
        )
        assert findings == []

    def test_uncapped_envelope_entry_point_is_flagged(self, tmp_path):
        source = MINI_JOBCODEC_OK.replace(
            'check_payload_size("cluster payload", len(raw), max_bytes)\n'
            "        return None",
            "return None",
        )
        findings = run_lint(
            tmp_path,
            {"repro/service/jobcodec.py": source},
            rules={"RL006"},
        )
        assert any(
            "check_payload_size" in f.message
            and "decode_cluster_payload" in f.message
            for f in findings
        )

    def test_raw_buffer_subscript_outside_decoder_is_flagged(self, tmp_path):
        source = MINI_JOBCODEC_OK.replace(
            'def _dec_int(dec, depth):\n        return dec.uint("int")',
            "def _dec_int(dec, depth):\n        return dec.data[dec.pos]",
        )
        findings = run_lint(
            tmp_path,
            {"repro/service/jobcodec.py": source},
            rules={"RL006"},
        )
        assert any("bounds-checked" in f.message for f in findings)

    def test_real_jobcodec_is_clean(self):
        checkers = [cls() for cls in ALL_CHECKERS if cls.rule == "RL006"]
        findings, _ = lint_paths(
            [REPO_ROOT / "src" / "repro" / "service" / "jobcodec.py"],
            checkers,
            root=REPO_ROOT,
        )
        assert findings == []


# ----------------------------------------------------------------------
# No escape hatches: a finding is fixed, or its rule changes
# ----------------------------------------------------------------------


class TestSuppressions:
    @pytest.mark.parametrize(
        "source",
        [
            pytest.param(
                "import pickle  # repro-lint: disable=RL001\n", id="same-line"
            ),
            pytest.param(
                "# repro-lint: disable=*\nimport pickle\n", id="line-above"
            ),
            pytest.param(
                "import pickle  # repro-lint: disable=*\n", id="star"
            ),
        ],
    )
    def test_disable_comments_are_ordinary_comments(self, tmp_path, source):
        findings = run_lint(tmp_path, {"a.py": source}, rules={"RL001"})
        assert [(f.path, f.rule) for f in findings] == [("a.py", "RL001")]

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {"a.py": "import pickle  # repro-lint: disable=RL002\n"},
            rules={"RL001"},
        )
        assert len(findings) == 1

    def test_directive_in_string_literal_is_not_a_directive(self, tmp_path):
        source = 'DOC = "# repro-lint: disable=RL001"\nimport pickle\n'
        findings = run_lint(tmp_path, {"a.py": source}, rules={"RL001"})
        assert len(findings) == 1


class TestReadmeCatalogue:
    def test_rule_table_lists_every_checker_in_order(self):
        rows = _table_rows(_readme_section("Static analysis"))
        # Rule ID and name, row for row; the third column is prose.
        assert [row.split(" | ")[:2] for row in rows] == [
            [f"| `{cls.rule}`", cls.name] for cls in ALL_CHECKERS
        ]


# ----------------------------------------------------------------------
# Runner: output and exit codes
# ----------------------------------------------------------------------


class TestRunner:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one_text_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import pickle\n", encoding="utf-8")
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out and "bad.py:1:1" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--baseline", "b.json"],
            ["--write-baseline", "b.json"],
            ["--format", "json"],
            ["--rules", "RL001"],
            ["--list-rules"],
        ],
        ids=["baseline", "write-baseline", "format", "rules", "list-rules"],
    )
    def test_retired_flags_are_usage_errors(self, tmp_path, flags):
        with pytest.raises(SystemExit) as exit_info:
            lint_main([str(tmp_path), *flags])
        assert exit_info.value.code == 2

    def test_syntax_error_becomes_rl000_not_a_crash(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n", encoding="utf-8")
        assert lint_main([str(tmp_path)]) == 1
        assert "RL000" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Repo-level gates (the CI self-check)
# ----------------------------------------------------------------------


class TestRepoGate:
    def test_src_tree_lints_clean(self):
        checkers = [cls() for cls in ALL_CHECKERS]
        findings, files = lint_paths(
            [REPO_ROOT / "src"], checkers, root=REPO_ROOT
        )
        assert findings == [], "\n".join(f.render() for f in findings)
        assert files > 50  # the whole tree was actually walked

    def test_injected_violation_fails_the_gate(self, tmp_path):
        """Acceptance check: a bare pickle.loads added to worker.py
        must turn the lint run red."""
        worker = REPO_ROOT / "src/repro/engine/cluster/worker.py"
        copy = tmp_path / "repro/engine/cluster/worker.py"
        copy.parent.mkdir(parents=True)
        copy.write_text(
            worker.read_text(encoding="utf-8")
            + "\n\nimport pickle\n\ndef _backdoor(raw):\n"
            "    return pickle.loads(raw)\n",
            encoding="utf-8",
        )
        checkers = [cls() for cls in ALL_CHECKERS]
        findings, _ = lint_paths([tmp_path], checkers, root=tmp_path)
        assert any(f.rule == "RL001" for f in findings)


# ----------------------------------------------------------------------
# Unused imports (what CI's ``ruff check`` refuses as F401), stdlib ast
# ----------------------------------------------------------------------


def unused_imports(source: str) -> list[str]:
    """Names an import binds that nothing in the module reads.  A name
    counts as read when it appears as a name, in ``__all__``, or inside
    a string annotation (``TYPE_CHECKING`` imports), as ruff counts it."""
    tree = ast.parse(source)
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        for annotation in (
            getattr(node, "annotation", None), getattr(node, "returns", None)
        ):
            for const in ast.walk(annotation) if annotation else ():
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    used.update(
                        name.id
                        for name in ast.walk(ast.parse(const.value, mode="eval"))
                        if isinstance(name, ast.Name)
                    )
    return [
        f"{node.lineno}: {bound}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if alias.name != "*"
        and (bound := alias.asname or alias.name.partition(".")[0]) not in used
    ]


class TestUnusedImports:
    def test_flags_an_unused_import(self):
        assert unused_imports("import os\nimport math as m\n") == [
            "1: os", "2: m"
        ]

    def test_reads_count_as_use(self):
        source = textwrap.dedent('''
            from __future__ import annotations
            import os.path
            from typing import TYPE_CHECKING
            from json import dumps
            if TYPE_CHECKING:
                from decimal import Decimal
            __all__ = ["dumps"]
            def f(x: "Decimal") -> None:
                return os.path.sep
        ''')
        assert unused_imports(source) == []

    def test_src_and_tests_import_nothing_unused(self):
        found = [
            f"{path.relative_to(REPO_ROOT)}:{line}"
            for root in ("src", "tests")
            for path in sorted((REPO_ROOT / root).rglob("*.py"))
            for line in unused_imports(path.read_text(encoding="utf-8"))
        ]
        assert found == []
