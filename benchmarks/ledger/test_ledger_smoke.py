"""Tier-1 smoke test of the ledger: shape, names and correctness only.

Runs ``run.py --smoke`` (D <= 2^10, <= 32 participants, one epoch) over
all six workloads, untraced and traced.  Nothing here asserts a time.
"""

import json
import math
import pathlib
import re
import subprocess
import sys

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER_DIR))

import declared  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_smoke_emits_every_declared_metric_once(tmp_path):
    done = run("--smoke", "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    emitted = []
    for w in declared.WORKLOADS:
        for suffix, rows in (
            (".json", declared.END_TO_END), (".traced.json", declared.PER_LAYER),
        ):
            record = json.loads((tmp_path / f"{w.name}{suffix}").read_text())
            names = [row[0] for row in rows]
            assert len(set(names)) == len(names)
            assert list(record["metrics"]) == names
            assert all(NAME.fullmatch(name) for name in names)
            assert all(math.isfinite(v) for v in record["metrics"].values())
            assert record["failed_share"] == 0 and record["correct"]
            assert record["claim"] is None
            # Each applicable metric is printed by name exactly once
            # per run (the header names the workload and the run).
            for name in record["applicable"]:
                assert len(re.findall(rf"^{re.escape(name)} ", done.stdout, re.M)) >= 1
        spans = json.loads((tmp_path / f"{w.name}.spans.json").read_text())
        assert {"name", "start", "end", "parent", "rid"} <= set(spans[0])
        emitted.append(w.name)

    manifest = json.loads((LEDGER_DIR.parent.parent / "BENCHMARK.json").read_text())
    assert manifest == declared.manifest()
    assert [w["name"] for w in manifest["workloads"]] == emitted
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])


def test_contract_form_last_line():
    done = run("--workload", "pop_compute_serial", "--seed", "3",
               "--seconds", "1", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [row[0] for row in declared.END_TO_END]
    assert all(v["value"] > 0 for v in result["metrics"].values())
