"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one of the paper's artefacts (figure,
equation-level claim or numeric example — indexed in README
"Benchmarks") and writes the resulting table to ``benchmarks/results/``
so the reproduction is inspectable after
``pytest benchmarks/bench_*.py``.  None asserts a speed: how fast the
implementation runs is the performance ledger's question
(``benchmarks/ledger/``, driven A/B by ``benchmarks/ab.py``).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_engine():
    """One warm multi-core executor shared by the experiment benches.

    Population sweeps (E6/E7/E14) are embarrassingly parallel, so on a
    multi-core host they dispatch onto a shared process pool; results
    are backend-invariant (pinned by tests/test_engine.py), only
    wall-clock changes.  Single-core hosts fall back to serial.
    """
    from repro.engine import default_workers, get_executor

    name = "processes" if default_workers() > 1 else "serial"
    with get_executor(name) as executor:
        yield executor


@pytest.fixture
def save_table(results_dir):
    """Write a rendered table to results/<name>.txt and echo it."""

    def _save(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save
