"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one of the paper's artefacts (figure,
equation-level claim or numeric example — see DESIGN.md §4) and writes
the resulting table to ``benchmarks/results/`` so the reproduction is
inspectable after ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import json
import pathlib
import secrets
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import _perf  # noqa: E402  (sibling helper; needs the path insert)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser) -> None:
    """``--quick``: smoke mode for CI pull-request runs.

    Benches shrink their domains and skip the wall-clock assertions —
    the *machinery* (spawning clusters, adaptive scheduling, result
    acceptance, JSON records) still runs end to end, so a scheduler
    regression that breaks or wedges the plane surfaces on every PR
    instead of only on full bench runs.
    """
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="shrink domains and skip perf assertions (CI smoke)",
    )


@pytest.fixture(scope="session")
def quick(request) -> bool:
    """True when the run is a ``--quick`` CI smoke."""
    return bool(request.config.getoption("--quick"))


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


@pytest.fixture
def save_json(results_dir):
    """Write a machine-readable payload to results/<name>.json.

    The shared path for throughput/latency trajectory tracking: every
    bench that measures performance saves one ``BENCH_*``-style JSON
    record here (the CLI's ``loadgen --json`` emits the same shape),
    so runs are diffable across commits without scraping tables.
    """

    def _save(name: str, payload: dict) -> pathlib.Path:
        path = results_dir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[json saved to {path}]")
        return path

    return _save


@pytest.fixture(scope="session")
def trajectory(results_dir) -> _perf.Trajectory:
    """The committed participants/sec history (see ``_perf``).

    ``baseline(bench, metric, **where)`` looks up the latest record
    from this machine's fingerprint; ``append(bench, **metrics)``
    writes this run's point.  Perf benches gate on a >30% drop below
    their own machine's committed baseline and always append.
    """
    return _perf.Trajectory()


@pytest.fixture(scope="session")
def security_material(tmp_path_factory):
    """Shared secret + self-signed TLS cert/key for the auth overhead
    bench (the README "Security model" recipe via the shared
    ``repro.net`` helper).

    Returns ``(secret_file, cert_file, key_file)`` paths; skips the
    requesting bench when no ``openssl`` binary is available.
    """
    from repro.exceptions import ProtocolError
    from repro.net.transport import generate_self_signed_cert

    directory = tmp_path_factory.mktemp("bench-security")
    secret = directory / "secret"
    secret.write_text(secrets.token_hex(32) + "\n")
    cert, key = directory / "cert.pem", directory / "key.pem"
    try:
        generate_self_signed_cert(
            str(cert), str(key), common_name="repro-coordinator", days=1
        )
    except ProtocolError as exc:
        pytest.skip(f"cannot generate TLS material: {exc}")
    return str(secret), str(cert), str(key)
