"""Import cost follows use: each entry point loads only what it runs.

Every check runs a fresh interpreter and asserts module names, never
times.  A package ``__init__`` loads none of its exports (one lazy
re-export rule, :class:`repro._Package`); ``repro.cli`` imports the
standard library and the import-free :mod:`repro.launch` at module
level and each command the planes it runs; the job codec's struct table
loads with ``repro.service.jobcodec``.
"""

from __future__ import annotations

import os
import pathlib
import socket
import subprocess
import sys

from repro.engine.cluster.coordinator import WORKER_ENTRY

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

sys.path.insert(0, str(ROOT / "benchmarks"))
from cold_start import SERIAL_COLD_START  # noqa: E402  the ledger's, read off popbench

PLANES = ("repro.service", "repro.net", "repro.obs", "repro.engine")


def loaded_after(code: str) -> set[str]:
    """Every module in ``sys.modules`` once ``code`` has run."""
    probe = code + "\nimport sys; print('\\n'.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=ENV, check=True,
        capture_output=True, text=True,
    ).stdout
    return set(out.split())


def importtime_modules(stderr: str) -> set[str]:
    """The modules ``python -X importtime`` reported importing."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def under(modules: set[str], *prefixes: str) -> list[str]:
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


def test_import_repro_loads_no_submodule():
    modules = loaded_after("import repro")
    assert under(modules, "repro") == ["repro"]


def test_every_export_still_resolves_and_dir_lists_it():
    code = (
        "import repro, repro.engine\n"
        "assert set(repro.__all__) <= set(dir(repro))\n"
        "assert repro.engine.ClusterExecutor.__module__ == "
        "'repro.engine.cluster.coordinator'\n"
        "print(repro.CBSScheme.__module__)"
    )
    modules = loaded_after(code)
    assert "repro.core.cbs" in modules
    assert "repro.service.jobcodec" in modules  # via the coordinator


def test_an_export_named_like_its_submodule_keeps_its_place():
    """``repro.analysis.sweep`` is a function even once the module of
    the same name has been imported first."""
    loaded_after(
        "import types\n"
        "import repro.analysis.sweep\n"
        "from repro.analysis import sweep\n"
        "assert not isinstance(sweep, types.ModuleType), sweep\n"
        "assert repro.analysis.sweep is sweep is "
        "__import__('sys').modules['repro.analysis.sweep'].sweep"
    )


def test_serial_cold_start_loads_no_service_net_or_cluster():
    modules = loaded_after(SERIAL_COLD_START)
    assert "repro.grid.simulation" in modules  # the probe ran
    assert under(
        modules, "asyncio", "ssl", "http.server", "repro.service", "repro.net",
        "repro.analysis", "repro.baselines", "repro.engine.cluster",
    ) == []


def test_building_the_cli_parser_loads_no_plane():
    modules = loaded_after("import repro.cli; repro.cli.build_parser()")
    assert under(modules, "repro") == [
        "repro", "repro.cli", "repro.launch",
    ]
    assert under(modules, *PLANES, "asyncio") == []


def test_the_job_codec_loads_its_own_struct_table():
    loaded_after(
        "import repro.service.jobcodec as jc; assert 'cbs_scheme' in jc._STRUCTS"
    )


def _serve_imports(*extra: str, lines: int = 1) -> set[str]:
    """``serve --port 0`` under ``-X importtime``, killed once it has
    printed ``lines`` lines (the first is its banner)."""
    proc = subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "repro.cli", "serve",
         "--n", "256", "--participants", "4", "--m", "8", "--port", "0",
         *extra],
        env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        banner = proc.stdout.readline()
        for _ in range(lines - 1):
            proc.stdout.readline()
    finally:
        proc.kill()
        _, err = proc.communicate(timeout=30)
    assert "supervisor listening" in banner, err[-2000:]
    return importtime_modules(err)


SERVE_NEVER = (
    "repro.service.jobcodec", "repro.engine.cluster", "repro.analysis",
    "repro.baselines", "repro.service.loadgen", "http.server",
)


def test_serve_on_threads_loads_only_the_service_plane():
    modules = _serve_imports()
    assert "repro.service.server" in modules  # the probe ran
    assert under(modules, *SERVE_NEVER) == []


def test_serve_loads_the_metrics_server_only_when_asked():
    assert "http.server" in _serve_imports("--metrics-port", "0", lines=2)


def test_worker_shim_loads_no_coordinator_scheduler_http_or_cli():
    with socket.socket() as sock:  # a port nobody listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", WORKER_ENTRY,
         "--port", str(port)],
        env=ENV, capture_output=True, text=True, timeout=60,
    )
    assert "cluster worker failed" in proc.stderr  # it ran up to the dial
    modules = importtime_modules(proc.stderr)
    assert "repro.engine.cluster.worker" in modules
    assert "repro.engine.cluster.chunk" in modules
    assert under(
        modules, "repro.engine.cluster.coordinator",
        "repro.engine.cluster.scheduler", "http.server", "repro.cli",
    ) == []
