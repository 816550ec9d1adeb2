"""End-to-end security tests: auth + TLS across both wire planes.

The acceptance properties of PR 5:

* an **auth-on cluster run is byte-identical to serial** — including
  the SIGKILL-mid-population fault drill — with the HMAC handshake and
  TLS both enabled;
* a **wrong-secret peer is rejected before any job envelope is
  decoded** (cluster plane) or any session is created (service
  plane), and the population still completes on the remaining
  workers;
* mismatched configurations (secret on one side only) fail cleanly —
  an error, never a hang.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.core import CBSScheme
from repro.engine import ClusterExecutor
from repro.engine.cluster.worker import run_worker
from repro.exceptions import AuthError, EngineError, ReproError
from repro.net.transport import SecurityConfig
from repro.service.client import ServiceClient
from repro.service.codec import TaskRequest, encode_frame
from repro.service.loadgen import run_service_loadgen
from repro.service.server import ServiceConfig
from repro.tasks import RangeDomain
from test_engine_cluster import (
    PRELOAD,
    _square,
    population,
    report_fingerprint,
    sigkill_mid_population,
)


@pytest.fixture(scope="module")
def security(secret_file, tls_material):
    cert, key = tls_material
    return SecurityConfig.from_options(
        secret_file=secret_file, tls_cert=cert, tls_key=key
    )


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# ----------------------------------------------------------------------
# Cluster plane
# ----------------------------------------------------------------------


class TestClusterAuthTLS:
    def test_secured_map_matches_plain(self, secret_file, tls_material):
        cert, key = tls_material
        with ClusterExecutor(
            workers=2, secret_file=secret_file, tls_cert=cert, tls_key=key,
            worker_preload=PRELOAD,
        ) as executor:
            assert executor.map(_square, range(40)) == [
                i * i for i in range(40)
            ]
            stats = executor.stats
        assert stats["auth_rejects"] == 0
        assert stats["workers_live"] == 2

    def test_auth_only_population_parity(self, secret_file):
        """Auth without TLS: still byte-identical to serial."""
        scheme = CBSScheme(n_samples=8)
        serial = report_fingerprint(population(scheme, engine="serial"))
        with ClusterExecutor(workers=2, secret_file=secret_file) as executor:
            secured = report_fingerprint(population(scheme, engine=executor))
        assert secured == serial

    def test_sigkill_mid_population_with_auth_and_tls(
        self, secret_file, tls_material
    ):
        """The PR-4 fault drill, now under auth + TLS: requeue across
        authenticated links keeps the report byte-identical."""
        cert, key = tls_material
        scheme = CBSScheme(n_samples=16)
        serial = report_fingerprint(
            population(scheme, engine="serial", n=1 << 15, participants=32)
        )
        with ClusterExecutor(
            workers=2, secret_file=secret_file, tls_cert=cert, tls_key=key,
            chunk_max=2, worker_preload=PRELOAD,
        ) as executor:
            executor.map(_square, [0])  # force startup; pids known
            victim = executor.local_worker_pids[0]
            report_box: list = []

            def run() -> None:
                report_box.append(
                    population(
                        scheme,
                        engine=executor,
                        n=1 << 15,
                        participants=32,
                        batch_size=1,
                    )
                )

            stats = sigkill_mid_population(executor, victim, run, n_jobs=32)
        assert stats["workers_lost"] >= 1
        assert stats["auth_rejects"] == 0
        assert report_fingerprint(report_box[0]) == serial

    def test_wrong_secret_worker_rejected_population_completes(
        self, secret_file, wrong_secret_file
    ):
        """The CI negative scenario: an impostor worker is turned away
        at the handshake — before any job envelope is decoded — while the
        correctly-keyed workers complete the whole population."""
        port = _free_port()
        executor = ClusterExecutor(
            workers=2,
            port=port,
            spawn_local=False,
            secret_file=secret_file,
            startup_timeout=60.0,
        )
        impostor_error: list = []

        def impostor() -> None:
            async def dial() -> None:
                try:
                    await run_worker(
                        "127.0.0.1",
                        port,
                        engine="serial",
                        connect_retry_s=30.0,
                        security=SecurityConfig.from_options(
                            secret_file=wrong_secret_file
                        ),
                    )
                except ReproError as exc:
                    impostor_error.append(exc)

            asyncio.run(dial())

        def honest_worker() -> None:
            async def dial() -> None:
                await run_worker(
                    "127.0.0.1",
                    port,
                    engine="serial",
                    connect_retry_s=30.0,
                    security=SecurityConfig.from_options(
                        secret_file=secret_file
                    ),
                )

            asyncio.run(dial())

        impostor_thread = threading.Thread(target=impostor, daemon=True)
        worker_threads = [
            threading.Thread(target=honest_worker, daemon=True)
            for _ in range(2)
        ]
        impostor_thread.start()
        for thread in worker_threads:
            thread.start()
        try:
            scheme = CBSScheme(n_samples=8)
            serial = report_fingerprint(population(scheme, engine="serial"))
            secured = report_fingerprint(population(scheme, engine=executor))
            assert secured == serial
            # One registered worker is enough to finish this small
            # population, so the other two dialers may still be mid-
            # handshake when the map returns: wait for them to land.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                stats = executor.stats
                if stats["auth_rejects"] >= 1 and stats["workers_live"] == 2:
                    break
                time.sleep(0.02)
            assert stats["auth_rejects"] >= 1  # the impostor bounced
            assert stats["workers_live"] == 2  # honest pool intact
        finally:
            executor.close()
        impostor_thread.join(timeout=10)
        assert not impostor_thread.is_alive()
        # The impostor failed with a clean auth/transport error, and
        # its connection died before the codec: no hello was accepted.
        assert impostor_error

    def test_unauthenticated_peer_never_reaches_the_job_decoder(
        self, secret_file
    ):
        """A raw socket shoving codec frames at a secured coordinator
        is dropped at the handshake; the keyed pool keeps serving."""
        with ClusterExecutor(
            workers=1, secret_file=secret_file, worker_preload=PRELOAD
        ) as executor:
            assert executor.map(_square, [3]) == [9]  # pool is live
            host, port = executor.address
            with socket.create_connection((host, port), timeout=10) as sock:
                # Speak the worker codec without authenticating.
                sock.sendall(encode_frame(TaskRequest()))
                sock.settimeout(10)
                # The server offers its challenge, then cuts us off.
                with pytest.raises((ConnectionError, OSError, TimeoutError)):
                    while sock.recv(4096):
                        pass
                    raise ConnectionResetError  # EOF counts as cut off
            deadline = time.monotonic() + 10.0
            while (
                executor.stats["auth_rejects"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            stats = executor.stats
            assert stats["auth_rejects"] >= 1
            assert stats["workers_live"] == 1  # impostor never registered
            assert executor.map(_square, [4]) == [16]  # still serving

    def test_secret_mismatch_fails_cleanly_not_hangs(self):
        """Worker keyed, coordinator plaintext: the worker reports a
        configuration error instead of deadlocking."""

        async def scenario():
            async def plaintext_coordinator(reader, writer):
                # A pre-PR-5 coordinator: waits for hello, offers no
                # challenge.  The keyed worker must give up on its own.
                await asyncio.sleep(30)

            server = await asyncio.start_server(
                plaintext_coordinator, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(AuthError, match="auth challenge"):
                    await run_worker(
                        "127.0.0.1",
                        port,
                        engine="serial",
                        security=SecurityConfig(
                            secret=b"0123456789abcdef0123456789abcdef",
                            handshake_timeout=0.5,
                        ),
                    )
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(asyncio.wait_for(scenario(), timeout=60))

    def test_tls_key_without_cert_rejected(self, tls_material):
        _cert, key = tls_material
        with pytest.raises(EngineError, match="tls.cert"):
            ClusterExecutor(workers=1, tls_key=key)

    def test_unreadable_secret_file_rejected_at_construction(self, tmp_path):
        with pytest.raises(EngineError, match="security"):
            ClusterExecutor(workers=1, secret_file=str(tmp_path / "nope"))


# ----------------------------------------------------------------------
# Service plane
# ----------------------------------------------------------------------


def _service_config(n_participants: int = 8) -> ServiceConfig:
    return ServiceConfig(
        domain=RangeDomain(0, 1 << 10),
        n_participants=n_participants,
        n_samples=8,
        seed=11,
    )


def _behaviors():
    return [HonestBehavior(), SemiHonestCheater(0.6)]


def auth_failures(server) -> float:
    return server.registry.value("repro_auth_failures_total", plane="service")


def outcome_fingerprint(server) -> dict:
    return {
        task_id: (outcome.accepted, outcome.reason.value)
        for task_id, outcome in server.outcomes.items()
    }


class TestServiceAuthTLS:
    def test_secured_tcp_loadgen_matches_plain(self, security):
        plain_report, plain_stats, plain_server = asyncio.run(
            run_service_loadgen(
                _service_config(), _behaviors(), transport="tcp"
            )
        )
        secured_report, secured_stats, secured_server = asyncio.run(
            run_service_loadgen(
                _service_config(),
                _behaviors(),
                transport="tcp",
                security=security,
            )
        )
        assert secured_stats.n_errors == 0
        assert secured_stats.n_completed == plain_stats.n_completed == 8
        assert outcome_fingerprint(secured_server) == outcome_fingerprint(
            plain_server
        )
        assert auth_failures(secured_server) == 0

    def test_memory_transport_authenticates_too(self, secret_file):
        security = SecurityConfig.from_options(secret_file=secret_file)
        report, stats, server = asyncio.run(
            run_service_loadgen(
                _service_config(), _behaviors(), security=security
            )
        )
        assert stats.n_errors == 0 and stats.n_completed == 8
        assert auth_failures(server) == 0

    def test_wrong_secret_client_rejected_before_any_session(
        self, secret_file, wrong_secret_file
    ):
        async def scenario():
            from repro.service.server import SupervisorServer

            server = SupervisorServer(
                _service_config(),
                engine="serial",
                security=SecurityConfig.from_options(secret_file=secret_file),
            )
            host, port = await server.start()
            try:
                with pytest.raises(ReproError):
                    client = await ServiceClient.open_tcp(
                        host,
                        port,
                        security=SecurityConfig.from_options(
                            secret_file=wrong_secret_file,
                            handshake_timeout=5.0,
                        ),
                    )
                    # If the handshake somehow passed, the request
                    # must still be refused.
                    await client.request_task()
                assert auth_failures(server) >= 1
                assert server.sessions.active == 0  # nothing was decoded
            finally:
                await server.stop()

        asyncio.run(asyncio.wait_for(scenario(), timeout=60))

    def test_unkeyed_client_rejected_cleanly(self, secret_file):
        async def scenario():
            from repro.service.server import SupervisorServer

            server = SupervisorServer(
                _service_config(),
                engine="serial",
                security=SecurityConfig.from_options(secret_file=secret_file),
            )
            host, port = await server.start()
            try:
                client = await ServiceClient.open_tcp(host, port)
                with pytest.raises((ReproError, ConnectionError, OSError)):
                    # The server is waiting for a handshake, not JSON;
                    # this request dies cleanly, never hangs.
                    await asyncio.wait_for(client.request_task(), timeout=20)
                await client.close()
                assert auth_failures(server) >= 1
            finally:
                await server.stop()

        asyncio.run(asyncio.wait_for(scenario(), timeout=60))

    def test_tls_only_service_round_trip(self, tls_material):
        """TLS without auth: encrypted wire, open enrolment."""
        cert, key = tls_material
        security = SecurityConfig(tls_cert=cert, tls_key=key)
        report, stats, server = asyncio.run(
            run_service_loadgen(
                _service_config(),
                _behaviors(),
                transport="tcp",
                security=security,
            )
        )
        assert stats.n_errors == 0 and stats.n_completed == 8
