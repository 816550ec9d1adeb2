"""Connection lifecycle shared by the service and cluster planes.

Three concerns every networked component in this repo used to solve
privately, now solved once:

* **Security material** — :class:`SecurityConfig` bundles the shared
  secret (:mod:`repro.net.auth`) and the optional TLS cert/key pair,
  built from the same ``--secret-file`` / ``--tls-cert`` /
  ``--tls-key`` options every entry point exposes.  The trust model
  for TLS is *certificate pinning*: the client trusts exactly the
  certificate the operator distributed (usually self-signed), not a
  public CA, and hostname checking is off — operators dial
  coordinators by IP.  One config object serves both roles: servers
  call :meth:`SecurityConfig.server_ssl_context`, clients
  :meth:`SecurityConfig.client_ssl_context`.

* **Connect with retry/backoff** — :func:`open_connection` keeps
  re-dialling a listener that has not bound its port yet (workers
  racing a coordinator's startup across hosts is normal, not an
  error), with exponential backoff capped at
  :data:`MAX_BACKOFF_S`.

* **Liveness and teardown** — :func:`heartbeat_loop` is the beacon
  coroutine workers run beside their job loop, and
  :func:`close_writer` is the graceful close that never raises on an
  already-dead peer.
"""

from __future__ import annotations

import asyncio
import contextlib
import shutil
import ssl
import subprocess
from dataclasses import dataclass, field

from repro.exceptions import AuthError, ProtocolError
from repro.net.auth import (
    DEFAULT_HANDSHAKE_TIMEOUT,
    authenticate_client,
    authenticate_server,
    load_secret,
)

#: First retry delay for :func:`open_connection`; doubles per attempt.
INITIAL_BACKOFF_S = 0.05

#: Ceiling on the exponential connect backoff.
MAX_BACKOFF_S = 1.0


@dataclass(frozen=True)
class SecurityConfig:
    """Transport security material for one deployment.

    ``secret`` enables the mutual HMAC handshake; ``tls_cert`` (+
    ``tls_key`` on the listening side) enables TLS.  Either, both or
    neither may be set — ``None`` everywhere is explicit plaintext,
    the pre-PR-5 behaviour.
    """

    # repr=False: a traceback or log line that reprs the config must
    # never dump the operator's secret in cleartext.
    secret: bytes | None = field(default=None, repr=False)
    tls_cert: str | None = None
    tls_key: str | None = None
    handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT

    def __post_init__(self) -> None:
        if self.tls_key is not None and self.tls_cert is None:
            raise ProtocolError("--tls-key given without --tls-cert")
        if self.handshake_timeout <= 0:
            raise ProtocolError(
                f"handshake timeout must be positive, got "
                f"{self.handshake_timeout}"
            )

    @classmethod
    def from_options(
        cls,
        secret_file: str | None = None,
        tls_cert: str | None = None,
        tls_key: str | None = None,
        handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
    ) -> "SecurityConfig | None":
        """Build a config from CLI-shaped options; ``None`` if all unset."""
        if secret_file is None and tls_cert is None and tls_key is None:
            return None
        return cls(
            secret=load_secret(secret_file) if secret_file else None,
            tls_cert=tls_cert,
            tls_key=tls_key,
            handshake_timeout=handshake_timeout,
        )

    # ------------------------------------------------------------------
    # TLS contexts
    # ------------------------------------------------------------------

    def server_ssl_context(self) -> ssl.SSLContext | None:
        """The listening side's TLS context (``None`` = plaintext)."""
        if self.tls_cert is None:
            return None
        if self.tls_key is None:
            raise ProtocolError(
                "a TLS listener needs both --tls-cert and --tls-key"
            )
        ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        ctx.minimum_version = ssl.TLSVersion.TLSv1_2
        try:
            ctx.load_cert_chain(self.tls_cert, self.tls_key)
        except (OSError, ssl.SSLError) as exc:
            raise ProtocolError(f"cannot load TLS cert/key: {exc}") from exc
        return ctx

    def client_ssl_context(self) -> ssl.SSLContext | None:
        """The dialling side's TLS context: pin the operator's cert.

        The distributed certificate *is* the trust anchor (self-signed
        operator certs, dialled by IP), so hostname verification is
        disabled while chain verification stays on.  Built once per
        config and cached — a loadgen opens one connection per
        participant, and the cert file must not be re-read N times.
        """
        if self.tls_cert is None:
            return None
        cached = self.__dict__.get("_client_ctx")
        if cached is not None:
            return cached
        ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        ctx.minimum_version = ssl.TLSVersion.TLSv1_2
        ctx.check_hostname = False
        ctx.verify_mode = ssl.CERT_REQUIRED
        try:
            ctx.load_verify_locations(cafile=self.tls_cert)
        except (OSError, ssl.SSLError) as exc:
            raise ProtocolError(f"cannot load TLS cert: {exc}") from exc
        object.__setattr__(self, "_client_ctx", ctx)
        return ctx

    # ------------------------------------------------------------------
    # Handshake hooks (no-ops without a secret)
    # ------------------------------------------------------------------

    async def authenticate_inbound(self, reader, writer) -> None:
        """Server side of the HMAC handshake; no-op without a secret."""
        if self.secret is not None:
            await authenticate_server(
                reader, writer, self.secret, timeout=self.handshake_timeout
            )

    async def authenticate_outbound(self, reader, writer) -> None:
        """Client side of the HMAC handshake; no-op without a secret."""
        if self.secret is not None:
            await authenticate_client(
                reader, writer, self.secret, timeout=self.handshake_timeout
            )


def generate_self_signed_cert(
    cert_path: str,
    key_path: str,
    *,
    common_name: str = "repro",
    days: int = 365,
) -> None:
    """Generate a self-signed cert/key pair (the README recipe).

    The pinned-certificate trust model needs exactly one artefact:
    a cert the operator distributes to every dialling side.  This
    wraps the ``openssl req -x509`` one-liner (EC P-256, no
    passphrase); tests, benches and quick deployments all share it.
    Raises :class:`~repro.exceptions.ProtocolError` when no
    ``openssl`` binary is available or generation fails.
    """
    if shutil.which("openssl") is None:
        raise ProtocolError("no openssl binary available to generate a cert")
    try:
        subprocess.run(
            [
                "openssl", "req", "-x509",
                "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
                "-keyout", key_path, "-out", cert_path,
                "-days", str(days), "-nodes",
                "-subj", f"/CN={common_name}",
            ],
            check=True,
            capture_output=True,
        )
    except subprocess.CalledProcessError as exc:
        raise ProtocolError(
            f"self-signed cert generation failed: "
            f"{exc.stderr.decode(errors='replace')}"
        ) from exc


async def open_connection(
    host: str,
    port: int,
    *,
    ssl_context: ssl.SSLContext | None = None,
    connect_retry_s: float = 0.0,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Dial ``host:port``, retrying refused connects with backoff.

    ``connect_retry_s`` is the total budget for re-dialling a listener
    that is not accepting yet (0 = fail on the first refusal, the
    historical client behaviour).  Retries back off exponentially from
    :data:`INITIAL_BACKOFF_S` to :data:`MAX_BACKOFF_S` so a fleet of
    workers does not hammer a coordinator that is still binding.
    TLS handshake failures are *not* retried — a bad certificate will
    not get better.
    """
    if connect_retry_s < 0:
        raise ProtocolError(
            f"connect retry must be >= 0, got {connect_retry_s}"
        )
    loop = asyncio.get_running_loop()
    deadline = loop.time() + connect_retry_s
    backoff = INITIAL_BACKOFF_S
    while True:
        try:
            return await asyncio.open_connection(
                host, port, ssl=ssl_context
            )
        except ssl.SSLError as exc:
            raise AuthError(f"TLS handshake with {host}:{port} failed: {exc}") from exc
        except (ConnectionError, OSError):
            if loop.time() >= deadline:
                raise
            await asyncio.sleep(min(backoff, max(0.0, deadline - loop.time())))
            backoff = min(backoff * 2, MAX_BACKOFF_S)


async def close_writer(writer) -> None:
    """Close a stream writer without raising on an already-dead peer."""
    with contextlib.suppress(Exception):
        writer.close()
    with contextlib.suppress(asyncio.CancelledError, Exception):
        await writer.wait_closed()


#: Default seconds between a cluster worker's liveness beacons — the
#: one value spawn-local daemons are started with and an operator-run
#: ``repro.cli worker`` beats at.
DEFAULT_HEARTBEAT_INTERVAL = 0.5


async def heartbeat_loop(send, interval: float) -> None:
    """Call ``send()`` every ``interval`` seconds, forever.

    The worker-side liveness beacon: runs as a task beside the job
    loop and is cancelled at teardown.  ``send`` is an async callable
    that ships one heartbeat frame; transport errors propagate so the
    owner's EOF handling sees them.
    """
    if interval <= 0:
        raise ProtocolError(
            f"heartbeat interval must be positive, got {interval}"
        )
    while True:
        await asyncio.sleep(interval)
        await send()
