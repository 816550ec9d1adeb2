"""Unified secure transport layer for every wire in the repo.

Before PR 5 the repo ran two hand-rolled networking stacks: the
participant-facing supervisor service (:mod:`repro.service`) and the
operator-facing cluster plane (:mod:`repro.engine.cluster`) each
carried a private copy of length-prefixed framing, size caps,
connect-retry loops and heartbeat plumbing — and the cluster plane
accepted pickled payloads from *anyone who could reach the port*.
This package is the one transport subsystem both planes now share:

* :mod:`repro.net.framing` — the 4-byte length-prefix frame rule and
  the centralized size-cap constants, in sync and asyncio variants.
* :mod:`repro.net.auth` — the mutual HMAC-SHA256 shared-secret
  challenge/response handshake (per-connection nonces, constant-time
  compare), run underneath the application codec so an
  unauthenticated peer is rejected before any frame is ever decoded.
* :mod:`repro.net.transport` — connection lifecycle:
  :class:`SecurityConfig` (secret + optional TLS material, one object
  for both roles), connect-with-retry/backoff, graceful close and the
  heartbeat beacon.

Layering rule: :mod:`repro.net` imports nothing from
:mod:`repro.service` or :mod:`repro.engine` — it is the floor they
both stand on.
"""

from repro.net.auth import (
    DEFAULT_HANDSHAKE_TIMEOUT,
    MIN_SECRET_BYTES,
    authenticate_client,
    authenticate_server,
    load_secret,
)
from repro.net.framing import (
    FRAME_HEADER_BYTES,
    MAX_AUTH_FRAME_BYTES,
    MAX_CLUSTER_FRAME_BYTES,
    MAX_CLUSTER_PAYLOAD_BYTES,
    MAX_FRAME_BYTES,
    check_payload_size,
    frame_buffer,
    read_frame_bytes,
    read_frame_bytes_sync,
    split_frame_buffer,
    write_frame_bytes,
    write_frame_bytes_sync,
)
from repro.net.transport import (
    SecurityConfig,
    close_writer,
    generate_self_signed_cert,
    heartbeat_loop,
    open_connection,
)

__all__ = [
    # framing
    "FRAME_HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "MAX_CLUSTER_PAYLOAD_BYTES",
    "MAX_CLUSTER_FRAME_BYTES",
    "MAX_AUTH_FRAME_BYTES",
    "check_payload_size",
    "frame_buffer",
    "split_frame_buffer",
    "read_frame_bytes",
    "write_frame_bytes",
    "read_frame_bytes_sync",
    "write_frame_bytes_sync",
    # auth
    "DEFAULT_HANDSHAKE_TIMEOUT",
    "MIN_SECRET_BYTES",
    "load_secret",
    "authenticate_client",
    "authenticate_server",
    # transport
    "SecurityConfig",
    "open_connection",
    "close_writer",
    "heartbeat_loop",
    "generate_self_signed_cert",
]
