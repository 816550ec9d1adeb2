"""HMAC-SHA256 shared-secret handshake for both wire planes.

The paper's whole point is a supervisor that cannot be cheated (Du et
al., ICDCS 2004, §4) — yet a listening coordinator port that accepts
pickled job frames from anyone is a remote-code-execution invitation,
and the participant socket deserves an operator-gated mode too.  This
module implements a mutual challenge/response handshake that runs
*before* the application codec: an unauthenticated peer is rejected
before any frame is ever decoded.

Protocol (three tiny frames over :mod:`repro.net.framing`, each capped
at :data:`~repro.net.framing.MAX_AUTH_FRAME_BYTES`):

1. ``challenge`` — server → client: a fresh random 32-byte nonce.
2. ``response`` — client → server: the client's own fresh 32-byte
   nonce plus ``HMAC-SHA256(secret, "client" || server_nonce ||
   client_nonce)``.  Binding the MAC to the server's per-connection
   nonce kills replay: a recorded response is worthless on any other
   connection.
3. ``confirm`` — server → client: ``HMAC-SHA256(secret, "server" ||
   client_nonce || server_nonce)``, so the *server* proves knowledge
   of the secret too — a rogue listener cannot harvest work or feed a
   worker forged jobs.

MAC comparison is constant-time (:func:`hmac.compare_digest`).  Every
failure mode — wrong secret, malformed or truncated frames, replayed
or reflected MACs, a peer that goes silent — raises
:class:`~repro.exceptions.AuthError` within ``timeout`` seconds; the
handshake can reject, but never hang and never crash with anything
outside the :class:`~repro.exceptions.ReproError` hierarchy.

The secret itself is operator-distributed (``--secret-file``): one
line of high-entropy bytes, readable only by the deploying user.  The
handshake authenticates; it does not encrypt — pair it with the TLS
support in :mod:`repro.net.transport` when the wire crosses hosts you
do not trust.
"""

from __future__ import annotations

import asyncio
import hmac
import secrets

from repro.exceptions import AuthError, ProtocolError
from repro.net.framing import (
    MAX_AUTH_FRAME_BYTES,
    read_frame_bytes,
    write_frame_bytes,
)

#: Magic prefix every handshake frame carries: protocol name + version.
AUTH_MAGIC = b"RNA1"

#: Handshake frame tags (one byte after the magic).
_TAG_CHALLENGE = 0x01
_TAG_RESPONSE = 0x02
_TAG_CONFIRM = 0x03

#: Nonce and MAC widths (SHA-256 output size).
NONCE_BYTES = 32
MAC_BYTES = 32

#: Shortest secret the handshake will accept: anything below 16 bytes
#: is guessable enough to defeat the point of authenticating at all.
MIN_SECRET_BYTES = 16

#: Default seconds either side waits for the peer's next handshake
#: frame before giving up — a rejection, never a hang.
DEFAULT_HANDSHAKE_TIMEOUT = 10.0


def load_secret(path: str) -> bytes:
    """Read a shared secret from ``path`` (surrounding whitespace
    stripped, so ``echo``-created files just work).

    Raises :class:`~repro.exceptions.AuthError` for unreadable files
    and for secrets shorter than :data:`MIN_SECRET_BYTES`.
    """
    try:
        with open(path, "rb") as fh:
            secret = fh.read().strip()
    except OSError as exc:
        raise AuthError(f"cannot read secret file {path!r}: {exc}") from exc
    if len(secret) < MIN_SECRET_BYTES:
        raise AuthError(
            f"secret in {path!r} is {len(secret)} bytes; need at least "
            f"{MIN_SECRET_BYTES} bytes of entropy"
        )
    return secret


def compute_mac(secret: bytes, role: bytes, nonce_a: bytes, nonce_b: bytes) -> bytes:
    """The handshake MAC: ``HMAC-SHA256(secret, role || nonce_a || nonce_b)``.

    ``role`` (``b"client"`` / ``b"server"``) domain-separates the two
    directions so a reflected MAC can never satisfy the other side.
    """
    return hmac.new(secret, role + nonce_a + nonce_b, "sha256").digest()


# ----------------------------------------------------------------------
# Handshake frame encode/decode (fixed-width binary, hostile-input safe)
# ----------------------------------------------------------------------


def encode_challenge(server_nonce: bytes) -> bytes:
    return AUTH_MAGIC + bytes([_TAG_CHALLENGE]) + server_nonce


def encode_response(client_nonce: bytes, mac: bytes) -> bytes:
    return AUTH_MAGIC + bytes([_TAG_RESPONSE]) + client_nonce + mac


def encode_confirm(mac: bytes) -> bytes:
    return AUTH_MAGIC + bytes([_TAG_CONFIRM]) + mac


def _split_auth_frame(payload: bytes, tag: int, what: str, width: int) -> bytes:
    """Validate magic, tag and exact width; return the frame body."""
    if len(payload) < len(AUTH_MAGIC) + 1 or payload[: len(AUTH_MAGIC)] != AUTH_MAGIC:
        raise AuthError(f"{what}: not an auth handshake frame")
    if payload[len(AUTH_MAGIC)] != tag:
        raise AuthError(
            f"{what}: unexpected handshake frame tag "
            f"{payload[len(AUTH_MAGIC)]:#04x}"
        )
    body = payload[len(AUTH_MAGIC) + 1 :]
    if len(body) != width:
        raise AuthError(
            f"{what}: handshake frame body is {len(body)} bytes, "
            f"expected {width}"
        )
    return body


def decode_challenge(payload: bytes) -> bytes:
    """Decode a ``challenge`` frame into the server nonce."""
    return _split_auth_frame(payload, _TAG_CHALLENGE, "auth challenge", NONCE_BYTES)


def decode_response(payload: bytes) -> tuple[bytes, bytes]:
    """Decode a ``response`` frame into ``(client_nonce, mac)``."""
    body = _split_auth_frame(
        payload, _TAG_RESPONSE, "auth response", NONCE_BYTES + MAC_BYTES
    )
    return body[:NONCE_BYTES], body[NONCE_BYTES:]


def decode_confirm(payload: bytes) -> bytes:
    """Decode a ``confirm`` frame into the server MAC."""
    return _split_auth_frame(payload, _TAG_CONFIRM, "auth confirm", MAC_BYTES)


# ----------------------------------------------------------------------
# The handshake itself
# ----------------------------------------------------------------------


async def _next_auth_frame(reader, timeout: float, what: str) -> bytes:
    """One handshake frame, bounded in both size and time."""
    try:
        payload = await asyncio.wait_for(
            read_frame_bytes(reader, max_frame=MAX_AUTH_FRAME_BYTES),
            timeout=timeout,
        )
    except asyncio.TimeoutError as exc:
        raise AuthError(f"timed out waiting for {what}") from exc
    except ProtocolError as exc:
        raise AuthError(f"malformed {what}: {exc}") from exc
    if payload is None:
        raise AuthError(f"peer closed the connection before {what}")
    return payload


async def authenticate_server(
    reader,
    writer,
    secret: bytes,
    *,
    timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
) -> None:
    """Server side: challenge the peer, verify, confirm.

    Raises :class:`~repro.exceptions.AuthError` on any failure —
    before which no application frame has been read, so an
    unauthenticated peer never reaches the frame decoder.
    """
    server_nonce = secrets.token_bytes(NONCE_BYTES)
    await write_frame_bytes(
        writer, encode_challenge(server_nonce), max_frame=MAX_AUTH_FRAME_BYTES
    )
    payload = await _next_auth_frame(reader, timeout, "auth response")
    client_nonce, mac = decode_response(payload)
    expected = compute_mac(secret, b"client", server_nonce, client_nonce)
    if not hmac.compare_digest(mac, expected):
        raise AuthError("auth response MAC mismatch (wrong shared secret?)")
    await write_frame_bytes(
        writer,
        encode_confirm(compute_mac(secret, b"server", client_nonce, server_nonce)),
        max_frame=MAX_AUTH_FRAME_BYTES,
    )


async def authenticate_client(
    reader,
    writer,
    secret: bytes,
    *,
    timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
) -> None:
    """Client side: answer the challenge, verify the server's confirm.

    Raises :class:`~repro.exceptions.AuthError` if the server never
    offers a challenge (it is probably running without ``--secret-file``
    — a configuration mismatch, reported instead of a deadlock), sends
    garbage, or fails to prove it holds the same secret.
    """
    payload = await _next_auth_frame(reader, timeout, "auth challenge")
    server_nonce = decode_challenge(payload)
    client_nonce = secrets.token_bytes(NONCE_BYTES)
    await write_frame_bytes(
        writer,
        encode_response(
            client_nonce,
            compute_mac(secret, b"client", server_nonce, client_nonce),
        ),
        max_frame=MAX_AUTH_FRAME_BYTES,
    )
    payload = await _next_auth_frame(reader, timeout, "auth confirm")
    mac = decode_confirm(payload)
    expected = compute_mac(secret, b"server", client_nonce, server_nonce)
    if not hmac.compare_digest(mac, expected):
        raise AuthError("auth confirm MAC mismatch: server failed to prove the secret")
