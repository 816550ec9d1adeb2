"""Tests for repro.net.auth — the HMAC shared-secret handshake.

The contract under test: matching secrets authenticate mutually;
*every* failure mode — wrong secret, truncated or replayed handshake,
reflected MACs, garbage frames, a silent peer — raises
:class:`~repro.exceptions.AuthError` promptly (no hang), and an
unauthenticated peer never gets past the handshake.
"""

import asyncio

import pytest

from repro.exceptions import AuthError, ReproError
from repro.net.auth import (
    AUTH_MAGIC,
    MAC_BYTES,
    MIN_SECRET_BYTES,
    NONCE_BYTES,
    authenticate_client,
    authenticate_server,
    compute_mac,
    decode_challenge,
    decode_confirm,
    decode_response,
    encode_challenge,
    encode_confirm,
    encode_response,
    load_secret,
)
from repro.net.framing import (
    MAX_AUTH_FRAME_BYTES,
    frame_buffer,
    read_frame_bytes,
    write_frame_bytes,
)
from repro.net.transport import SecurityConfig, dial
from repro.service.server import memory_duplex

SECRET = b"0123456789abcdef0123456789abcdef"
OTHER = b"fedcba9876543210fedcba9876543210"


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


async def _handshake(server_secret: bytes, client_secret: bytes):
    """Run both sides over an in-process duplex; return their results."""
    (server_reader, server_writer), (client_reader, client_writer) = (
        memory_duplex()
    )
    async def server_side():
        try:
            return await authenticate_server(
                server_reader, server_writer, server_secret, timeout=5.0
            )
        except BaseException as exc:
            server_writer.close()  # what every real server does on reject
            return exc

    return await asyncio.gather(
        server_side(),
        authenticate_client(
            client_reader, client_writer, client_secret, timeout=5.0
        ),
        return_exceptions=True,
    )


class TestLoadSecret:
    def test_reads_and_strips(self, tmp_path):
        path = tmp_path / "secret"
        path.write_bytes(b"  " + SECRET + b"\n")
        assert load_secret(str(path)) == SECRET

    def test_missing_file(self, tmp_path):
        with pytest.raises(AuthError, match="cannot read secret file"):
            load_secret(str(tmp_path / "nope"))

    def test_short_secret_rejected(self, tmp_path):
        path = tmp_path / "secret"
        path.write_bytes(b"x" * (MIN_SECRET_BYTES - 1))
        with pytest.raises(AuthError, match="at least"):
            load_secret(str(path))


class TestHandshake:
    def test_matching_secrets_authenticate_mutually(self):
        results = run(_handshake(SECRET, SECRET))
        assert results == [None, None]

    def test_wrong_secret_rejected_on_both_sides(self):
        server_result, client_result = run(_handshake(SECRET, OTHER))
        assert isinstance(server_result, AuthError)
        assert "MAC mismatch" in str(server_result)
        # The server never sends its confirm, so the client sees the
        # closed/errored stream as a clean AuthError too.
        assert isinstance(client_result, (AuthError, ReproError))

    def test_each_connection_gets_fresh_nonces(self):
        """Two captures of the server's opening challenge differ."""

        async def capture_challenge() -> bytes:
            (sr, sw), (cr, cw) = memory_duplex()
            task = asyncio.ensure_future(
                authenticate_server(sr, sw, SECRET, timeout=0.2)
            )
            payload = await read_frame_bytes(cr, max_frame=MAX_AUTH_FRAME_BYTES)
            with pytest.raises(AuthError):
                await task  # times out: we never answered
            return decode_challenge(payload)

        async def scenario():
            return await capture_challenge(), await capture_challenge()

        a, b = run(scenario())
        assert a != b and len(a) == NONCE_BYTES

    def test_replayed_response_fails_on_a_new_connection(self):
        """A recorded response is bound to the old server nonce."""

        async def scenario():
            # Legitimate handshake, with the response frame captured.
            (sr, sw), (cr, cw) = memory_duplex()
            server = asyncio.ensure_future(
                authenticate_server(sr, sw, SECRET, timeout=5.0)
            )
            challenge = decode_challenge(
                await read_frame_bytes(cr, max_frame=MAX_AUTH_FRAME_BYTES)
            )
            import secrets as _secrets

            client_nonce = _secrets.token_bytes(NONCE_BYTES)
            response = encode_response(
                client_nonce,
                compute_mac(SECRET, b"client", challenge, client_nonce),
            )
            await write_frame_bytes(
                cw, response, max_frame=MAX_AUTH_FRAME_BYTES
            )
            await server  # original handshake succeeds

            # Replay the captured response at a fresh server.
            (sr2, sw2), (cr2, cw2) = memory_duplex()
            server2 = asyncio.ensure_future(
                authenticate_server(sr2, sw2, SECRET, timeout=5.0)
            )
            await read_frame_bytes(cr2, max_frame=MAX_AUTH_FRAME_BYTES)
            await write_frame_bytes(
                cw2, response, max_frame=MAX_AUTH_FRAME_BYTES
            )
            with pytest.raises(AuthError, match="MAC mismatch"):
                await server2

        run(scenario())

    def test_reflected_challenge_mac_cannot_satisfy_server(self):
        """Role separation: a client echoing server-side MACs fails."""

        async def scenario():
            (sr, sw), (cr, cw) = memory_duplex()
            server = asyncio.ensure_future(
                authenticate_server(sr, sw, SECRET, timeout=5.0)
            )
            challenge = decode_challenge(
                await read_frame_bytes(cr, max_frame=MAX_AUTH_FRAME_BYTES)
            )
            # MAC computed with the *server* role over the same nonces.
            await write_frame_bytes(
                cw,
                encode_response(
                    challenge,
                    compute_mac(SECRET, b"server", challenge, challenge),
                ),
                max_frame=MAX_AUTH_FRAME_BYTES,
            )
            with pytest.raises(AuthError, match="MAC mismatch"):
                await server

        run(scenario())

    @pytest.mark.parametrize("confirm", ["wrong_secret", "reflected"])
    def test_dial_refuses_a_listener_that_cannot_prove_the_secret(
        self, confirm
    ):
        """A rogue listener that challenges and then sends a confirm it
        could not have computed is refused, and the socket is closed."""

        async def scenario():
            hung_up = asyncio.get_running_loop().create_future()

            async def rogue(reader, writer):
                nonce = b"\x07" * NONCE_BYTES
                await write_frame_bytes(
                    writer, encode_challenge(nonce), max_frame=MAX_AUTH_FRAME_BYTES
                )
                client_nonce, mac = decode_response(
                    await read_frame_bytes(reader, max_frame=MAX_AUTH_FRAME_BYTES)
                )
                if confirm == "wrong_secret":
                    mac = compute_mac(OTHER, b"server", client_nonce, nonce)
                await write_frame_bytes(
                    writer, encode_confirm(mac), max_frame=MAX_AUTH_FRAME_BYTES
                )
                hung_up.set_result(await reader.read())  # b"" at EOF
                writer.close()

            listener = await asyncio.start_server(rogue, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            try:
                with pytest.raises(
                    AuthError, match="server failed to prove the secret"
                ) as refused:
                    await dial("127.0.0.1", port, SecurityConfig(secret=SECRET))
                # ``refused`` keeps dial's frame, and so its writer, alive:
                # only dial's own close can have hung up.
                assert await asyncio.wait_for(hung_up, timeout=5.0) == b""
                del refused
            finally:
                listener.close()
                await listener.wait_closed()

        run(scenario())

    def test_truncated_handshake_raises_not_hangs(self):
        """EOF mid-handshake is an AuthError on both sides."""

        async def scenario():
            (sr, sw), (cr, cw) = memory_duplex()
            server = asyncio.ensure_future(
                authenticate_server(sr, sw, SECRET, timeout=5.0)
            )
            await read_frame_bytes(cr, max_frame=MAX_AUTH_FRAME_BYTES)
            cw.close()  # client walks away mid-handshake
            with pytest.raises(AuthError):
                await server

        run(scenario())

    def test_silent_server_times_out_client(self):
        async def scenario():
            (_, _), (cr, cw) = memory_duplex()
            with pytest.raises(AuthError, match="timed out"):
                await authenticate_client(cr, cw, SECRET, timeout=0.1)

        run(scenario())

    def test_silent_client_times_out_server(self):
        async def scenario():
            (sr, sw), (_, _) = memory_duplex()
            with pytest.raises(AuthError, match="timed out"):
                await authenticate_server(sr, sw, SECRET, timeout=0.1)

        run(scenario())

    def test_oversized_pre_auth_frame_rejected(self):
        """A giant length prefix from an unauthenticated peer is
        refused at the auth-frame cap, before any allocation."""

        async def scenario():
            (sr, sw), (cr, cw) = memory_duplex()
            server = asyncio.ensure_future(
                authenticate_server(sr, sw, SECRET, timeout=5.0)
            )
            await read_frame_bytes(cr, max_frame=MAX_AUTH_FRAME_BYTES)
            cw.write((1 << 24).to_bytes(4, "big"))  # claims 16 MiB
            with pytest.raises(AuthError):
                await server

        run(scenario())

    def test_non_auth_first_frame_rejected(self):
        """A legacy client speaking the JSON codec at a secured server
        is rejected by magic mismatch — no JSON is ever parsed."""

        async def scenario():
            from repro.service.codec import TaskRequest, encode_frame

            (sr, sw), (cr, cw) = memory_duplex()
            server = asyncio.ensure_future(
                authenticate_server(sr, sw, SECRET, timeout=5.0)
            )
            await read_frame_bytes(cr, max_frame=MAX_AUTH_FRAME_BYTES)
            cw.write(encode_frame(TaskRequest()))
            with pytest.raises(AuthError, match="not an auth handshake frame"):
                await server

        run(scenario())


class TestFrameCodecs:
    def test_round_trips(self):
        nonce, mac = b"n" * NONCE_BYTES, b"m" * MAC_BYTES
        assert decode_challenge(encode_challenge(nonce)) == nonce
        assert decode_response(encode_response(nonce, mac)) == (nonce, mac)
        assert decode_confirm(encode_confirm(mac)) == mac

    def test_wrong_tag_rejected(self):
        with pytest.raises(AuthError, match="unexpected handshake frame tag"):
            decode_challenge(encode_confirm(b"m" * MAC_BYTES))

    def test_wrong_width_rejected(self):
        with pytest.raises(AuthError, match="expected"):
            decode_challenge(AUTH_MAGIC + b"\x01" + b"short")

    def test_frames_fit_the_auth_cap(self):
        for payload in (
            encode_challenge(b"n" * NONCE_BYTES),
            encode_response(b"n" * NONCE_BYTES, b"m" * MAC_BYTES),
            encode_confirm(b"m" * MAC_BYTES),
        ):
            frame_buffer(payload, max_frame=MAX_AUTH_FRAME_BYTES)

    def test_macs_are_role_and_nonce_sensitive(self):
        a, b = b"a" * NONCE_BYTES, b"b" * NONCE_BYTES
        macs = {
            compute_mac(SECRET, b"client", a, b),
            compute_mac(SECRET, b"server", a, b),
            compute_mac(SECRET, b"client", b, a),
            compute_mac(OTHER, b"client", a, b),
        }
        assert len(macs) == 4
