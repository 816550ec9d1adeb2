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

from repro import _reexport

_reexport(__name__, {"repro.net.transport": "SecurityConfig"})

__all__ = ["SecurityConfig"]
