"""Wire serialization of Merkle artefacts.

The pieces :mod:`repro.core.protocol` shares with the Merkle layer when
it turns commitments and proof bundles into concrete byte strings, so
the simulated network can account real sizes (experiment E3: the
``O(n)`` vs ``O(m log n)`` communication claim).
"""

from __future__ import annotations

from repro.merkle.tree import LeafEncoding
from repro.utils.encoding import encode_bytes, read_bytes

#: Wire code of each leaf encoding (the one-byte field a proof bundle
#: carries once, see :mod:`repro.core.protocol`).
ENCODING_CODES = {LeafEncoding.HASHED: 0, LeafEncoding.RAW: 1}
ENCODING_FROM_CODE = {code: enc for enc, code in ENCODING_CODES.items()}


def encode_digest(digest: bytes) -> bytes:
    """Serialize a single digest (length-prefixed)."""
    return encode_bytes(digest)


def decode_digest(data: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Deserialize a digest at ``offset``."""
    return read_bytes(data, offset)
