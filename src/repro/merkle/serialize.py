"""Wire serialization of Merkle artefacts.

Used by :mod:`repro.core.protocol` to turn commitments and proofs into
concrete byte strings so the simulated network can account real sizes
(experiment E3: the ``O(n)`` vs ``O(m log n)`` communication claim).
"""

from __future__ import annotations

from repro.exceptions import CodecError
from repro.merkle.proof import AuthenticationPath
from repro.merkle.tree import LeafEncoding
from repro.utils.encoding import (
    encode_bytes,
    encode_bytes_list,
    encode_uint,
    read_bytes,
    read_bytes_list,
    read_uint,
    read_uniform_run,
)

#: Wire code of each leaf encoding, shared with the multiproof codec.
ENCODING_CODES = {LeafEncoding.HASHED: 0, LeafEncoding.RAW: 1}
ENCODING_FROM_CODE = {code: enc for enc, code in ENCODING_CODES.items()}
# The code field as it sits on the wire (a one-byte varint); ``None``
# is a path built without an encoding, which has always meant HASHED.
_CODE_BYTES = {enc: encode_uint(code) for enc, code in ENCODING_CODES.items()}
_CODE_BYTES[None] = _CODE_BYTES[LeafEncoding.HASHED]


def encode_auth_path(path: AuthenticationPath) -> bytes:
    """Serialize an authentication path.

    ``leaf_index ‖ n_leaves ‖ encoding code ‖ sibling list``; the
    sibling list is a uniform run (see :mod:`repro.utils.encoding`), so
    a path costs a handful of calls however tall the tree is.
    """
    return b"".join(
        (
            encode_uint(path.leaf_index),
            encode_uint(path.n_leaves),
            _CODE_BYTES[path.leaf_encoding],
            encode_bytes_list(path.siblings),
        )
    )


def decode_auth_path(data: bytes, offset: int = 0) -> tuple[AuthenticationPath, int]:
    """Deserialize an authentication path at ``offset``."""
    leaf_index, pos = read_uint(data, offset)
    n_leaves, pos = read_uint(data, pos)
    code, pos = read_uint(data, pos)
    encoding = ENCODING_FROM_CODE.get(code)
    if encoding is None:
        raise CodecError(f"unknown leaf-encoding code {code}")
    count, run_pos = read_uint(data, pos)
    run = read_uniform_run(data, run_pos, count)
    if run is None:
        # Not a uniform run: the generic list reader decodes or rejects
        # it, and the validating constructor checks the sibling sizes.
        siblings, pos = read_bytes_list(data, pos)
        build = AuthenticationPath
    else:
        # Every length prefix was just checked equal — the path's own
        # sibling-size invariant — so only the index checks remain.
        siblings, pos = run
        build = AuthenticationPath.from_uniform
    return build(leaf_index, siblings, n_leaves, encoding), pos


def encode_digest(digest: bytes) -> bytes:
    """Serialize a single digest (length-prefixed)."""
    return encode_bytes(digest)


def decode_digest(data: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Deserialize a digest at ``offset``."""
    return read_bytes(data, offset)
