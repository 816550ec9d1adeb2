"""Wire messages for the CBS protocols, with real byte encodings.

Experiment E3 reproduces the paper's communication-cost claims
(``O(n)`` naive vs ``O(m log n)`` CBS), so every message serializes to
actual bytes via the canonical codec, and the simulated network
accounts ``len(encode())`` per transfer.

Message flow (interactive CBS, §3.1):

1. participant → supervisor: :class:`CommitmentMsg` (``Φ(R)``)
2. supervisor → participant: :class:`SampleChallengeMsg` (``i_1..i_m``)
3. participant → supervisor: :class:`ProofBundleMsg`
   (per sample: claimed ``f(x_i)`` + sibling digests ``λ_1..λ_H`` —
   on the wire one multiproof: a digest several samples share, or can
   derive from each other, travels once or not at all)
4. supervisor → participant: :class:`VerdictMsg`

NI-CBS (§4) collapses 1–3 into a single :class:`NICBSSubmissionMsg`.
The naive baselines use :class:`FullResultsMsg` (all ``n`` results on
the wire) — the ``O(n)`` cost CBS eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.core.wire import (
    KINDS as _SHARED_KINDS,
    MAX_CONTAINER_ITEMS,
    VARINT_MAX,
    Field,
    WireMessage,
)
from repro.exceptions import CodecError
from repro.merkle.multiproof import supplied_siblings
from repro.merkle.proof import AuthenticationPath
from repro.merkle.serialize import ENCODING_CODES, ENCODING_FROM_CODE
from repro.merkle.tree import LeafEncoding
from repro.utils.encoding import (
    encode_bytes_list,
    encode_uint,
    read_bytes_list,
    read_uint,
    read_uints,
)

# A protocol message declares no range of its own, and everything its
# decoder rejects is a malformed encoding: a CodecError.
_field = partial(Field, hi=VARINT_MAX, error=CodecError)
_TASK_ID = _field("task_id", "str")

#: Tallest path a bundle may claim: a tree over 2^64 leaves (§3's
#: headline domain).
MAX_PATH_HEIGHT = 64


@dataclass(frozen=True)
class CommitmentMsg(WireMessage):
    """Step 1: the Merkle root ``Φ(R)`` commits all ``n`` results."""

    task_id: str
    root: bytes
    n_leaves: int

    FIELDS = (_TASK_ID, _field("root", "bytes"), _field("n_leaves", "uint"))


@dataclass(frozen=True)
class SampleChallengeMsg(WireMessage):
    """Step 2: the supervisor's ``m`` sample indices (0-based)."""

    task_id: str
    indices: tuple[int, ...]

    FIELDS = (_TASK_ID, _field("indices", "uints"))


@dataclass(frozen=True)
class SampleProof:
    """Step 3 payload for one sample: claimed result + auth path.

    The in-memory form only; on the wire a whole bundle is one
    multiproof (the ``proofs`` kind below).
    """

    index: int
    claimed_result: bytes
    path: AuthenticationPath


def _encode_proofs(spec: Field, proofs: tuple[SampleProof, ...]) -> bytes:
    """The ``proofs`` kind: a bundle as one multiproof.

    ``m ‖ n_leaves ‖ leaf-encoding code ‖ height ‖ the m sample indices
    in sample order ‖ the claimed results of the distinct leaves,
    ascending ‖ the supplied sibling digests, level-major, left to
    right`` (both lists counted); an empty bundle is ``m = 0`` alone.
    Only the positions :func:`~repro.merkle.multiproof.supplied_siblings`
    names are read from the paths, so a decoded bundle re-encodes to
    the bytes it came from.  One header means one geometry: a bundle
    that mixes tree sizes, encodings or heights, whose path disagrees
    with its sample index, or that claims two results for one leaf has
    no encoding and raises :class:`CodecError`.
    """
    if not proofs:
        return encode_uint(0)
    first = proofs[0].path
    n_leaves, height = first.n_leaves, len(first.siblings)
    # A path built without an encoding has always meant HASHED.
    encoding = first.leaf_encoding or LeafEncoding.HASHED
    by_leaf: dict[int, SampleProof] = {}
    for proof in proofs:
        path = proof.path
        if (
            path.leaf_index != proof.index
            or path.n_leaves != n_leaves
            or len(path.siblings) != height
            or (path.leaf_encoding or LeafEncoding.HASHED) is not encoding
            or by_leaf.setdefault(proof.index, proof).claimed_result
            != proof.claimed_result
        ):
            raise CodecError(
                f"sample {proof.index} does not share the bundle's tree "
                "(one index, size, encoding, height and result per leaf)"
            )
    leaves = sorted(by_leaf)
    digests = [
        by_leaf[leaf].path.siblings[level]
        for level, row in enumerate(supplied_siblings(leaves, height))
        for _node, leaf in row
    ]
    if None in digests:
        raise CodecError("a sibling digest the bundle has to supply is missing")
    return b"".join(
        (
            encode_uint(len(proofs)),
            encode_uint(n_leaves),
            encode_uint(ENCODING_CODES[encoding]),
            encode_uint(height),
            *[encode_uint(proof.index) for proof in proofs],
            encode_bytes_list([by_leaf[leaf].claimed_result for leaf in leaves]),
            encode_bytes_list(digests),
        )
    )


def _read_proofs(
    spec: Field, data: bytes, pos: int
) -> tuple[tuple[SampleProof, ...], int]:
    """Read one bundle back as ``m`` :class:`SampleProof`s.

    Samples of one leaf share one proof object, and a path holds
    ``None`` wherever its sibling is derivable from the other samples —
    so folding a received path on its own fails loudly rather than
    folding garbage.  Everything sized from a claimed count is bounded
    first: ``m`` by the bytes left (an index is at least one), ``height``
    by :data:`MAX_PATH_HEIGHT`, the ``m × height`` sibling slots by
    :data:`~repro.core.wire.MAX_CONTAINER_ITEMS`.
    """
    count, pos = read_uint(data, pos)
    if not count:
        return (), pos
    n_leaves, pos = read_uint(data, pos)
    code, pos = read_uint(data, pos)
    encoding = ENCODING_FROM_CODE.get(code)
    if encoding is None:
        raise CodecError(f"unknown leaf-encoding code {code}")
    height, pos = read_uint(data, pos)
    if (
        count > len(data) - pos
        or height > MAX_PATH_HEIGHT
        or count * height > MAX_CONTAINER_ITEMS
    ):
        raise CodecError(
            f"bundle of {count} samples over height {height} exceeds the "
            "bytes that follow or the sibling-slot limit"
        )
    indices, pos = read_uints(data, pos, count)
    leaves = sorted(set(indices))
    results, pos = read_bytes_list(data, pos)
    if len(results) != len(leaves):
        raise CodecError(
            f"{len(results)} claimed results for {len(leaves)} distinct leaves"
        )
    digests, pos = read_bytes_list(data, pos)
    levels = supplied_siblings(leaves, height)
    if len(digests) != sum(map(len, levels)):
        raise CodecError(
            f"{len(digests)} supplied digests, the samples need "
            f"{sum(map(len, levels))}"
        )
    # One column per level — for every leaf, the digest supplied beside
    # its ancestor there, or None — then transposed into the paths.
    supply = iter(digests)
    columns = []
    ancestors = leaves
    for row in levels:
        beside = {node ^ 1: digest for (node, _leaf), digest in zip(row, supply)}
        columns.append(list(map(beside.get, ancestors)))
        ancestors = [node >> 1 for node in ancestors]
    paths = map(list, zip(*columns)) if height else ([] for _ in leaves)
    by_leaf = {
        leaf: SampleProof(
            leaf,
            result,
            AuthenticationPath.from_uniform(leaf, siblings, n_leaves, encoding),
        )
        for leaf, result, siblings in zip(leaves, results, paths)
    }
    return tuple(map(by_leaf.__getitem__, indices)), pos


#: The shared kinds plus the one only this module can build.
KINDS = {**_SHARED_KINDS, "proofs": (_encode_proofs, _read_proofs)}


@dataclass(frozen=True)
class ProofBundleMsg(WireMessage, kinds=KINDS):
    """Step 3: proofs for all challenged samples."""

    task_id: str
    proofs: tuple[SampleProof, ...]

    FIELDS = (_TASK_ID, _field("proofs", "proofs"))


@dataclass(frozen=True)
class NICBSSubmissionMsg(WireMessage, kinds=KINDS):
    """NI-CBS single-shot submission: commitment + self-derived proofs.

    The broker architecture (§4) forwards this from participant to
    supervisor without any interactive round.
    """

    task_id: str
    root: bytes
    n_leaves: int
    proofs: tuple[SampleProof, ...]

    FIELDS = (
        _TASK_ID,
        _field("root", "bytes"),
        _field("n_leaves", "uint"),
        _field("proofs", "proofs"),
    )


@dataclass(frozen=True)
class FullResultsMsg(WireMessage):
    """All ``n`` results on the wire — the naive baselines' payload."""

    task_id: str
    results: tuple[bytes, ...]

    FIELDS = (_TASK_ID, _field("results", "bytes_list"))


@dataclass(frozen=True)
class ReportsMsg(WireMessage):
    """Screener hits (the results of interest) — normal grid payload."""

    task_id: str
    reports: tuple[str, ...] = field(default_factory=tuple)

    FIELDS = (_TASK_ID, _field("reports", "strs"))


@dataclass(frozen=True)
class AssignMsg(WireMessage):
    """Task assignment descriptor sent supervisor → participant.

    Carries enough to identify the work (task id, domain bounds and a
    workload label); the function itself is code both sides share, as
    in real grids where the client software embeds the kernel.
    """

    task_id: str
    n_inputs: int
    workload: str = ""

    FIELDS = (_TASK_ID, _field("n_inputs", "uint"), _field("workload", "str"))


@dataclass(frozen=True)
class VerdictMsg(WireMessage):
    """Step 4 outcome: accepted, or caught with a reason."""

    task_id: str
    accepted: bool
    reason: str = ""

    FIELDS = (_TASK_ID, _field("accepted", "bool"), _field("reason", "str"))
