"""Differential tests: the proof codec against a naive reference.

The reference below is deliberately slow and straight-line — one byte
at a time, no tables, no strided compares, no shared helpers — and it
imports nothing from :mod:`repro.utils.encoding` or
:mod:`repro.merkle.serialize`, so it cannot inherit their mistakes.
It decodes to plain tuples, not to the library's classes.

Two properties are checked everywhere:

* **encodings are byte-equal**, and
* **rejection parity**: on any bytes, hostile or not, the library's
  decoder raises ``CodecError`` exactly where the reference raises
  :class:`RefCodec`, ``ProofShapeError`` exactly where it raises
  :class:`RefShape`, and returns an equal value everywhere else.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cheating import HonestBehavior
from repro.core.ni_cbs import NICBSParticipant
from repro.core.protocol import NICBSSubmissionMsg, ProofBundleMsg, SampleProof
from repro.exceptions import CodecError, ProofShapeError
from repro.merkle.proof import AuthenticationPath
from repro.merkle.serialize import decode_auth_path, encode_auth_path
from repro.merkle.tree import LeafEncoding
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment
from repro.utils.encoding import (
    encode_bytes_list,
    encode_uint,
    read_bytes_list,
    read_uint,
)

# ----------------------------------------------------------------------
# The reference codec
# ----------------------------------------------------------------------


class RefCodec(Exception):
    """The bytes are not a well-formed message."""


class RefShape(Exception):
    """Well-formed bytes describing an impossible authentication path."""


def ref_uint(value):
    out = []
    while value >= 0x80:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    out.append(value)
    return bytes(out)


def ref_read_uint(data, pos):
    # Up to eleven bytes: ten with the continuation bit, then a last.
    value = 0
    for k in range(11):
        if pos + k >= len(data):
            raise RefCodec("varint runs off the end")
        byte = data[pos + k]
        value += (byte & 0x7F) << (7 * k)
        if byte < 0x80:
            return value, pos + k + 1
    raise RefCodec("varint longer than eleven bytes")


def ref_bytes(payload):
    return ref_uint(len(payload)) + payload


def ref_read_bytes(data, pos):
    length, pos = ref_read_uint(data, pos)
    if pos + length > len(data):
        raise RefCodec("payload runs off the end")
    return data[pos : pos + length], pos + length


def ref_bytes_list(items):
    out = ref_uint(len(items))
    for item in items:
        out += ref_bytes(item)
    return out


def ref_read_bytes_list(data, pos):
    count, pos = ref_read_uint(data, pos)
    items = []
    for _ in range(count):
        item, pos = ref_read_bytes(data, pos)
        items.append(item)
    return items, pos


def ref_read_text(data, pos):
    raw, pos = ref_read_bytes(data, pos)
    try:
        return raw.decode("utf-8"), pos
    except UnicodeDecodeError:
        raise RefCodec("task id is not UTF-8") from None


# A path is the plain tuple (leaf_index, n_leaves, code, siblings); a
# proof is (index, claimed_result, path).


def ref_path(path):
    leaf_index, n_leaves, code, siblings = path
    return (
        ref_uint(leaf_index)
        + ref_uint(n_leaves)
        + ref_uint(code)
        + ref_bytes_list(siblings)
    )


def ref_read_path(data, pos):
    leaf_index, pos = ref_read_uint(data, pos)
    n_leaves, pos = ref_read_uint(data, pos)
    code, pos = ref_read_uint(data, pos)
    if code not in (0, 1):
        raise RefCodec("no such leaf encoding")
    siblings, pos = ref_read_bytes_list(data, pos)
    if n_leaves and leaf_index >= n_leaves:
        raise RefShape("leaf index outside the tree")
    if len({len(sibling) for sibling in siblings}) > 1:
        raise RefShape("sibling digests of different sizes")
    return (leaf_index, n_leaves, code, siblings), pos


def ref_proof(proof):
    index, claimed, path = proof
    return ref_uint(index) + ref_bytes(claimed) + ref_path(path)


def ref_read_proof(data, pos):
    index, pos = ref_read_uint(data, pos)
    claimed, pos = ref_read_bytes(data, pos)
    path, pos = ref_read_path(data, pos)
    return (index, claimed, path), pos


def ref_read_proofs(data, pos):
    count, pos = ref_read_uint(data, pos)
    proofs = []
    for _ in range(count):
        proof, pos = ref_read_proof(data, pos)
        proofs.append(proof)
    return proofs, pos


def ref_bundle(task_id, proofs):
    out = ref_bytes(task_id.encode("utf-8")) + ref_uint(len(proofs))
    for proof in proofs:
        out += ref_proof(proof)
    return out


def ref_decode_bundle(data):
    task_id, pos = ref_read_text(data, 0)
    proofs, pos = ref_read_proofs(data, pos)
    if pos != len(data):
        raise RefCodec("bytes after the last proof")
    return task_id, proofs


def ref_submission(task_id, root, n_leaves, proofs):
    out = ref_bytes(task_id.encode("utf-8")) + ref_bytes(root)
    out += ref_uint(n_leaves) + ref_uint(len(proofs))
    for proof in proofs:
        out += ref_proof(proof)
    return out


def ref_decode_submission(data):
    task_id, pos = ref_read_text(data, 0)
    root, pos = ref_read_bytes(data, pos)
    n_leaves, pos = ref_read_uint(data, pos)
    proofs, pos = ref_read_proofs(data, pos)
    if pos != len(data):
        raise RefCodec("bytes after the last proof")
    return task_id, root, n_leaves, proofs


# ----------------------------------------------------------------------
# Library values as the reference's plain tuples, and parity itself
# ----------------------------------------------------------------------

_CODES = {None: 0, LeafEncoding.HASHED: 0, LeafEncoding.RAW: 1}


def plain_path(path):
    return (
        path.leaf_index,
        path.n_leaves,
        _CODES[path.leaf_encoding],
        list(path.siblings),
    )


def plain_proof(proof):
    return (proof.index, proof.claimed_result, plain_path(proof.path))


def plain_bundle(msg):
    return msg.task_id, [plain_proof(p) for p in msg.proofs]


def plain_submission(msg):
    return (
        msg.task_id,
        msg.root,
        msg.n_leaves,
        [plain_proof(p) for p in msg.proofs],
    )


def outcome(decode, data, codec_error, shape_error):
    try:
        return "ok", decode(data)
    except codec_error:
        return "codec", None
    except shape_error:
        return "shape", None


def assert_parity(data, fast, plain, ref):
    """``fast`` and ``ref`` agree on ``data``: same rejection class or
    equal values."""
    got_kind, got = outcome(fast, data, CodecError, ProofShapeError)
    want = outcome(ref, data, RefCodec, RefShape)
    assert (got_kind, None if got is None else plain(got)) == want, data.hex()


def bundle_parity(data):
    assert_parity(data, ProofBundleMsg.decode, plain_bundle, ref_decode_bundle)


def submission_parity(data):
    assert_parity(
        data, NICBSSubmissionMsg.decode, plain_submission, ref_decode_submission
    )


def proof_parity(data, offset=0):
    assert_parity(
        data,
        lambda d: SampleProof.decode_at(d, offset),
        lambda got: (plain_proof(got[0]), got[1]),
        lambda d: ref_read_proof(d, offset),
    )


def path_parity(data, offset=0):
    assert_parity(
        data,
        lambda d: decode_auth_path(d, offset),
        lambda got: (plain_path(got[0]), got[1]),
        lambda d: ref_read_path(d, offset),
    )


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

# Values whose varints are one byte, two bytes, and six or more
# (indices and leaf counts >= 2^35).
_uints = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.sampled_from([127, 128, 16383, 16384, 1 << 35, (1 << 35) + 1, 1 << 63]),
    st.integers(min_value=1 << 35, max_value=1 << 70),
)

# Item sizes either side of the one-byte length prefix's limit.
_item_sizes = st.one_of(
    st.integers(min_value=0, max_value=40), st.sampled_from([126, 127, 128, 129])
)


@st.composite
def _uniform_items(draw, max_count=12):
    size = draw(_item_sizes)
    count = draw(st.integers(min_value=0, max_value=max_count))
    return [
        draw(st.binary(min_size=size, max_size=size)) for _ in range(count)
    ]


_mixed_items = st.lists(
    st.one_of(
        st.binary(max_size=40),
        st.binary(min_size=127, max_size=127),
        st.binary(min_size=128, max_size=128),
    ),
    max_size=12,
)


@st.composite
def _paths(draw):
    n_leaves = draw(st.one_of(st.just(0), _uints.filter(lambda v: v > 0)))
    if n_leaves:
        leaf_index = draw(st.integers(min_value=0, max_value=n_leaves - 1))
    else:
        leaf_index = draw(_uints)
    return AuthenticationPath(
        leaf_index=leaf_index,
        siblings=draw(_uniform_items()),
        n_leaves=n_leaves,
        leaf_encoding=draw(st.sampled_from([None, *LeafEncoding])),
    )


@st.composite
def _proofs(draw):
    return SampleProof(
        index=draw(_uints),
        claimed_result=draw(st.binary(max_size=40)),
        path=draw(_paths()),
    )


_proof_runs = st.one_of(
    st.just(()),
    st.tuples(_proofs()),
    st.lists(_proofs(), min_size=2, max_size=6).map(tuple),
)
_task_ids = st.text(max_size=12)


@st.composite
def _mutations(draw, data):
    """``data`` with a few bytes replaced, inserted or removed."""
    out = bytearray(data)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["set", "insert", "delete"]))
        if not out:
            kind = "insert"
        at = draw(st.integers(min_value=0, max_value=max(len(out) - 1, 0)))
        byte = draw(
            st.one_of(
                st.sampled_from([0x00, 0x01, 0x1F, 0x20, 0x21, 0x7F, 0x80, 0xFF]),
                st.integers(min_value=0, max_value=255),
            )
        )
        if kind == "set":
            out[at] = byte
        elif kind == "insert":
            out.insert(at, byte)
        else:
            del out[at]
    return bytes(out)


# ----------------------------------------------------------------------
# Varints and byte lists
# ----------------------------------------------------------------------


class TestVarintAgainstReference:
    @given(_uints)
    def test_encodings_equal(self, value):
        assert encode_uint(value) == ref_uint(value)

    def test_every_one_and_two_byte_value(self):
        for value in range(1 << 14):
            encoded = ref_uint(value)
            assert encode_uint(value) == encoded
            assert read_uint(encoded) == (value, len(encoded))

    @given(st.binary(max_size=14), st.integers(min_value=0, max_value=14))
    def test_read_parity_on_any_bytes(self, data, offset):
        assert_parity(
            data,
            lambda d: read_uint(d, offset),
            lambda got: got,
            lambda d: ref_read_uint(d, offset),
        )

    def test_overlong_forms(self):
        # Non-canonical but in-bounds forms decode (they always have);
        # a twelfth byte does not.
        for padding in range(0, 12):
            data = b"\xa0" + b"\x80" * padding + b"\x00"
            assert_parity(
                data, read_uint, lambda got: got, lambda d: ref_read_uint(d, 0)
            )


class TestBytesListAgainstReference:
    @given(st.one_of(_uniform_items(), _mixed_items))
    def test_encodings_equal_and_round_trip(self, items):
        encoded = encode_bytes_list(items)
        assert encoded == ref_bytes_list(items)
        assert read_bytes_list(encoded) == (items, len(encoded))

    def test_uniform_runs_of_every_short_size(self):
        for size in (0, 1, 2, 31, 32, 33, 126, 127, 128, 129):
            for count in (1, 2, 3, 9):
                items = [bytes([k + 1]) * size for k in range(count)]
                encoded = encode_bytes_list(items)
                assert encoded == ref_bytes_list(items)
                assert read_bytes_list(b"\x07" + encoded, 1) == (
                    items,
                    1 + len(encoded),
                )

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_decode_parity_on_mutated_lists(self, data):
        items = data.draw(st.one_of(_uniform_items(), _mixed_items))
        hostile = data.draw(_mutations(ref_bytes_list(items)))
        assert_parity(
            hostile,
            read_bytes_list,
            lambda got: got,
            lambda d: ref_read_bytes_list(d, 0),
        )

    def test_lying_count_does_not_size_a_buffer(self):
        # count = 2^62 over a 33-byte stride: the bounds check has to
        # come before anything is allocated from the claimed count.
        hostile = ref_uint(1 << 62) + b"\x20" + b"\xaa" * 32
        assert_parity(
            hostile,
            read_bytes_list,
            lambda got: got,
            lambda d: ref_read_bytes_list(d, 0),
        )


# ----------------------------------------------------------------------
# Paths, proofs and the two bundle messages
# ----------------------------------------------------------------------


class TestStructuredEncodingsAgainstReference:
    @given(_paths())
    def test_auth_path(self, path):
        encoded = encode_auth_path(path)
        assert encoded == ref_path(plain_path(path))
        assert path.wire_size() == len(encoded)
        path_parity(encoded)
        path_parity(b"\x00\x00" + encoded, 2)

    @given(_proofs())
    def test_sample_proof(self, proof):
        encoded = proof.encode()
        assert encoded == ref_proof(plain_proof(proof))
        proof_parity(encoded)
        proof_parity(b"\xff" + encoded, 1)

    @given(_task_ids, _proof_runs)
    @settings(max_examples=60, deadline=None)
    def test_proof_bundle(self, task_id, proofs):
        msg = ProofBundleMsg(task_id=task_id, proofs=proofs)
        encoded = msg.encode()
        assert encoded == ref_bundle(*plain_bundle(msg))
        assert plain_bundle(ProofBundleMsg.decode(encoded)) == plain_bundle(msg)
        bundle_parity(encoded)

    @given(_task_ids, st.binary(max_size=40), _uints, _proof_runs)
    @settings(max_examples=60, deadline=None)
    def test_nicbs_submission(self, task_id, root, n_leaves, proofs):
        msg = NICBSSubmissionMsg(
            task_id=task_id, root=root, n_leaves=n_leaves, proofs=proofs
        )
        encoded = msg.encode()
        assert encoded == ref_submission(*plain_submission(msg))
        decoded = NICBSSubmissionMsg.decode(encoded)
        assert plain_submission(decoded) == plain_submission(msg)
        submission_parity(encoded)

    def test_empty_sibling_list(self):
        # A one-leaf tree: height 0, no siblings.
        path = AuthenticationPath(0, [], 1, LeafEncoding.HASHED)
        assert encode_auth_path(path) == ref_path(plain_path(path))
        path_parity(encode_auth_path(path))


class TestRejectionParityOnMutatedMessages:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_bundles(self, data):
        msg = ProofBundleMsg(
            task_id=data.draw(_task_ids), proofs=data.draw(_proof_runs)
        )
        bundle_parity(data.draw(_mutations(msg.encode())))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_submissions(self, data):
        msg = NICBSSubmissionMsg(
            task_id=data.draw(_task_ids),
            root=data.draw(st.binary(max_size=40)),
            n_leaves=data.draw(_uints),
            proofs=data.draw(_proof_runs),
        )
        submission_parity(data.draw(_mutations(msg.encode())))

    @given(st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes(self, data):
        bundle_parity(data)
        submission_parity(data)
        proof_parity(data)
        path_parity(data)


# ----------------------------------------------------------------------
# Real submissions, attacked
# ----------------------------------------------------------------------


def real_submission(n, m):
    task = TaskAssignment("task-7", RangeDomain(0, n), PasswordSearch())
    return NICBSParticipant(task, HonestBehavior(), n_samples=m).compute_and_submit()


@pytest.fixture(scope="module")
def heavy():
    """The ledger's proof-heavy shape: 512 leaves, 256 proofs, ~82 KB."""
    msg = real_submission(512, 256)
    return msg, msg.encode()


@pytest.fixture(scope="module")
def light():
    msg = real_submission(64, 16)
    return msg, msg.encode()


def proof_offsets(msg, raw):
    """Where each proof starts in ``raw``, plus the end (reference walk)."""
    _task, pos = ref_read_text(raw, 0)
    _root, pos = ref_read_bytes(raw, pos)
    _n, pos = ref_read_uint(raw, pos)
    _count, pos = ref_read_uint(raw, pos)
    offsets = [pos]
    for _ in msg.proofs:
        _proof, pos = ref_read_proof(raw, pos)
        offsets.append(pos)
    assert pos == len(raw)
    return offsets


def first_sibling_prefix(raw, proof_start):
    """Offset of the sibling count of the proof at ``proof_start``; the
    first sibling's length prefix is the byte after it."""
    _index, pos = ref_read_uint(raw, proof_start)
    _claimed, pos = ref_read_bytes(raw, pos)
    _leaf, pos = ref_read_uint(raw, pos)
    _n, pos = ref_read_uint(raw, pos)
    _code, pos = ref_read_uint(raw, pos)
    return pos


class TestRealSubmissionsAgainstReference:
    def test_encodings_equal(self, heavy, light):
        for msg, raw in (heavy, light):
            assert raw == ref_submission(*plain_submission(msg))
            assert NICBSSubmissionMsg.decode(raw) == msg
            bundle = ProofBundleMsg(task_id=msg.task_id, proofs=msg.proofs)
            assert bundle.encode() == ref_bundle(*plain_bundle(bundle))
            assert ProofBundleMsg.decode(bundle.encode()) == bundle

    def test_every_truncation_of_a_real_submission(self, light):
        _msg, raw = light
        for cut in range(len(raw)):
            assert outcome(
                NICBSSubmissionMsg.decode, raw[:cut], CodecError, ProofShapeError
            ) == ("codec", None)
            submission_parity(raw[:cut])

    def test_truncations_of_the_256_proof_bundle(self, heavy):
        # Every cut costs a decode of everything before it, so all
        # ~82 000 cuts would take minutes.  Instead: every cut through
        # the header and the first two proofs and through the last
        # proof, the three cuts around every eighth proof boundary, and
        # a sweep whose stride is coprime to every field width.
        msg, raw = heavy
        offsets = proof_offsets(msg, raw)
        cuts = set(range(offsets[2] + 1))
        cuts.update(range(offsets[-2], len(raw)))
        for offset in offsets[::8]:
            cuts.update((offset - 1, offset, offset + 1))
        cuts.update(range(0, len(raw), 397))
        for cut in sorted(cuts):
            submission_parity(raw[:cut])
        bundle_raw = ProofBundleMsg(
            task_id=msg.task_id, proofs=msg.proofs
        ).encode()
        for cut in range(0, len(bundle_raw), 997):
            bundle_parity(bundle_raw[:cut])

    def test_one_flipped_length_prefix_inside_a_uniform_run(self, heavy):
        msg, raw = heavy
        offsets = proof_offsets(msg, raw)
        height = len(msg.proofs[0].path.siblings)
        for proof_no in (0, 1, 100, 255):
            count_at = first_sibling_prefix(raw, offsets[proof_no])
            assert raw[count_at] == height and raw[count_at + 1] == 32
            for sibling in (0, 1, height // 2, height - 1):
                at = count_at + 1 + 33 * sibling
                assert raw[at] == 32
                for byte in (0x00, 0x01, 0x1F, 0x21, 0x7F, 0x80, 0xA0, 0xFF):
                    hostile = raw[:at] + bytes([byte]) + raw[at + 1 :]
                    submission_parity(hostile)

    def test_lying_counts(self, heavy, light):
        for msg, raw in (heavy, light):
            offsets = proof_offsets(msg, raw)
            n_proofs = len(msg.proofs)
            head = len(ref_uint(n_proofs))
            count_at = offsets[0] - head
            assert raw[count_at : offsets[0]] == ref_uint(n_proofs)
            for lie in (0, 1, n_proofs - 1, n_proofs + 1, 1 << 20, 1 << 62):
                submission_parity(raw[:count_at] + ref_uint(lie) + raw[offsets[0] :])
            # ... and the sibling count of the first, a middle and the
            # last proof.
            height = len(msg.proofs[0].path.siblings)
            for proof_no in (0, n_proofs // 2, n_proofs - 1):
                at = first_sibling_prefix(raw, offsets[proof_no])
                for lie in (0, 1, height - 1, height + 1, 127, 1 << 30, 1 << 62):
                    submission_parity(raw[:at] + ref_uint(lie) + raw[at + 1 :])

    def test_overlong_varints(self, light):
        # The same value in a longer, non-canonical form is off the
        # single-byte path; it decodes as it always has, up to the
        # eleven-byte bound.
        msg, raw = light
        offsets = proof_offsets(msg, raw)
        at = first_sibling_prefix(raw, offsets[3]) + 1
        assert raw[at] == 32
        for padding in (1, 2, 9, 10, 11):
            overlong = b"\xa0" + b"\x80" * (padding - 1) + b"\x00"
            submission_parity(raw[:at] + overlong + raw[at + 1 :])
        # An overlong proof count, and an overlong sibling count.
        count_at = offsets[0] - 1
        assert raw[count_at] == len(msg.proofs)
        submission_parity(
            raw[:count_at] + bytes([0x80 | len(msg.proofs), 0x00]) + raw[offsets[0] :]
        )

    def test_trailing_bytes(self, heavy, light):
        for _msg, raw in (heavy, light):
            for tail in (b"\x00", b"\x20" + b"\xaa" * 32, raw[-40:]):
                submission_parity(raw + tail)

    def test_path_index_outside_its_tree_is_a_shape_error(self, light):
        # leaf_index >= n_leaves inside an otherwise perfect run: the
        # decoder's own shape check, after the bytes parsed cleanly.
        msg, raw = light
        offsets = proof_offsets(msg, raw)
        _index, pos = ref_read_uint(raw, offsets[5])
        _claimed, pos = ref_read_bytes(raw, pos)
        leaf_index, after = ref_read_uint(raw, pos)
        hostile = raw[:pos] + ref_uint(leaf_index + 64) + raw[after:]
        assert outcome(
            NICBSSubmissionMsg.decode, hostile, CodecError, ProofShapeError
        ) == ("shape", None)
        submission_parity(hostile)
