"""Differential tests: the proof codec against a naive reference.

The reference (``tests/proof_reference.py``) is deliberately slow and
straight-line — one byte at a time, no tables, no strided compares, no
shared helpers — and imports nothing from :mod:`repro.utils.encoding`,
:mod:`repro.core.protocol` or :mod:`repro.merkle.multiproof`, so it
cannot inherit their mistakes.  It decodes to plain tuples, not to the
library's classes, and it is built from the *per-path* form of SNIPPETS
snippet 1 (one sibling dict per level per sample): a bundle's multiproof
is every sample expanded to its own path, minus what another sample
determines.  The per-path encoder itself — the wire format until v7 —
is kept as the reference for the paper's ``m·H`` digest count.

The library never packs per-sample proofs: the reference's bytes are
what it decodes, and what it must encode back.  Two properties are
checked everywhere:

* **encodings are byte-equal**, and
* **rejection parity**: on any bytes, hostile or not, the library's
  decoder raises ``CodecError`` exactly where the reference raises
  :class:`RefCodec`, ``ProofShapeError`` exactly where it raises
  :class:`RefShape`, and returns an equal value everywhere else.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proof_reference import (
    RefCodec,
    RefNoMultiproof,
    RefShape,
    compact,
    per_path_digest_count,
    plain_proofs,
    ref_bundle,
    ref_bytes_list,
    ref_decode_bundle,
    ref_decode_submission,
    ref_multiproof,
    ref_needed,
    ref_per_path_proofs,
    ref_read_bytes,
    ref_read_bytes_list,
    ref_read_text,
    ref_read_uint,
    ref_submission,
    ref_uint,
)
from repro.cheating import HonestBehavior
from repro.core.ni_cbs import NICBSParticipant
from repro.core.protocol import NICBSSubmissionMsg, ProofBundleMsg
from repro.exceptions import CodecError, ProofShapeError
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment
from repro.utils.encoding import (
    encode_bytes_list,
    encode_uint,
    read_bytes_list,
    read_uint,
)

# ----------------------------------------------------------------------
# Library values as the reference's plain tuples, and parity itself
# ----------------------------------------------------------------------


def plain_bundle(msg):
    return msg.task_id, plain_proofs(msg.proofs)


def plain_submission(msg):
    return msg.task_id, msg.root, msg.n_leaves, plain_proofs(msg.proofs)


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
def _proof_runs(draw, min_samples=0, max_samples=6):
    """A run of plain proofs cut from one tree: one height, one leaf
    count, one encoding, one digest per node, one result per leaf —
    samples may repeat, cluster under one subtree or sit 2^35 leaves
    apart."""
    count = draw(st.integers(min_value=min_samples, max_value=max_samples))
    height = draw(st.integers(min_value=0, max_value=5))
    near = st.integers(min_value=0, max_value=(1 << height) - 1)
    pool = draw(
        st.lists(st.one_of(near, near, _uints), min_size=1, max_size=4)
    )
    indices = [draw(st.sampled_from(pool)) for _ in range(count)]
    n_leaves = draw(
        st.one_of(st.just(0), _uints.map(lambda v: v + max(pool) + 1))
    )
    code = int(draw(st.booleans()))  # 1: RAW leaves
    size = draw(_item_sizes)
    digest_at, result_at = {}, {}

    def digest(level, node):
        if (level, node) not in digest_at:
            digest_at[level, node] = draw(st.binary(min_size=size, max_size=size))
        return digest_at[level, node]

    proofs = []
    for index in indices:
        if index not in result_at:
            result_at[index] = draw(st.binary(max_size=40))
        siblings = [digest(level, (index >> level) ^ 1) for level in range(height)]
        proofs.append((index, result_at[index], (index, n_leaves, code, siblings)))
    return proofs


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
# Bundles: the per-path form, the multiproof, the two bundle messages
# ----------------------------------------------------------------------


def assert_round_trip(proofs, decoded, encoded):
    """The reference's bytes decode to the compact form of ``proofs``,
    samples of one leaf share one path object, and the library encodes
    what it decoded back to the same bytes."""
    assert plain_proofs(decoded.proofs) == compact(proofs)
    by_leaf = {}
    for proof in decoded.proofs:
        assert by_leaf.setdefault(proof.index, proof.path) is proof.path
    assert decoded.encode() == encoded


class TestStructuredEncodingsAgainstReference:
    @given(_proof_runs(min_samples=1, max_samples=1))
    def test_auth_path(self, proofs):
        # One sample: nothing is derivable, so the multiproof supplies
        # exactly the path's H digests, in the path's order — the
        # per-path encoder is the reference for that count.
        ((_index, _claimed, path),) = proofs
        height = len(path[3])
        assert per_path_digest_count(proofs) == height
        needed = ref_needed([path[0]], height)
        assert [len(nodes) for nodes in needed] == [1] * height
        encoded = ProofBundleMsg.decode(ref_bundle("", proofs)).encode()
        assert encoded.endswith(ref_bytes_list(path[3]))
        assert compact(proofs) == proofs

    @given(_proof_runs(min_samples=1, max_samples=1))
    def test_sample_proof(self, proofs):
        # A one-sample bundle is a multiproof of one.
        encoded = ref_bundle("t", proofs)
        decoded = ProofBundleMsg.decode(encoded)
        assert plain_bundle(decoded) == ("t", proofs)
        assert decoded.encode() == encoded
        bundle_parity(encoded)

    @given(_task_ids, _proof_runs())
    @settings(max_examples=100, deadline=None)
    def test_proof_bundle(self, task_id, proofs):
        encoded = ref_bundle(task_id, proofs)
        assert_round_trip(proofs, ProofBundleMsg.decode(encoded), encoded)
        bundle_parity(encoded)
        # Never more digests than the independent paths ship.
        if proofs:
            leaves = [proof[0] for proof in proofs]
            needed = ref_needed(leaves, len(proofs[0][2][3]))
            assert sum(map(len, needed)) <= per_path_digest_count(proofs)

    @given(_task_ids, st.binary(max_size=40), _uints, _proof_runs())
    @settings(max_examples=100, deadline=None)
    def test_nicbs_submission(self, task_id, root, n_leaves, proofs):
        encoded = ref_submission(task_id, root, n_leaves, proofs)
        decoded = NICBSSubmissionMsg.decode(encoded)
        assert (decoded.task_id, decoded.root, decoded.n_leaves) == (
            task_id, root, n_leaves
        )
        assert_round_trip(proofs, decoded, encoded)
        submission_parity(encoded)

    def test_empty_sibling_list(self):
        # A one-leaf tree: height 0, no siblings, any number of samples.
        proofs = [(0, b"r", (0, 1, 0, []))] * 3
        encoded = ref_bundle("t", proofs)
        assert encoded == b"\x01t" + bytes([3, 1, 0, 0, 0, 0, 0, 1, 1]) + b"r\x00"
        decoded = ProofBundleMsg.decode(encoded)
        assert plain_proofs(decoded.proofs) == proofs
        assert decoded.encode() == encoded
        bundle_parity(encoded)
        # ... and no samples at all is the count alone.
        assert ref_bundle("t", []) == b"\x01t\x00"
        assert ProofBundleMsg.decode(b"\x01t\x00").encode() == b"\x01t\x00"
        bundle_parity(b"\x01t\x00")


class TestEncoderRefusesWhatOneHeaderCannotSay:
    """One header is one geometry.  A :class:`Multiproof` holds one
    header by construction; the reference encoder, which takes a path
    per sample, raises rather than emit bytes that would decode to
    something else."""

    @staticmethod
    def proof(index, result=b"r", n_leaves=8, height=3, code=0):
        return (index, result, (index, n_leaves, code, [b"\x11" * 4] * height))

    @pytest.mark.parametrize(
        "odd",
        [
            dict(n_leaves=7),
            dict(height=2),
            dict(code=1),
            dict(index=1, result=b"another result for leaf 1"),
        ],
        ids=["tree-size", "height", "encoding", "two-results-one-leaf"],
    )
    def test_mixed_bundle(self, odd):
        proofs = [self.proof(1), self.proof(**{"index": 5, **odd})]
        with pytest.raises(RefNoMultiproof):
            ref_bundle("t", proofs)
        with pytest.raises(RefNoMultiproof):
            ref_submission("t", b"root", 8, proofs[::-1])

    def test_path_for_another_leaf_than_its_sample(self):
        _index, result, path = self.proof(5)
        with pytest.raises(RefNoMultiproof):
            ref_bundle("t", [(4, result, path)])

    def test_part_of_a_received_bundle_cannot_be_re_sent_alone(self):
        # Leaves 4 and 5 determine each other's leaf-level sibling, so
        # a received path holds None there; alone it is not a proof.
        received = ProofBundleMsg.decode(
            ref_bundle("t", [self.proof(4), self.proof(5)])
        )
        alone = plain_proofs(received.proofs[:1])
        assert alone[0][2][3][0] is None
        with pytest.raises(RefNoMultiproof, match="missing"):
            ref_bundle("t", alone)


class TestRejectionParityOnMutatedMessages:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_bundles(self, data):
        encoded = ref_bundle(data.draw(_task_ids), data.draw(_proof_runs()))
        bundle_parity(data.draw(_mutations(encoded)))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_submissions(self, data):
        encoded = ref_submission(
            data.draw(_task_ids),
            data.draw(st.binary(max_size=40)),
            data.draw(_uints),
            data.draw(_proof_runs()),
        )
        submission_parity(data.draw(_mutations(encoded)))

    @given(st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes(self, data):
        bundle_parity(data)
        submission_parity(data)


# ----------------------------------------------------------------------
# Real submissions, attacked
# ----------------------------------------------------------------------


def real_submission(n, m):
    task = TaskAssignment("task-7", RangeDomain(0, n), PasswordSearch())
    return NICBSParticipant(task, HonestBehavior(), n_samples=m).compute_and_submit()


@pytest.fixture(scope="module")
def heavy():
    """The ledger's proof-heavy shape: 512 leaves, 256 proofs."""
    msg = real_submission(512, 256)
    return msg, msg.encode()


@pytest.fixture(scope="module")
def light():
    msg = real_submission(64, 16)
    return msg, msg.encode()


class Layout:
    """Where each field of a submission's bundle starts (reference walk)."""

    def __init__(self, msg, raw):
        _task, pos = ref_read_text(raw, 0)
        _root, pos = ref_read_bytes(raw, pos)
        _n, self.count_at = ref_read_uint(raw, pos)
        count, self.n_leaves_at = ref_read_uint(raw, self.count_at)
        assert count == len(msg.proofs)
        _n, self.code_at = ref_read_uint(raw, self.n_leaves_at)
        _code, self.height_at = ref_read_uint(raw, self.code_at)
        self.height, pos = ref_read_uint(raw, self.height_at)
        self.indices_at = pos
        for _ in range(count):
            _index, pos = ref_read_uint(raw, pos)
        self.results_at = pos  # the results count; items follow
        self.results, self.digests_at = ref_read_bytes_list(raw, pos)
        self.digests, end = ref_read_bytes_list(raw, self.digests_at)
        assert end == len(raw)

    def after(self, raw, at):
        """Offset just past the varint at ``at``."""
        return ref_read_uint(raw, at)[1]


def replace_uint(raw, layout, at, value):
    return raw[:at] + ref_uint(value) + raw[layout.after(raw, at) :]


class TestRealSubmissionsAgainstReference:
    def test_encodings_equal(self, heavy, light):
        for msg, raw in (heavy, light):
            plain = plain_proofs(msg.proofs)
            assert raw == ref_submission(*plain_submission(msg))
            assert_round_trip(plain, NICBSSubmissionMsg.decode(raw), raw)
            encoded = ProofBundleMsg(msg.task_id, msg.bundle).encode()
            assert encoded == ref_bundle(msg.task_id, plain)
            assert_round_trip(plain, ProofBundleMsg.decode(encoded), encoded)
            # Against the per-path form: m·H digests there, only the
            # undetermined ones here.
            m, height = len(plain), len(plain[0][2][3])
            assert per_path_digest_count(plain) == m * height
            assert len(Layout(msg, raw).digests) < m * height
            assert len(ref_multiproof(plain)) < len(ref_per_path_proofs(plain))

    def test_the_256_proof_submission_against_its_per_path_form(self, heavy):
        # The numbers the ledger's proof-heavy workload ships: 2 304
        # sibling digests as independent paths (82 362 bytes, the whole
        # message at wire v6), 188 once each sample stops repeating what
        # the others determine.
        msg, raw = heavy
        plain = plain_proofs(msg.proofs)
        layout = Layout(msg, raw)
        assert per_path_digest_count(plain) == 256 * 9 == 2304
        head = len(raw) - len(ref_multiproof(plain))
        assert head + len(ref_per_path_proofs(plain)) == 82_362
        assert len(layout.results) == len({p.index for p in msg.proofs})
        assert (len(layout.digests), len(raw)) == (188, 10_247)

    def test_every_truncation_of_a_real_submission(self, light):
        _msg, raw = light
        for cut in range(len(raw)):
            assert outcome(
                NICBSSubmissionMsg.decode, raw[:cut], CodecError, ProofShapeError
            ) == ("codec", None)
            submission_parity(raw[:cut])

    def test_truncations_of_the_256_proof_bundle(self, heavy):
        # Every cut costs a decode of everything before it (and the
        # reference is slow on purpose), so: every cut through the
        # header, the indices and the first results, the three cuts
        # around each list boundary, every cut through the last two
        # digests, and a sweep whose stride is coprime to every field
        # width.
        msg, raw = heavy
        layout = Layout(msg, raw)
        cuts = set(range(layout.results_at + 60))
        cuts.update(range(len(raw) - 70, len(raw)))
        for at in (layout.results_at, layout.digests_at):
            cuts.update((at - 1, at, at + 1, at + 2))
        cuts.update(range(0, len(raw), 97))
        for cut in sorted(cuts):
            submission_parity(raw[:cut])
        bundle_raw = ProofBundleMsg(msg.task_id, msg.bundle).encode()
        for cut in range(0, len(bundle_raw), 397):
            bundle_parity(bundle_raw[:cut])

    def test_one_flipped_length_prefix_inside_a_uniform_run(self, heavy):
        msg, raw = heavy
        layout = Layout(msg, raw)
        runs = (
            (layout.after(raw, layout.results_at), 16, len(layout.results)),
            (layout.after(raw, layout.digests_at), 32, len(layout.digests)),
        )
        for start, size, count in runs:
            for item in (0, 1, count // 2, count - 1):
                at = start + (size + 1) * item
                assert raw[at] == size
                for byte in (0x00, 0x01, 0x1F, 0x21, 0x7F, 0x80, 0xA0, 0xFF):
                    hostile = raw[:at] + bytes([byte]) + raw[at + 1 :]
                    submission_parity(hostile)

    def test_lying_counts(self, heavy, light):
        for msg, raw in (heavy, light):
            layout = Layout(msg, raw)
            m, height = len(msg.proofs), layout.height
            lies = {
                layout.count_at: (0, 1, m - 1, m + 1, 1 << 20, 1 << 62),
                layout.height_at: (0, 1, height - 1, height + 1, 64, 65, 1 << 30),
                layout.results_at: (
                    0, len(layout.results) - 1, len(layout.results) + 1, 1 << 62,
                ),
                layout.digests_at: (
                    0, len(layout.digests) - 1, len(layout.digests) + 1, 1 << 62,
                ),
            }
            for at, values in lies.items():
                for lie in values:
                    hostile = replace_uint(raw, layout, at, lie)
                    submission_parity(hostile)
                    # A shorter height can be a well-formed bundle of
                    # another tree (the verifier's business, not the
                    # decoder's); every other lie is malformed bytes.
                    if at != layout.height_at or lie > height:
                        assert outcome(
                            NICBSSubmissionMsg.decode, hostile, CodecError, ()
                        ) == ("codec", None)

    def test_surplus_and_missing_supplied_digests(self, light):
        # Well-formed lists of the wrong length: the geometry of the
        # sample indices, not the count on the wire, says how many
        # digests a bundle supplies.
        msg, raw = light
        layout = Layout(msg, raw)
        head = raw[: layout.digests_at]
        for digests in (
            layout.digests + [b"\xaa" * 32],
            layout.digests[:-1],
            layout.digests[1:],
            [],
        ):
            hostile = head + ref_bytes_list(digests)
            assert outcome(
                NICBSSubmissionMsg.decode, hostile, CodecError, ()
            ) == ("codec", None)
            submission_parity(hostile)

    def test_claimed_results_count_is_the_distinct_leaves(self, light):
        msg, raw = light
        layout = Layout(msg, raw)
        assert len(layout.results) < len(msg.proofs)  # a repeated sample
        head, tail = raw[: layout.results_at], raw[layout.digests_at :]
        for results in (
            layout.results[:-1],
            layout.results + [b"\x00" * 16],
            [proof.claimed_result for proof in msg.proofs],  # one per sample
        ):
            hostile = head + ref_bytes_list(results) + tail
            assert outcome(
                NICBSSubmissionMsg.decode, hostile, CodecError, ()
            ) == ("codec", None)
            submission_parity(hostile)

    def test_sibling_slot_amplification_is_refused_before_allocation(self, light):
        # 40 000 one-byte indices under a height of 64 claim 2.56M
        # sibling slots — 64x what the bytes could justify.  Refused on
        # the header, with the indices unread.
        msg, raw = light
        layout = Layout(msg, raw)
        head = raw[: layout.count_at]
        for count, height, body in (
            (40_000, 64, b"\x00" * 40_000),
            (1 << 15, 64, b"\x00" * (1 << 15)),
            (1 << 15, 65, b"\x00" * (1 << 15)),
            (2, 1 << 40, b"\x00\x01"),
            (1 << 62, 6, b"\x00" * 64),
        ):
            hostile = (
                head + ref_uint(count) + ref_uint(64) + b"\x00" + ref_uint(height)
                + body + b"\x00\x00"
            )
            assert outcome(
                NICBSSubmissionMsg.decode, hostile, CodecError, ()
            ) == ("codec", None)
            submission_parity(hostile)
        # Just inside every bound the same shape decodes: 2^15 samples
        # of leaf 0 under height 64 supply one digest per level.
        inside = (
            head + ref_uint(1 << 15) + ref_uint(0) + b"\x00" + ref_uint(64)
            + b"\x00" * (1 << 15)
            + ref_bytes_list([b"r"]) + ref_bytes_list([b"\x11" * 4] * 64)
        )
        decoded = NICBSSubmissionMsg.decode(inside)
        assert len(decoded.proofs) == 1 << 15
        assert len({id(proof) for proof in decoded.proofs}) == 1

    def test_overlong_varints(self, light):
        # The same value in a longer, non-canonical form is off the
        # single-byte path; it decodes as it always has, up to the
        # eleven-byte bound.
        msg, raw = light
        layout = Layout(msg, raw)
        at = layout.after(raw, layout.digests_at) + 33 * 3
        assert raw[at] == 32
        for padding in (1, 2, 9, 10, 11):
            overlong = b"\xa0" + b"\x80" * (padding - 1) + b"\x00"
            submission_parity(raw[:at] + overlong + raw[at + 1 :])
        # An overlong sample count, height and digest count.
        for at in (layout.count_at, layout.height_at, layout.digests_at):
            assert raw[at] < 0x80
            submission_parity(
                raw[:at] + bytes([0x80 | raw[at], 0x00]) + raw[at + 1 :]
            )

    def test_trailing_bytes(self, heavy, light):
        for _msg, raw in (heavy, light):
            for tail in (b"\x00", b"\x20" + b"\xaa" * 32, raw[-40:]):
                submission_parity(raw + tail)

    def test_path_index_outside_its_tree_is_a_shape_error(self, light):
        # A sample index >= the bundle's n_leaves inside an otherwise
        # perfect bundle: the path's own shape check, after the bytes
        # parsed cleanly.
        msg, raw = light
        layout = Layout(msg, raw)
        top = max(proof.index for proof in msg.proofs)
        for n_leaves in (top, 1):
            hostile = replace_uint(raw, layout, layout.n_leaves_at, n_leaves)
            assert outcome(
                NICBSSubmissionMsg.decode, hostile, CodecError, ProofShapeError
            ) == ("shape", None)
            submission_parity(hostile)
        submission_parity(replace_uint(raw, layout, layout.n_leaves_at, top + 1))
        # n_leaves = 0 claims nothing, as on a path it never has.
        submission_parity(replace_uint(raw, layout, layout.n_leaves_at, 0))
