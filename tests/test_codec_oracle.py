"""Differential tests: the proof codec against a naive reference.

The reference (``tests/proof_reference.py``) is deliberately slow and
straight-line — one byte at a time, no tables, no strided compares, no
shared helpers — and imports nothing from :mod:`repro.utils.encoding`,
:mod:`repro.core.protocol` or :mod:`repro.merkle.multiproof`, so it
cannot inherit their mistakes.  It decodes to plain tuples, not to the
library's classes, and it is built from the *per-path* form of SNIPPETS
snippet 1 (one sibling dict per level per sample): a bundle's multiproof
is every sample expanded to its own path, minus what the verifier works
out for itself — the samples, the tree, the leaf-level siblings (whose
results travel instead) and what another sample determines.  The
per-path encoder itself — the wire format until v7 — is kept as the
reference for the paper's ``m·H`` digest count.

The library never packs per-sample proofs: the reference's bytes are
what it decodes, and what it must encode back.  Two properties are
checked everywhere:

* **encodings are byte-equal**, and
* **rejection parity**: on any bytes, hostile or not, the library's
  decoder raises ``CodecError`` exactly where the reference raises
  :class:`RefCodec`, and returns an equal value everywhere else.

Bytes that decode are the verifier's: hostile ones end in a rejected
verdict, never in another exception.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proof_reference import (
    RefCodec,
    RefNoMultiproof,
    per_path_digest_count,
    plain_proofs,
    ref_bundle,
    ref_bytes_list,
    ref_decode_bundle,
    ref_decode_submission,
    ref_fixed_list,
    ref_multiproof,
    ref_per_path_proofs,
    ref_read_bytes,
    ref_read_bytes_list,
    ref_read_fixed_list,
    ref_read_text,
    ref_read_uint,
    ref_shape,
    ref_submission,
    ref_uint,
)
from repro.cheating import HonestBehavior
from repro.core.ni_cbs import NICBSParticipant, NICBSSupervisor
from repro.core.protocol import NICBSSubmissionMsg, ProofBundleMsg
from repro.core.scheme import RejectReason
from repro.exceptions import CodecError, ProtocolError
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment
from repro.utils.encoding import (
    encode_bytes_list,
    encode_fixed_list,
    encode_uint,
    read_bytes_list,
    read_fixed_list,
    read_uint,
)

# ----------------------------------------------------------------------
# Library values as the reference's plain tuples, and parity itself
# ----------------------------------------------------------------------


def plain_multiproof(bundle):
    return list(bundle.results), list(bundle.digests)


def plain_bundle(msg):
    return msg.task_id, plain_multiproof(msg.bundle)


def plain_submission(msg):
    return msg.task_id, msg.root, msg.n_leaves, plain_multiproof(msg.bundle)


def outcome(decode, data, codec_error):
    try:
        return "ok", decode(data)
    except codec_error:
        return "codec", None


def assert_parity(data, fast, plain, ref):
    """``fast`` and ``ref`` agree on ``data``: same rejection or equal
    values."""
    got_kind, got = outcome(fast, data, CodecError)
    want = outcome(ref, data, RefCodec)
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

# Item sizes either side of the one-byte length prefix's limit, and
# the nonzero ones a fixed-width list can carry.
_item_sizes = st.one_of(
    st.integers(min_value=0, max_value=40), st.sampled_from([126, 127, 128, 129])
)
_widths = _item_sizes.filter(bool)


@st.composite
def _uniform_items(draw, max_count=12, sizes=_item_sizes):
    size = draw(sizes)
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

#: How a run's samples sit in its tree: anywhere, all on one leaf, on
#: both leaves of one pair, on the last real leaf (whose partner is
#: padding when it is even), or on the one leaf of a one-leaf tree.
_SHAPES = ["any", "any", "any", "one-leaf", "one-pair", "last-leaf", "one-leaf-tree"]


@st.composite
def _proof_runs(draw, min_samples=0, max_samples=6):
    """A run of plain proofs cut from one tree — one height, one leaf
    count, one encoding, one digest per node, one result per leaf —
    and the committed results of the touched pairs' other leaves:
    ``(proofs, results_at)``.  Samples may repeat, cluster under one
    subtree or sit 2^35 leaves apart."""
    count = draw(st.integers(min_value=min_samples, max_value=max_samples))
    shape = draw(st.sampled_from(_SHAPES))
    height = 0 if shape == "one-leaf-tree" else draw(st.integers(0, 5))
    near = st.integers(min_value=0, max_value=(1 << height) - 1)
    pool = draw(
        st.lists(st.one_of(near, near, _uints), min_size=1, max_size=4)
    )
    if shape in ("one-leaf", "one-leaf-tree"):
        pool = [0] if shape == "one-leaf-tree" else pool[:1]
    elif shape == "one-pair":
        pool = [pool[0] & ~1, pool[0] | 1]
    indices = [draw(st.sampled_from(pool)) for _ in range(count)]
    if shape in ("last-leaf", "one-leaf-tree"):
        n_leaves = max(pool) + 1
    else:
        n_leaves = draw(_uints.map(lambda v: v + max(pool) + 1))
    code = int(draw(st.booleans()))  # 1: RAW leaves
    size, result_size = draw(_widths), draw(_widths)
    digest_at, result_at = {}, {}

    def digest(level, node):
        if (level, node) not in digest_at:
            digest_at[level, node] = draw(st.binary(min_size=size, max_size=size))
        return digest_at[level, node]

    def result(leaf):
        if leaf not in result_at:
            result_at[leaf] = draw(
                st.binary(min_size=result_size, max_size=result_size)
            )
        return result_at[leaf]

    proofs = []
    for index in indices:
        siblings = [digest(level, (index >> level) ^ 1) for level in range(height)]
        proofs.append((index, result(index), (index, n_leaves, code, siblings)))
    for leaf in ref_shape(indices, n_leaves, height)[0]:
        result(leaf)
    return proofs, result_at


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
# Fixed-width lists: the two halves of a bundle
# ----------------------------------------------------------------------


class TestFixedListAgainstReference:
    @given(_uniform_items(sizes=_widths))
    def test_encodings_equal_and_round_trip(self, items):
        encoded = encode_fixed_list(items)
        assert encoded == ref_fixed_list(items)
        assert read_fixed_list(b"\x07" + encoded, 1) == (items, 1 + len(encoded))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_decode_parity_on_mutated_lists(self, data):
        items = data.draw(_uniform_items(sizes=_widths))
        hostile = data.draw(_mutations(ref_fixed_list(items)))
        assert_parity(
            hostile,
            read_fixed_list,
            lambda got: got,
            lambda d: ref_read_fixed_list(d, 0),
        )

    def test_what_has_no_fixed_width_is_not_encoded(self):
        for items in ([b"ab", b"c"], [b"", b""], [b""]):
            with pytest.raises(CodecError):
                encode_fixed_list(items)
            with pytest.raises(RefNoMultiproof):
                ref_fixed_list(items)

    def test_lying_count_or_width_does_not_size_a_buffer(self):
        # count × width past the bytes left, and a zero width under a
        # huge count (which no bytes bound): refused before anything
        # is sliced.
        for count, width in ((1 << 62, 32), (5, 1 << 62), (1 << 62, 0), (4, 9)):
            hostile = ref_uint(count) + ref_uint(width) + b"\xaa" * 32
            assert outcome(read_fixed_list, hostile, CodecError) == ("codec", None)
            assert_parity(
                hostile,
                read_fixed_list,
                lambda got: got,
                lambda d: ref_read_fixed_list(d, 0),
            )


# ----------------------------------------------------------------------
# Bundles: the per-path form, the multiproof, the two bundle messages
# ----------------------------------------------------------------------


def assert_round_trip(decoded, encoded):
    """The library encodes what it decoded back to the same bytes."""
    assert decoded.encode() == encoded


class TestStructuredEncodingsAgainstReference:
    @given(_proof_runs(min_samples=1, max_samples=1))
    def test_auth_path(self, run):
        # One sample: nothing is derivable above the leaves, so the
        # multiproof supplies the path's digests from level 1 up, in the
        # path's order, and the results of the sample's pair.
        ((index, claimed, path),), results_at = run
        _leaf, n_leaves, _code, siblings = path
        real, needed = ref_shape([index], n_leaves, len(siblings))
        assert [len(nodes) for nodes in needed] == [0] + [1] * (len(siblings) - 1) or (
            not siblings and needed == []
        )
        assert index in real and len(real) <= 2
        encoded = ProofBundleMsg.decode(ref_bundle("", *run)).encode()
        assert encoded.endswith(ref_fixed_list(siblings[1:]))
        assert plain_bundle(ProofBundleMsg.decode(encoded))[1][0] == [
            claimed if leaf == index else results_at[leaf] for leaf in real
        ]

    @given(_proof_runs(min_samples=1, max_samples=1))
    def test_sample_proof(self, run):
        # A one-sample bundle is a multiproof of one.
        encoded = ref_bundle("t", *run)
        decoded = ProofBundleMsg.decode(encoded)
        assert plain_bundle(decoded) == ref_decode_bundle(encoded)
        assert_round_trip(decoded, encoded)
        bundle_parity(encoded)

    @given(_task_ids, _proof_runs())
    @settings(max_examples=100, deadline=None)
    def test_proof_bundle(self, task_id, run):
        encoded = ref_bundle(task_id, *run)
        assert_round_trip(ProofBundleMsg.decode(encoded), encoded)
        bundle_parity(encoded)
        # Never more digests than the independent paths ship, nor more
        # results than two per distinct sample.
        proofs, _results_at = run
        if proofs:
            leaves = [proof[0] for proof in proofs]
            real, needed = ref_shape(leaves, proofs[0][2][1], len(proofs[0][2][3]))
            assert sum(map(len, needed)) <= per_path_digest_count(proofs)
            assert len(real) <= 2 * len(set(leaves))

    @given(_task_ids, st.binary(max_size=40), _uints, _proof_runs())
    @settings(max_examples=100, deadline=None)
    def test_nicbs_submission(self, task_id, root, n_leaves, run):
        encoded = ref_submission(task_id, root, n_leaves, *run)
        decoded = NICBSSubmissionMsg.decode(encoded)
        assert (decoded.task_id, decoded.root, decoded.n_leaves) == (
            task_id, root, n_leaves
        )
        assert_round_trip(decoded, encoded)
        submission_parity(encoded)

    def test_empty_sibling_list(self):
        # Height 0: the one leaf is the root, no pair, no digests, any
        # number of samples.
        proofs = [(0, b"r", (0, 1, 0, []))] * 3
        encoded = ref_bundle("t", proofs, {})
        assert encoded == b"\x01t" + bytes([1, 1]) + b"r" + b"\x00"
        assert_round_trip(ProofBundleMsg.decode(encoded), encoded)
        bundle_parity(encoded)
        # ... and no samples at all is two empty lists.
        assert ref_bundle("t", [], {}) == b"\x01t\x00\x00"
        assert ProofBundleMsg.decode(b"\x01t\x00\x00").encode() == b"\x01t\x00\x00"
        bundle_parity(b"\x01t\x00\x00")

    def test_a_padding_partner_does_not_travel(self):
        # Leaf 4 of a 5-leaf tree: its partner, leaf 5, is padding.
        proofs = [(4, b"r4", (4, 5, 0, [b"\x11" * 4, b"\x22" * 4, b"\x33" * 4]))]
        encoded = ref_multiproof(proofs, {})
        assert encoded == bytes([1, 2]) + b"r4" + bytes([2, 4]) + b"\x22" * 4 + b"\x33" * 4
        bundle_parity(b"\x01t" + encoded)


class TestEncoderRefusesWhatOneHeaderCannotSay:
    """One bundle is one tree, though it no longer carries a header
    saying which.  A :class:`Multiproof` is one tree's by construction;
    the reference encoder, which takes a path per sample, raises rather
    than emit bytes that would decode to something else."""

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
        results_at = {0: b"r", 4: b"r"}
        with pytest.raises(RefNoMultiproof):
            ref_bundle("t", proofs, results_at)
        with pytest.raises(RefNoMultiproof):
            ref_submission("t", b"root", 8, proofs[::-1], results_at)

    def test_path_for_another_leaf_than_its_sample(self):
        _index, result, path = self.proof(5)
        with pytest.raises(RefNoMultiproof):
            ref_bundle("t", [(4, result, path)], {5: b"r"})

    def test_results_of_unequal_width(self):
        with pytest.raises(RefNoMultiproof):
            ref_bundle("t", [self.proof(4, result=b"rr")], {5: b"r"})


class TestRejectionParityOnMutatedMessages:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_bundles(self, data):
        encoded = ref_bundle(data.draw(_task_ids), *data.draw(_proof_runs()))
        bundle_parity(data.draw(_mutations(encoded)))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_submissions(self, data):
        encoded = ref_submission(
            data.draw(_task_ids),
            data.draw(st.binary(max_size=40)),
            data.draw(_uints),
            *data.draw(_proof_runs()),
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
    """``(msg, bytes, committed results, task)`` of one honest NI-CBS
    participant."""
    task = TaskAssignment("task-7", RangeDomain(0, n), PasswordSearch())
    participant = NICBSParticipant(task, HonestBehavior(), n_samples=m)
    msg = participant.compute_and_submit()
    return msg, msg.encode(), participant.work.leaf_payloads, task


@pytest.fixture(scope="module")
def heavy():
    """The ledger's proof-heavy shape: 512 leaves, 256 samples."""
    return real_submission(512, 256)


@pytest.fixture(scope="module")
def light():
    return real_submission(64, 16)


class Layout:
    """Where each field of a submission's bundle starts (reference walk)."""

    def __init__(self, raw):
        _task, pos = ref_read_text(raw, 0)
        _root, pos = ref_read_bytes(raw, pos)
        _n, self.results_at = ref_read_uint(raw, pos)
        self.results, self.digests_at = ref_read_fixed_list(raw, self.results_at)
        self.digests, end = ref_read_fixed_list(raw, self.digests_at)
        assert end == len(raw)

    def after(self, raw, at):
        """Offset just past the varint at ``at``."""
        return ref_read_uint(raw, at)[1]


def replace_uint(raw, layout, at, value):
    return raw[:at] + ref_uint(value) + raw[layout.after(raw, at) :]


def assert_misfit(raw, task, m):
    """Bytes that decode to lists that do not fit Eq. 4's samples: a
    malformed bundle, rejected with nothing evaluated and no hash
    beyond Eq. 4's chain."""
    supervisor = NICBSSupervisor(task, n_samples=m)
    outcome = supervisor.verify(NICBSSubmissionMsg.decode(raw))
    assert outcome.reason is RejectReason.MALFORMED_PROOF
    assert (supervisor.ledger.verifications, supervisor.ledger.hashes) == (0, m)


def assert_refused(raw, task, m):
    """Hostile bytes end in a ``CodecError`` at decode, a
    ``ProtocolError`` at the envelope (another root width or leaf
    count) or a rejected verdict — never in another exception."""
    try:
        msg = NICBSSubmissionMsg.decode(raw)
    except CodecError:
        return "codec"
    try:
        outcome = NICBSSupervisor(task, n_samples=m).verify(msg)
    except ProtocolError:
        return "envelope"
    assert not outcome.accepted, raw.hex()
    return outcome.reason


class TestRealSubmissionsAgainstReference:
    def test_encodings_equal(self, heavy, light):
        for msg, raw, payloads, _task in (heavy, light):
            plain = plain_proofs(msg.proofs)
            assert raw == ref_submission(
                msg.task_id, msg.root, msg.n_leaves, plain, payloads
            )
            assert_round_trip(NICBSSubmissionMsg.decode(raw), raw)
            encoded = ProofBundleMsg(msg.task_id, msg.bundle).encode()
            assert encoded == ref_bundle(msg.task_id, plain, payloads)
            assert_round_trip(ProofBundleMsg.decode(encoded), encoded)
            # Against the per-path form: m·H digests there, only the
            # undetermined ones above the leaves here.
            m, height = len(plain), len(plain[0][2][3])
            assert per_path_digest_count(plain) == m * height
            assert len(Layout(raw).digests) < m * height
            assert len(ref_multiproof(plain, payloads)) < len(ref_per_path_proofs(plain))

    def test_the_256_proof_submission_against_its_per_path_form(self, heavy):
        # The numbers the ledger's proof-heavy workload ships: 2 304
        # sibling digests as independent paths (82 362 bytes, the whole
        # message at wire v6); once each sample stops repeating what
        # the others determine and the leaf-level siblings travel as
        # results: 208 distinct leaves touch 157 pairs, whose 314
        # results travel with 82 digests (188 and 10 247 bytes at v10).
        msg, raw, payloads, _task = heavy
        plain = plain_proofs(msg.proofs)
        layout = Layout(raw)
        assert per_path_digest_count(plain) == 256 * 9 == 2304
        head = len(raw) - len(ref_multiproof(plain, payloads))
        assert head + len(ref_per_path_proofs(plain)) == 82_362
        assert len({p.index for p in msg.proofs}) == 208
        assert (len(layout.results), len(layout.digests), len(raw)) == (
            314, 82, 7_695
        )

    def test_every_truncation_of_a_real_submission(self, light):
        _msg, raw, _payloads, _task = light
        for cut in range(len(raw)):
            assert outcome(NICBSSubmissionMsg.decode, raw[:cut], CodecError) == (
                "codec", None
            )
            submission_parity(raw[:cut])

    def test_truncations_of_the_256_proof_bundle(self, heavy):
        # Every cut costs a decode of everything before it (and the
        # reference is slow on purpose), so: every cut through the
        # head and the first results, the three cuts around each list
        # boundary, every cut through the last two digests, and a
        # sweep whose stride is coprime to every field width.
        msg, raw, _payloads, _task = heavy
        layout = Layout(raw)
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

    def test_every_truncation_and_bit_flip_of_the_256_proof_submission(self, heavy):
        # Each ends in a CodecError at decode or a rejected verdict:
        # every truncation is short of what its counts claim, and a
        # flipped bit changes the root, n, a count, a width, a result
        # or a digest.  (A flipped task id names another session, which
        # the session layer refuses before any verifier runs.)  A flip
        # inside a result or digest decodes to the same lists but that
        # one item, which the verifier reads whole, so one flip per item
        # is verified (a verification costs ~2 ms) and every other one
        # is checked to decode to that shape.
        msg, raw, _payloads, task = heavy
        for cut in range(len(raw)):
            assert assert_refused(raw[:cut], task, 256) == "codec"
        layout = Layout(raw)
        lists = (list(msg.bundle.results), list(msg.bundle.digests))
        items = {}  # byte offset -> (list, item, offset in the item)
        for which, at in enumerate((layout.results_at, layout.digests_at)):
            start = layout.after(raw, layout.after(raw, at))
            width = len(lists[which][0])
            for item in range(len(lists[which])):
                for offset in range(width):
                    items[start + item * width + offset] = (which, item, offset)
        reasons = set()
        for at in range(1 + len(msg.task_id), len(raw)):
            for bit in range(8):
                hostile = raw[:at] + bytes([raw[at] ^ 1 << bit]) + raw[at + 1 :]
                if at in items and (items[at][2], bit) != (0, 0):
                    which, item, _offset = items[at]
                    decoded = plain_multiproof(NICBSSubmissionMsg.decode(hostile).bundle)
                    assert decoded[1 - which] == lists[1 - which]
                    changed = [k for k, (a, b) in enumerate(
                        zip(decoded[which], lists[which])) if a != b]
                    assert changed == [item]
                    continue
                reasons.add(assert_refused(hostile, task, 256))
        assert reasons == {
            "codec",
            "envelope",
            RejectReason.MALFORMED_PROOF,
            RejectReason.WRONG_RESULT,
            RejectReason.ROOT_MISMATCH,
        }

    def test_one_flipped_length_prefix_inside_a_uniform_run(self, heavy, light):
        # A run's one length prefix is its width: one off either way
        # shifts every item after the first.
        for msg, raw, _payloads, task in (heavy, light):
            layout = Layout(raw)
            for at, width in (
                (layout.after(raw, layout.results_at), 16),
                (layout.after(raw, layout.digests_at), 32),
            ):
                assert raw[at] == width
                for lie in (width - 1, width + 1):
                    hostile = raw[:at] + bytes([lie]) + raw[at + 1 :]
                    submission_parity(hostile)
                    assert_refused(hostile, task, len(msg.proofs))

    def test_lying_counts(self, heavy, light):
        # One short, one long, zero, and a count × width far past the
        # bytes left: malformed bytes, or — where the lists still parse
        # — a bundle for other samples than Eq. 4's.
        for msg, raw, _payloads, task in (heavy, light):
            layout = Layout(raw)
            lies = {
                layout.results_at: len(layout.results),
                layout.digests_at: len(layout.digests),
            }
            for at, count in lies.items():
                for lie in (0, count - 1, count + 1, 1 << 62):
                    hostile = replace_uint(raw, layout, at, lie)
                    submission_parity(hostile)
                    assert assert_refused(hostile, task, len(msg.proofs)) in (
                        "codec", RejectReason.MALFORMED_PROOF,
                    )

    def test_surplus_and_missing_supplied_digests(self, light):
        # Well-formed lists of the wrong length decode: the samples'
        # geometry, not the count on the wire, says how many digests a
        # bundle supplies, and the verifier refuses them unhashed.
        msg, raw, _payloads, task = light
        layout = Layout(raw)
        head = raw[: layout.digests_at]
        for digests in (
            layout.digests + [b"\xaa" * 32],
            layout.digests[:-1],
            layout.digests[1:],
            [],
        ):
            hostile = head + ref_fixed_list(digests)
            submission_parity(hostile)
            assert_misfit(hostile, task, len(msg.proofs))

    def test_claimed_results_count_is_the_touched_pairs_leaves(self, light):
        # Both leaves of every pair a sample touches, not one result per
        # sample or per distinct sample.
        msg, raw, _payloads, task = light
        layout = Layout(raw)
        leaves = {proof.index for proof in msg.proofs}
        assert len(leaves) < len(msg.proofs)  # a repeated sample
        assert len(layout.results) == len({leaf ^ side for leaf in leaves for side in (0, 1)})
        head, tail = raw[: layout.results_at], raw[layout.digests_at :]
        for results in (
            layout.results[:-1],
            layout.results + [b"\x00" * 16],
            [proof.claimed_result for proof in msg.proofs],  # one per sample
            [msg.bundle.results[0]] * len(leaves),  # one per distinct leaf
        ):
            hostile = head + ref_fixed_list(results) + tail
            submission_parity(hostile)
            assert_misfit(hostile, task, len(msg.proofs))

    def test_sibling_slot_amplification_is_refused_before_allocation(self, light):
        # A count that the bytes left cannot hold — 2^62 one-byte
        # results, 40 000 digests of 64 bytes, a zero width under a
        # huge count — is refused before any item is sliced.
        msg, raw, _payloads, _task = light
        layout = Layout(raw)
        for at, count, width in (
            (layout.results_at, 1 << 62, 1),
            (layout.results_at, 1 << 40, 0),
            (layout.digests_at, 40_000, 64),
            (layout.digests_at, 2, 1 << 40),
        ):
            hostile = raw[:at] + ref_uint(count) + ref_uint(width) + b"\x00" * 64
            assert outcome(NICBSSubmissionMsg.decode, hostile, CodecError) == (
                "codec", None
            )
            submission_parity(hostile)

    def test_overlong_varints(self, light):
        # The same value in a longer, non-canonical form is off the
        # canonical path; it decodes as it always has, up to the
        # eleven-byte bound.
        msg, raw, _payloads, _task = light
        layout = Layout(raw)
        for at in (
            layout.results_at,
            layout.after(raw, layout.results_at),
            layout.digests_at,
            layout.after(raw, layout.digests_at),
        ):
            assert raw[at] < 0x80
            for padding in (1, 2, 9, 10, 11):
                overlong = bytes([0x80 | raw[at]]) + b"\x80" * (padding - 1) + b"\x00"
                submission_parity(raw[:at] + overlong + raw[at + 1 :])

    def test_trailing_bytes(self, heavy, light):
        for _msg, raw, _payloads, _task in (heavy, light):
            for tail in (b"\x00", b"\x20" + b"\xaa" * 32, raw[-40:]):
                submission_parity(raw + tail)
                assert outcome(
                    NICBSSubmissionMsg.decode, raw + tail, CodecError
                ) == ("codec", None)
