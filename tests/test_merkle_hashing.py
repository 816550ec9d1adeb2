"""Tests for the hash registry, iterated hashes, cost counting and the
batched leaf-level primitive the tree is built from."""

import hashlib
from functools import partial

import pytest

from repro.accounting import CostLedger
from repro.exceptions import MerkleError, ReproError
from repro.merkle.hashing import (
    CountingHash,
    HashFunction,
    IteratedHash,
    _IteratedHasher,
    available_hashes,
    get_hash,
)
from repro.merkle.multiproof import supplied_nodes
from repro.merkle.tree import MerkleTree, empty_leaf_digest, hash_leaves


class TestRegistry:
    def test_default_is_sha256(self):
        h = get_hash()
        assert h.name == "sha256"
        assert h.digest_size == 32
        assert h.digest(b"abc") == hashlib.sha256(b"abc").digest()

    def test_md5_matches_stdlib(self):
        # The paper names MD5 explicitly (§3.1).
        h = get_hash("md5")
        assert h.digest_size == 16
        assert h.digest(b"grid") == hashlib.md5(b"grid").digest()

    def test_all_registered_hashes_usable(self):
        for name in available_hashes():
            h = get_hash(name)
            digest = h.digest(b"payload")
            assert len(digest) == h.digest_size

    def test_unknown_hash_rejected(self):
        with pytest.raises(ReproError, match="unknown hash"):
            get_hash("rot13")


class TestIteratedHash:
    def test_matches_manual_iteration(self):
        # g = (MD5)^k, the paper's Eq. 5 construction.
        g = IteratedHash(get_hash("md5"), rounds=7)
        expected = b"seed"
        for _ in range(7):
            expected = hashlib.md5(expected).digest()
        assert g.digest(b"seed") == expected

    def test_cost_scales_with_rounds(self):
        base = get_hash("md5")
        assert IteratedHash(base, 1000).cost == 1000 * base.cost

    def test_one_round_equals_base(self):
        base = get_hash("sha256")
        assert IteratedHash(base, 1).digest(b"x") == base.digest(b"x")

    def test_registry_caret_syntax(self):
        g = get_hash("md5^3")
        manual = IteratedHash(get_hash("md5"), 3)
        assert g.digest(b"v") == manual.digest(b"v")
        assert g.cost == 3.0

    def test_rejects_zero_rounds(self):
        with pytest.raises(ReproError):
            IteratedHash(get_hash("md5"), 0)


class TestCountingHash:
    def test_charges_per_invocation(self):
        ledger = CostLedger()
        counted = CountingHash(get_hash("sha256"), ledger)
        for _ in range(5):
            counted.digest(b"data")
        assert ledger.hashes == 5
        assert ledger.hash_cost == 5.0

    def test_iterated_cost_charged(self):
        ledger = CostLedger()
        counted = CountingHash(get_hash("md5^10"), ledger)
        counted.digest(b"data")
        assert ledger.hashes == 1
        assert ledger.hash_cost == 10.0

    def test_transparent_digests(self):
        ledger = CostLedger()
        inner = get_hash("sha256")
        counted = CountingHash(inner, ledger)
        assert counted.digest(b"zz") == inner.digest(b"zz")
        assert counted.digest_size == inner.digest_size


class TestBatchedDigests:
    """The batched hot-path methods must equal their per-digest loops."""

    BLOBS = [bytes([i]) * (i + 1) for i in range(9)] + [b""]
    LEVEL = [hashlib.sha256(bytes([i])).digest() for i in range(8)]
    TAG = b"\x00"

    @pytest.mark.parametrize("name", ["sha256", "md5", "blake2b", "md5^3"])
    def test_tagged_digest_many_matches_loop(self, name):
        h = get_hash(name)
        assert h.tagged_digest_many(self.TAG, self.BLOBS) == [
            h.digest(self.TAG + b) for b in self.BLOBS
        ]

    @pytest.mark.parametrize("name", ["sha256", "md5", "blake2b", "md5^3"])
    def test_digest_chain_matches_loop(self, name):
        h = get_hash(name)
        value, links = b"seed", []
        for _ in range(6):
            links.append(value := h.digest(value))
        assert h.digest_chain(b"seed", 6) == links
        assert h.digest_chain(b"seed", 0) == []

    def test_batched_accepts_iterators(self):
        h = get_hash("sha256")
        assert h.tagged_digest_many(self.TAG, iter(self.BLOBS)) == (
            h.tagged_digest_many(self.TAG, self.BLOBS)
        )

    def test_custom_hash_from_a_constructor(self):
        # A hash built outside the registry batches like the loop too.
        h = HashFunction("dime", hashlib.sha1, cost=0.1)
        assert (h.digest_size, h.cost) == (20, 0.1)
        assert h.tagged_digest_many(self.TAG, self.BLOBS) == [
            hashlib.sha1(self.TAG + b).digest() for b in self.BLOBS
        ]

    def test_counting_hash_charges_match_loop(self):
        batched, looped = CostLedger(), CostLedger()
        h_batched = CountingHash(get_hash("md5^4"), batched)
        h_looped = CountingHash(get_hash("md5^4"), looped)
        assert h_batched.tagged_digest_many(self.TAG, self.BLOBS) == [
            h_looped.digest(self.TAG + b) for b in self.BLOBS
        ]
        assert batched.hashes == looped.hashes == len(self.BLOBS)
        assert batched.hash_cost == looped.hash_cost

    def test_counting_hash_tagged_levels_charges(self):
        ledger = CostLedger()
        counted = CountingHash(get_hash("sha256"), ledger)
        counted.tagged_levels(self.TAG, self.LEVEL)
        assert ledger.hashes == len(self.LEVEL) - 1

    def test_counting_iterated_composition(self):
        # CountingHash over IteratedHash: batched path must produce the
        # same digests and the same charges as the per-digest path.
        ledger = CostLedger()
        counted = CountingHash(IteratedHash(get_hash("md5"), 5), ledger)
        out = counted.tagged_digest_many(self.TAG, self.BLOBS)
        assert out == [counted.digest(self.TAG + b) for b in self.BLOBS]
        assert ledger.hashes == 2 * len(self.BLOBS)
        assert ledger.hash_cost == 2 * len(self.BLOBS) * 5.0

    def test_registry_entries_carry_cached_factories(self):
        # The stdlib registry entries hash through a bound constructor,
        # not a hashlib.new() string lookup per call.
        for name in ("sha256", "sha1", "md5", "sha512"):
            assert get_hash(name).new is getattr(hashlib, name)
        assert get_hash("blake2b").digest_size == 32

    def test_empty_batches(self):
        h = get_hash("sha256")
        assert h.tagged_digest_many(self.TAG, []) == []
        assert h.tagged_levels(self.TAG, self.LEVEL[:1]) == []
        assert h.fold_path(self.TAG, self.LEVEL[0], 0, []) == self.LEVEL[0]


# ----------------------------------------------------------------------
# One protocol: every hash, bare and counted, through the same six
# methods, against an independent hashlib transcription
# ----------------------------------------------------------------------

PROTOCOL_NAMES = [*available_hashes(), "md5^3"]
TAG = b"\x01"
BLOBS = [bytes([i]) * (i % 5) + b"blob" for i in range(7)] + [b""]
LEVEL = [hashlib.sha256(bytes([i])).digest() for i in range(8)]
INDEX, LEAVES = 5, [1, 2, 6]
METHODS = [
    "digest", "tagged_digest_many", "tagged_levels",
    "tagged_fold", "fold_path", "digest_chain",
]


def reference(name):
    """``name``'s digest as plain ``hashlib`` calls, iterated for ``^k``."""
    base, _, rounds = name.partition("^")
    new = (
        partial(hashlib.blake2b, digest_size=32)
        if base == "blake2b" else getattr(hashlib, base)
    )

    def digest(data):
        for _ in range(int(rounds or 1)):
            data = new(data).digest()
        return data

    return digest


def tree_over(digest):
    """LEVEL and every level above it, each node one ``digest`` call."""
    levels = [LEVEL]
    while len(levels[-1]) > 1:
        row = levels[-1]
        levels.append(
            [digest(TAG + row[i] + row[i + 1]) for i in range(0, len(row), 2)]
        )
    return levels


def by_loop(method, digest, levels):
    """``method``'s answer as a loop of single ``digest`` calls, each
    node hashed once — the same calls the batched method charges."""
    if method == "digest":
        return digest(BLOBS[3])
    if method == "tagged_digest_many":
        return [digest(TAG + blob) for blob in BLOBS]
    if method == "tagged_levels":
        return tree_over(digest)[1:]
    if method == "tagged_fold":
        known = {leaf: LEVEL[leaf] for leaf in LEAVES}
        for level, row in enumerate(supplied_nodes(LEAVES, 3)):
            known.update((node, levels[level][node]) for node in row)
            known = {
                node >> 1: digest(TAG + known[node] + known[node + 1])
                for node in sorted(known)[::2]
            }
        return known[0]
    if method == "fold_path":
        node = LEVEL[INDEX]
        for level in range(3):
            sibling = levels[level][(INDEX >> level) ^ 1]
            pair = sibling + node if INDEX >> level & 1 else node + sibling
            node = digest(TAG + pair)
        return node
    value = b"seed"
    return [value := digest(value) for _ in range(5)]


def batched(method, h, levels):
    """``method`` called once on ``h`` with the loop's inputs."""
    if method == "digest":
        return h.digest(BLOBS[3])
    if method == "tagged_digest_many":
        return h.tagged_digest_many(TAG, BLOBS)
    if method == "tagged_levels":
        return h.tagged_levels(TAG, LEVEL)
    if method == "tagged_fold":
        nodes = supplied_nodes(LEAVES, 3)
        return h.tagged_fold(
            TAG,
            [(leaf, LEVEL[leaf]) for leaf in LEAVES],
            nodes,
            [levels[level][node] for level, row in enumerate(nodes) for node in row],
        )
    if method == "fold_path":
        siblings = [levels[level][(INDEX >> level) ^ 1] for level in range(3)]
        return h.fold_path(TAG, LEVEL[INDEX], INDEX, siblings)
    return h.digest_chain(b"seed", 5)


@pytest.mark.parametrize("counted", [False, True], ids=["bare", "counted"])
@pytest.mark.parametrize("name", PROTOCOL_NAMES)
class TestOneProtocol:
    @staticmethod
    def hash_of(name, counted):
        h = get_hash(name)
        return CountingHash(h, CostLedger()) if counted else h

    @pytest.mark.parametrize("method", METHODS)
    def test_each_method_equals_its_loop(self, name, counted, method):
        digest = reference(name)
        levels = tree_over(digest)
        h = self.hash_of(name, counted)
        assert batched(method, h, levels) == by_loop(method, digest, levels)

    def test_counted_books_equal_the_loops(self, name, counted):
        inner = self.hash_of(name, counted)
        levels = tree_over(reference(name))
        books, looped = CostLedger(), CostLedger()
        one_call = CountingHash(inner, books)
        one_digest = CountingHash(inner, looped)
        for method in METHODS:
            assert batched(method, one_call, levels) == by_loop(
                method, one_digest.digest, levels
            )
            # Bit for bit: the floats too.
            assert (books.hashes, books.hash_cost) == (
                looped.hashes, looped.hash_cost
            ), method

    def test_copies_are_independent(self, name, counted):
        h = self.hash_of(name, counted)
        hasher = h.new(b"ab")
        if "^" in name:
            assert isinstance(hasher, _IteratedHasher)
        copy = hasher.copy()
        copy.update(b"cd")
        assert hasher.digest() == reference(name)(b"ab")
        assert copy.digest() == reference(name)(b"abcd")
        assert hasher.digest_size == copy.digest_size == h.digest_size


class TestHashFunctionValidation:
    def test_rejects_negative_cost(self):
        with pytest.raises(ReproError):
            HashFunction("bad", hashlib.sha1, cost=-1.0)


class TestHashLeaves:
    SHA = get_hash("sha256")

    def test_matches_tree_leaf_level(self):
        payloads = [i.to_bytes(4, "big") for i in range(5)]
        tree = MerkleTree(payloads)
        digests = hash_leaves(payloads, self.SHA, n_padding=3)
        assert digests == [tree.phi(tree.height, i) for i in range(8)]

    def test_padding_uses_empty_leaf_digest(self):
        digests = hash_leaves([], self.SHA, n_padding=2)
        assert digests == [empty_leaf_digest(self.SHA)] * 2

    def test_negative_padding_rejected(self):
        with pytest.raises(MerkleError):
            hash_leaves([b"x"], self.SHA, n_padding=-1)
