"""Tests for the hash registry, iterated hashes, cost counting and the
batched leaf-level primitive the tree is built from."""

import hashlib

import pytest

from repro.accounting import CostLedger
from repro.exceptions import MerkleError, ReproError
from repro.merkle.hashing import (
    CountingHash,
    HashFunction,
    IteratedHash,
    available_hashes,
    get_hash,
    register_hash,
)
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

    def test_register_custom(self):
        fn = HashFunction("testhash", lambda d: d[:4].ljust(4, b"\0"), 4)
        register_hash(fn)
        assert get_hash("testhash") is fn


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
    def test_digest_many_matches_loop(self, name):
        h = get_hash(name)
        assert h.digest_many(self.BLOBS) == [h.digest(b) for b in self.BLOBS]

    @pytest.mark.parametrize("name", ["sha256", "md5", "blake2b", "md5^3"])
    def test_tagged_digest_many_matches_loop(self, name):
        h = get_hash(name)
        assert h.tagged_digest_many(self.TAG, self.BLOBS) == [
            h.digest(self.TAG + b) for b in self.BLOBS
        ]

    @pytest.mark.parametrize("name", ["sha256", "md5", "blake2b", "md5^3"])
    def test_tagged_digest_pairs_matches_loop(self, name):
        h = get_hash(name)
        assert h.tagged_digest_pairs(self.TAG, self.LEVEL) == [
            h.digest(self.TAG + self.LEVEL[i] + self.LEVEL[i + 1])
            for i in range(0, len(self.LEVEL), 2)
        ]

    @pytest.mark.parametrize("name", ["sha256", "md5", "blake2b", "md5^3"])
    def test_digest_chain_matches_loop(self, name):
        plain = HashFunction("plainfn", get_hash(name).digest, 16)
        for h in (get_hash(name), plain):
            value, links = b"seed", []
            for _ in range(6):
                links.append(value := h.digest(value))
            assert h.digest_chain(b"seed", 6) == links
            assert h.digest_chain(b"seed", 0) == []

    def test_batched_accepts_iterators(self):
        h = get_hash("sha256")
        assert h.digest_many(iter(self.BLOBS)) == h.digest_many(self.BLOBS)

    def test_custom_hash_without_factory(self):
        # A registered custom hash has no hasher_factory; the batched
        # methods must fall back to the plain function, byte-identically.
        h = HashFunction("plainfn", lambda d: hashlib.sha1(d).digest(), 20)
        assert h.digest_many(self.BLOBS) == [h.digest(b) for b in self.BLOBS]
        assert h.tagged_digest_many(self.TAG, self.BLOBS) == [
            h.digest(self.TAG + b) for b in self.BLOBS
        ]

    def test_counting_hash_charges_match_loop(self):
        batched, looped = CostLedger(), CostLedger()
        h_batched = CountingHash(get_hash("md5^4"), batched)
        h_looped = CountingHash(get_hash("md5^4"), looped)
        assert h_batched.digest_many(self.BLOBS) == [
            h_looped.digest(b) for b in self.BLOBS
        ]
        assert batched.hashes == looped.hashes == len(self.BLOBS)
        assert batched.hash_cost == looped.hash_cost

    def test_counting_hash_tagged_pairs_charges(self):
        ledger = CostLedger()
        counted = CountingHash(get_hash("sha256"), ledger)
        counted.tagged_digest_pairs(self.TAG, self.LEVEL)
        assert ledger.hashes == len(self.LEVEL) // 2

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
        # The stdlib registry entries must dispatch through a bound
        # constructor, not a hashlib.new() string lookup per call.
        for name in ("sha256", "sha1", "md5", "sha512"):
            assert get_hash(name)._factory is getattr(hashlib, name)
        assert get_hash("blake2b")._factory is not None

    def test_empty_batches(self):
        h = get_hash("sha256")
        assert h.digest_many([]) == []
        assert h.tagged_digest_many(self.TAG, []) == []
        assert h.tagged_digest_pairs(self.TAG, []) == []


class TestHashFunctionValidation:
    def test_rejects_bad_digest_size(self):
        with pytest.raises(ReproError):
            HashFunction("bad", lambda d: d, 0)

    def test_rejects_negative_cost(self):
        with pytest.raises(ReproError):
            HashFunction("bad", lambda d: d, 4, cost=-1.0)

    def test_callable_interface(self):
        h = get_hash("sha256")
        assert h(b"x") == h.digest(b"x")


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
