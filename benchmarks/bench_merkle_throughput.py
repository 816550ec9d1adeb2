"""E8 — Merkle substrate performance and the O(log n) proof-size table.

Wall-clock benchmarks for the three hot paths of CBS — tree build,
proof generation, proof verification — plus the proof-size table
backing §3.1's "the communication cost of this process is proportional
to the height of the tree".
"""

import time

import pytest

import _perf
from repro.analysis import format_table
from repro.merkle import MerkleTree, StreamingMerkleBuilder, get_hash
from repro.tasks import PasswordSearch
from repro.utils.encoding import encode_uint

FN = PasswordSearch()


def payloads(n: int) -> list[bytes]:
    return [FN.evaluate(i) for i in range(n)]


@pytest.fixture(scope="module")
def leaves_4k():
    return payloads(4096)


@pytest.fixture(scope="module")
def tree_4k(leaves_4k):
    return MerkleTree(leaves_4k)


def test_tree_build_4k(benchmark, leaves_4k):
    benchmark(lambda: MerkleTree(leaves_4k).root)


def test_streaming_build_4k(benchmark, leaves_4k):
    def build():
        builder = StreamingMerkleBuilder()
        builder.add_leaves(leaves_4k)
        return builder.finalize()

    benchmark(build)


def test_proof_generation_4k(benchmark, tree_4k):
    counter = iter(range(10**9))
    benchmark(lambda: tree_4k.auth_path(next(counter) % 4096))


def test_proof_verification_4k(benchmark, tree_4k, leaves_4k):
    path = tree_4k.auth_path(1234)
    root = tree_4k.root
    hash_fn = tree_4k.hash_fn

    def verify():
        assert path.verify(leaves_4k[1234], root, hash_fn)

    benchmark(verify)


def test_proof_size_table(benchmark, save_table):
    def measure():
        rows = []
        for exp in (8, 10, 12, 14, 16):
            n = 1 << exp
            tree = MerkleTree(payloads(n))
            # One independent path as the paper ships it (the per-path
            # reference form): leaf index, leaf count, encoding code,
            # sibling count, then a length byte and a digest per level.
            path = tree.auth_path(0)
            digest_size = tree.hash_fn.digest_size
            size = (
                len(encode_uint(path.leaf_index))
                + len(encode_uint(path.n_leaves))
                + 1
                + len(encode_uint(path.height))
                + path.height * (1 + digest_size)
            )
            rows.append(
                {
                    "n": f"2^{exp}",
                    "height": tree.height,
                    "proof_bytes": size,
                    "bytes_per_level": round(size / tree.height, 1),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = format_table(
        rows, title="E8 — proof size grows with log n (33 B per level)"
    )
    save_table("E8_proof_sizes", table)

    # Perfectly linear in the height: constant bytes per level.
    per_level = {row["bytes_per_level"] for row in rows}
    assert max(per_level) - min(per_level) < 2.0
    # Doubling the exponent adds exactly height-delta levels.
    heights = [row["height"] for row in rows]
    assert heights == [8, 10, 12, 14, 16]


def test_streaming_memory_footprint(benchmark, save_table):
    """The O(log n) builder keeps its stack logarithmic."""

    def run():
        builder = StreamingMerkleBuilder()
        peak = 0
        for i in range(1 << 14):
            builder.add_leaf(FN.evaluate(i))
            peak = max(peak, len(builder._stack))
        builder.finalize()
        return peak

    peak = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(
        "E8_streaming_memory",
        f"E8 — streaming builder peak stack over 2^14 leaves: {peak} "
        "slots (vs 32767 nodes for the in-memory tree)",
    )
    assert peak <= 15


def test_throughput_record(benchmark, save_json, trajectory, leaves_4k):
    """Machine-readable build throughput, same record schema as the
    profiling harness (``bench_profile``): schema-versioned, carrying
    the machine fingerprint, diffable across commits."""
    n = len(leaves_4k)

    def best_of(fn, rounds=5):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    def streaming():
        builder = StreamingMerkleBuilder()
        builder.add_leaves(leaves_4k)
        return builder.finalize()

    tree_s = benchmark.pedantic(
        lambda: best_of(lambda: MerkleTree(leaves_4k).root),
        rounds=1,
        iterations=1,
    )
    streaming_s = best_of(streaming)
    save_json(
        "merkle_throughput",
        {
            "schema": _perf.BENCH_SCHEMA_VERSION,
            "bench": "merkle_throughput",
            "n_leaves": n,
            "tree_build_s": round(tree_s, 6),
            "streaming_build_s": round(streaming_s, 6),
            "tree_leaves_per_s": round(n / tree_s, 1),
            "streaming_leaves_per_s": round(n / streaming_s, 1),
            "fingerprint": trajectory.fingerprint,
        },
    )
