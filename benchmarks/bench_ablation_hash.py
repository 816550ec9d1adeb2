"""E9 — design-choice ablations: hash function and leaf encoding.

The paper leaves these implementation choices open; each is ablated
here (the third, a commitment's memory — full tree vs §3.3 partial
tree — is E8's row in ``bench_storage_rco.py``):

* **hash function** — MD5/SHA-1 (the paper's suggestions) vs SHA-256
  (our default) vs BLAKE2b: build throughput and proof size;
* **leaf encoding** — the paper's raw ``Φ(L) = f(x)`` vs our
  domain-separated hashed leaves: cost of the extra leaf hash.
"""

import pytest

from repro.analysis import format_table
from repro.cheating import HonestBehavior
from repro.core import CBSScheme
from repro.merkle import MerkleTree, get_hash
from repro.merkle.tree import LeafEncoding
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment

N = 4096


@pytest.fixture(scope="module")
def digest_leaves():
    # 16-byte results so RAW encoding works under md5 too.
    fn = PasswordSearch(digest_bytes=16)
    return [fn.evaluate(i) for i in range(N)]


@pytest.mark.parametrize("hash_name", ["md5", "sha1", "sha256", "blake2b"])
def test_build_by_hash(benchmark, digest_leaves, hash_name):
    h = get_hash(hash_name)
    benchmark(lambda: MerkleTree(digest_leaves, hash_fn=h).root)


def test_hash_ablation_table(benchmark, save_table):
    def measure():
        fn = PasswordSearch(digest_bytes=16)
        task = TaskAssignment("abl", RangeDomain(0, N), fn)
        rows = []
        for hash_name in ("md5", "sha1", "sha256", "blake2b"):
            result = CBSScheme(
                n_samples=16, hash_name=hash_name, include_reports=False
            ).run(task, HonestBehavior(), seed=0)
            assert result.outcome.accepted
            rows.append(
                {
                    "hash": hash_name,
                    "digest_bytes": get_hash(hash_name).digest_size,
                    "participant_bytes_sent": result.participant_ledger.bytes_sent,
                    "participant_hashes": result.participant_ledger.hashes,
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = format_table(
        rows, title=f"E9a — hash ablation (n={N}, m=16): traffic scales with digest size"
    )
    save_table("E9a_hash_ablation", table)
    by_hash = {row["hash"]: row for row in rows}
    # Proof traffic is proportional to digest size; md5 (16 B) beats
    # sha256 (32 B) on bytes — the paper's MD5 suggestion is the
    # cheapest wire-wise (security considerations aside).
    assert (
        by_hash["md5"]["participant_bytes_sent"]
        < by_hash["sha256"]["participant_bytes_sent"]
    )
    # Same hash count regardless of function.
    assert len({row["participant_hashes"] for row in rows}) == 1


def test_leaf_encoding_ablation(benchmark, save_table):
    def measure():
        fn = PasswordSearch(digest_bytes=16)
        task = TaskAssignment("leaf", RangeDomain(0, N), fn)
        rows = []
        for encoding in (LeafEncoding.RAW, LeafEncoding.HASHED):
            result = CBSScheme(
                n_samples=16,
                hash_name="md5",
                leaf_encoding=encoding,
                include_reports=False,
            ).run(task, HonestBehavior(), seed=0)
            assert result.outcome.accepted
            rows.append(
                {
                    "leaf_encoding": encoding.value,
                    "participant_hashes": result.participant_ledger.hashes,
                    "bytes_sent": result.participant_ledger.bytes_sent,
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = format_table(
        rows,
        title="E9b — leaf encoding: paper's raw Φ(L)=f(x) vs domain-separated",
    )
    save_table("E9b_leaf_encoding", table)
    raw, hashed = rows
    # Hashed leaves cost exactly one extra hash per leaf at build time
    # (and one per verified sample at the supervisor); wire size equal.
    assert hashed["participant_hashes"] - raw["participant_hashes"] == N
    assert raw["bytes_sent"] == hashed["bytes_sent"]

