"""E4 — §3.3 / Fig. 3: the storage/computation trade-off.

Paper claims reproduced:

* storing the tree only up to level ``H − ℓ`` cuts storage to
  ``O(|D| / 2^ℓ)`` (we measure stored digests exactly);
* answering one sample then costs a height-``ℓ`` subtree rebuild,
  i.e. ``2^ℓ`` evaluations of ``f``;
* the relative computation overhead is ``rco = m·2^ℓ/|D| = 2m/S``,
  *independent of task size*;
* the paper's worked example: ``m = 64`` with 4 GB (``S = 2^32``)
  of tree storage gives ``rco = 2^−25`` for any task size.

E8's memory half rides here: the streaming builder is the other end
of the same trade-off, a commitment built in ``O(log n)`` slots.
"""

from repro.analysis import format_table
from repro.cheating import HonestBehavior
from repro.core import CBSScheme, predicted_rco, storage_for_rco
from repro.core.storage_opt import rco_from_storage
from repro.merkle import PartialMerkleTree, StreamingMerkleBuilder
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment

N = 4096
M = 16
FN = PasswordSearch()


def run_ell_sweep() -> list[dict]:
    task = TaskAssignment("rco", RangeDomain(0, N), PasswordSearch())
    rows = []
    for ell in (0, 2, 4, 6, 8):
        result = CBSScheme(
            n_samples=M,
            subtree_height=ell or None,
            with_replacement=False,
            include_reports=False,
        ).run(task, HonestBehavior(), seed=3)
        assert result.outcome.accepted
        extra = result.participant_ledger.evaluations - N
        rows.append(
            {
                "ell": ell,
                "stored_digests": result.participant_ledger.storage_digests,
                "rebuild_evals": extra,
                "measured_rco": extra / N,
                "paper_rco": predicted_rco(M, N, ell),
            }
        )
    return rows


def test_storage_rco_sweep(benchmark, save_table):
    rows = benchmark.pedantic(run_ell_sweep, rounds=1, iterations=1)
    table = format_table(
        rows, title=f"E4 / §3.3 — storage vs recompute (n = {N}, m = {M})"
    )
    save_table("E4_storage_rco", table)

    by_ell = {row["ell"]: row for row in rows}
    # Storage drops 4x per 2 levels; measured rco tracks the paper's
    # formula exactly when samples hit distinct subtrees (<= otherwise).
    for ell in (2, 4, 6, 8):
        assert by_ell[ell]["stored_digests"] < by_ell[ell - 2]["stored_digests"]
        assert by_ell[ell]["measured_rco"] <= by_ell[ell]["paper_rco"] + 1e-12
    # At ℓ=8 subtrees are 256 leaves wide: a full rebuild per sample.
    assert by_ell[8]["rebuild_evals"] % 256 == 0


def test_paper_4gb_example(benchmark, save_table):
    # m = 64, S = 2^32 digests ⇒ rco = 2^-25, regardless of |D|.
    rco = benchmark.pedantic(
        lambda: rco_from_storage(m=64, storage_digests=1 << 32),
        rounds=1,
        iterations=1,
    )
    assert rco == 2.0**-25
    assert storage_for_rco(m=64, target_rco=2.0**-25) == 1 << 32
    lines = [
        "E4 — paper §3.3 worked example",
        f"m=64, S=2^32 stored digests  =>  rco = {rco:.3e} = 2^-25",
        "independent of task size (table below: same rco at any H):",
    ]
    rows = [
        {
            "task_size": f"2^{height}",
            "ell": height - 31,
            "rco": predicted_rco(64, 1 << height, height - 31),
        }
        for height in (36, 40, 44)
    ]
    save_table(
        "E4_paper_example", "\n".join(lines) + "\n" + format_table(rows)
    )
    for row in rows:
        assert row["rco"] == 2.0**-25


def test_partial_tree_proof_latency(benchmark):
    """Wall-clock: one storage-optimized proof (subtree rebuild included)."""
    n, ell = 4096, 6
    fn = PasswordSearch()
    payloads = [fn.evaluate(i) for i in range(n)]
    tree = PartialMerkleTree(
        payloads, lambda i: payloads[i], subtree_height=ell
    )
    counter = iter(range(10**9))

    def prove_one():
        return tree.auth_path(next(counter) % n)

    benchmark(prove_one)


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
