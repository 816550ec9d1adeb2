"""E4 — §3.3 / Fig. 3: the storage/computation trade-off.

Paper claims reproduced:

* storing the tree only up to level ``H − ℓ`` cuts storage to
  ``O(|D| / 2^ℓ)`` (we measure stored digests exactly);
* answering a sample then costs a height-``ℓ`` subtree rebuild,
  i.e. ``2^ℓ`` evaluations of ``f`` — once per subtree the bundle
  touches, asserted exactly, with the mean touched count checked
  against its closed-form expectation;
* the relative computation overhead is ``rco = m·2^ℓ/|D| = 2m/S``,
  *independent of task size* (a bound: samples sharing a subtree share
  its rebuild);
* the paper's worked example: ``m = 64`` with 4 GB (``S = 2^32``)
  of tree storage gives ``rco = 2^−25`` for any task size.

E8's memory half rides here: the ``tracemalloc`` peak of committing
2^14 leaves, full tree against the partial tree, which holds one
subtree at a time.
"""

import math
import random
import tracemalloc

from repro.analysis import format_table
from repro.analysis.costs import expected_touched_subtrees
from repro.cheating import HonestBehavior
from repro.core import CBSScheme, predicted_rco, storage_for_rco
from repro.core.storage_opt import rco_from_storage
from repro.merkle import MerkleTree, PartialMerkleTree
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
        # The samples (the honest run verifies all M) and the height-ℓ
        # subtrees they touch: the bundle rebuilds each once.
        touched = {verdict.index >> ell for verdict in result.outcome.verdicts}
        rows.append(
            {
                "ell": ell,
                "stored_digests": result.participant_ledger.storage_digests,
                "rebuild_evals": extra,
                "measured_rco": extra / N,
                "paper_rco": predicted_rco(M, N, ell),
                "distinct_subtrees": len(touched),
                "sharing": len(touched) / M,
                "expected_sharing": expected_touched_subtrees(N, M, ell) / M,
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
    # Every sample is its own leaf (drawn without replacement); wider
    # subtrees can only gather more of them.
    assert by_ell[0]["sharing"] == 1.0
    for ell in (2, 4, 6, 8):
        assert 0 < by_ell[ell]["sharing"] <= by_ell[ell - 2]["sharing"]
    # One rebuild of 2^ℓ leaves per touched subtree, exactly.
    for ell in (2, 4, 6, 8):
        row = by_ell[ell]
        assert row["rebuild_evals"] == row["distinct_subtrees"] << ell, row
    assert by_ell[0]["rebuild_evals"] == 0


CHALLENGES = 2000


def test_touched_subtrees_match_closed_form(save_table):
    """Mean touched-subtree count over seeded challenges, drawn as
    ``CBSScheme`` draws them (``with_replacement=False``), within a
    99.9% interval of :func:`expected_touched_subtrees`."""
    challenges = [
        random.Random(seed).sample(range(N), M) for seed in range(CHALLENGES)
    ]
    rows = []
    for ell in (2, 4, 6, 8):
        counts = [len({i >> ell for i in c}) for c in challenges]
        mean = sum(counts) / CHALLENGES
        sd = math.sqrt(sum((c - mean) ** 2 for c in counts) / (CHALLENGES - 1))
        half = 3.29 * sd / math.sqrt(CHALLENGES)  # two-sided 99.9%
        expected = expected_touched_subtrees(N, M, ell)
        rows.append(
            {"ell": ell, "mean_touched": mean, "half_width": half,
             "closed_form": expected}
        )
        assert abs(mean - expected) <= half, rows[-1]
    save_table(
        "E4_touched_subtrees",
        format_table(
            rows,
            title=f"E4 — touched subtrees over {CHALLENGES} challenges "
            f"(n = {N}, m = {M}) vs the closed form",
        ),
    )


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
        return tree.multiproof([next(counter) % n], payloads)

    benchmark(prove_one)


def test_commit_memory_footprint(benchmark, save_table):
    """The partial tree commits holding one subtree plus the stored
    rows; the full tree holds every node."""
    ell = 7
    payloads = [FN.evaluate(i) for i in range(1 << 14)]

    def peak(commit):
        tracemalloc.start()
        try:
            commit()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def run():
        return {
            "leaves": len(payloads),
            "full_tree_peak_bytes": peak(lambda: MerkleTree(payloads)),
            f"partial_tree_ell{ell}_peak_bytes": peak(
                lambda: PartialMerkleTree(payloads, payloads.__getitem__, ell)
            ),
        }

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(
        "E8_commit_memory",
        format_table([row], title="E8 — commitment memory: full vs §3.3 partial tree"),
    )
    assert row[f"partial_tree_ell{ell}_peak_bytes"] * 8 < row["full_tree_peak_bytes"]
