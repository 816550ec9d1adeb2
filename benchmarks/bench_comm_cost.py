"""E3 — communication cost: O(n) baselines vs O(m log n) CBS.

The paper's §1/§3 claims:

* naive sampling and double-checking put all ``n`` results on the
  wire (§1: "O(n) communication cost");
* CBS reduces the participant's traffic to ``O(m log n)`` (§3: "this
  result is a substantial improvement" for ``n = 2^40``);
* the §3 headline: returning all results of a 2^64 brute-force
  password task would cost ~16 million terabytes at the supervisor.

Measured wire bytes (every message serialized through the canonical
codec) for an ``n`` sweep, plus the closed-form extrapolation to the
paper's 2^40 and 2^64 sizes.

Two CBS columns, and which is which: ``per_path_bytes`` is the paper's
count — ``m`` independent authentication paths, ``m·H`` digests, the
analytic closed form — and ``measured_bytes`` is what the ledger
records for the bundle as it travels, one multiproof that ships a
digest several samples share (or can derive from each other) once or
not at all, and a leaf-level sibling as its result.  Every measured
bundle equals the shared fold's closed form
(``analysis.costs.cbs_bundle_bytes``) to the byte, and is never more
than the per-path count.  ``per_path_ratio`` is the per-path count over
the measured bytes: what the shared form saves, largest where ``m``
samples crowd a small tree.

The supervisor's side of the same bundles: the hashes its ledger
charges for each equal ``analysis.costs.verifier_hashes`` of its
samples, exactly, and the mean of that count over seeded uniform draws
lies inside an exact (McDiarmid) interval around
``expected_verifier_hashes``: one draw moves the count by at most
``H + 1`` (its pair's two leaves and its ancestors below the root), so
the mean of ``N`` sets of ``m`` draws misses its expectation by ``t``
or more with probability at most ``2·exp(−2t²N / (m(H + 1)²))``.  No
miss is tolerated.

E8 rides here too: the proof-size table backing §3.1's "the
communication cost of this process is proportional to the height of
the tree".
"""

import math
import random

from repro.analysis import format_table
from repro.analysis.costs import (
    cbs_bundle_bytes,
    cbs_participant_bytes,
    expected_verifier_hashes,
    naive_bytes_per_task,
    verifier_hashes,
)
from repro.baselines import DoubleCheckScheme, NaiveSamplingScheme
from repro.cheating import HonestBehavior
from repro.core import CBSScheme
from repro.core.protocol import CommitmentMsg
from repro.merkle import MerkleTree
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment
from repro.utils.encoding import encode_uint

M = 50  # the paper's "almost impossible" sample count
FN = PasswordSearch()


def payloads(n: int) -> list[bytes]:
    return [FN.evaluate(i) for i in range(n)]


def measure_for(n: int) -> dict:
    task = TaskAssignment("comm", RangeDomain(0, n), PasswordSearch())
    naive = NaiveSamplingScheme(M).run(task, HonestBehavior(), seed=0)
    double = DoubleCheckScheme(2).run(task, HonestBehavior(), seed=0)
    scheme = CBSScheme(M, include_reports=False)
    cbs = scheme.run(task, HonestBehavior(), seed=0)
    assert cbs.outcome.accepted
    per_path = cbs_participant_bytes(
        n, M, digest_size=32, result_size=16, task_id_size=len(task.task_id)
    )
    measured = cbs.participant_ledger.bytes_sent
    # The run's challenge is its supervisor's seed-0 draw, and its
    # participant sent the commitment and the bundle.
    commitment = CommitmentMsg(task.task_id, bytes(32), n)
    supervisor = scheme.supervisor(task, seed=0)
    supervisor.receive_commitment(commitment)
    indices = supervisor.make_challenge().indices
    assert measured - commitment.wire_size() == cbs_bundle_bytes(
        indices, n, digest_size=32, result_size=16, task_id_size=len(task.task_id)
    )
    # And the supervisor's work on it: every hash it charged, exactly.
    assert cbs.supervisor_ledger.hashes == verifier_hashes(indices, n)
    return {
        "n": n,
        "double_check_bytes": double.supervisor_ledger.bytes_received,
        "naive_sampling_bytes": naive.participant_ledger.bytes_sent,
        "per_path_bytes": per_path,
        "measured_bytes": measured,
        "per_path_ratio": round(per_path / measured, 2),
        "cbs_reduction": round(
            naive.participant_ledger.bytes_sent / measured, 1
        ),
    }


def run_sweep() -> list[dict]:
    return [measure_for(n) for n in (256, 1024, 4096, 16384, 65536)]


def test_comm_cost_sweep(benchmark, save_table):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = format_table(
        rows, title=f"E3 — measured wire bytes per participant (m = {M})"
    )
    save_table("E3_comm_cost_measured", table)

    # Shape assertions: naive grows ~linearly, CBS ~logarithmically.
    by_n = {row["n"]: row for row in rows}
    naive_growth = (
        by_n[65536]["naive_sampling_bytes"] / by_n[256]["naive_sampling_bytes"]
    )
    cbs_growth = by_n[65536]["per_path_bytes"] / by_n[256]["per_path_bytes"]
    assert naive_growth > 200  # 256x domain ⇒ ~256x traffic
    assert cbs_growth < 2.5  # the paper's count: only the log n term grows
    # What travels is never more than the paper's count, and its own
    # growth is the same log n term: 8 more levels, so at most 8 more
    # digests (33 B) per sample over the 256x sweep.
    for row in rows:
        assert row["measured_bytes"] <= row["per_path_bytes"]
    assert (
        by_n[65536]["measured_bytes"] - by_n[256]["measured_bytes"]
        <= M * 8 * 33 + 2 * M
    )
    # Sharing is worth most where the samples crowd the tree.
    ratios = [row["per_path_ratio"] for row in rows]
    assert ratios == sorted(ratios, reverse=True) and ratios[0] > 3
    # CBS wins beyond the crossover and the margin widens with n.
    assert by_n[4096]["measured_bytes"] < by_n[4096]["naive_sampling_bytes"]
    assert (
        by_n[65536]["cbs_reduction"] > by_n[4096]["cbs_reduction"]
    )


def test_comm_cost_paper_extrapolation(benchmark, save_table):
    def build_rows():
        rows = []
        for label, n in (("2^30", 1 << 30), ("2^40", 1 << 40), ("2^64", 1 << 64)):
            naive = naive_bytes_per_task(n, result_size=16)
            cbs = cbs_participant_bytes(n, M, digest_size=32, result_size=16)
            rows.append(
                {
                    "n": label,
                    "naive_bytes": naive,
                    "naive_terabytes": naive / 1e12,
                    "cbs_bytes": cbs,
                    "reduction": naive / cbs,
                }
            )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    table = format_table(
        rows, title="E3 — closed-form extrapolation to the paper's sizes"
    )
    save_table("E3_comm_cost_extrapolated", table)

    by_n = {row["n"]: row for row in rows}
    # §3 headline: 2^64 results ≈ "about 16 million terabytes".
    assert 10e6 < by_n["2^64"]["naive_terabytes"] < 400e6
    # CBS at 2^64 with m=50 stays in the ~100 KB range.
    assert by_n["2^64"]["cbs_bytes"] < 150_000


#: (n, m, chain): the two NI-CBS service shapes, with Eq. 4's links,
#: and this sweep's CBS shape.
WORK_SHAPES = ((512, 256, 256), (64, 16, 16), (4096, M, 0))
#: Seeded sets per shape, and the interval's miss probability.
DRAWS, DELTA = 2000, 1e-9


def verifier_work_rows() -> list[dict]:
    rows = []
    for n, m, chain in WORK_SHAPES:
        rng = random.Random(n * 1000 + m)
        counts = [
            verifier_hashes([rng.randrange(n) for _ in range(m)], n, chain=chain)
            for _ in range(DRAWS)
        ]
        height = (n - 1).bit_length()
        half_width = (height + 1) * math.sqrt(m * math.log(2 / DELTA) / (2 * DRAWS))
        rows.append({
            "n": n,
            "m": m,
            "chain": chain,
            "expected_hashes": round(expected_verifier_hashes(n, m, chain=chain), 2),
            "mean_hashes": round(sum(counts) / DRAWS, 2),
            "half_width": round(half_width, 2),
            "per_path_hashes": chain + m * (height + 1),
        })
    return rows


def test_verifier_work_matches_closed_form(save_table):
    rows = verifier_work_rows()
    save_table(
        "E3_verifier_work",
        format_table(
            rows,
            title=(
                f"E3 — supervisor hashes per honest bundle: mean of {DRAWS} "
                f"seeded draws vs closed form (interval at δ = {DELTA:g})"
            ),
        ),
    )
    for row in rows:
        assert abs(row["mean_hashes"] - row["expected_hashes"]) <= row["half_width"]
        # The shared fold never hashes more than m paths would.
        assert row["mean_hashes"] <= row["per_path_hashes"]


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
