"""Profiling harness — where one worker-second actually goes.

Decomposes the participant hot path at a pinned domain size into
phase-attributed wall-clock: task-function evaluation, batched leaf
hashing, Merkle-root construction, the full CBS protocol run, cluster
(de)serialization, frame I/O, and warm-pool scheduling overhead (cold
pool spawn vs prewarmed dispatch) — and the Merkle *read* path
(``prove`` → ``bundle_encode`` → ``bundle_decode`` → ``verify``) at two
fixed shapes, in µs per proof.  Two gates ride on the numbers:

* **Speedup** — the batched-hashing Merkle path must hold >= 2x over
  the pre-batching implementation, reproduced verbatim from the seed
  tree code (``hashlib.new`` string lookup per digest, one Python call
  chain per leaf and per internal node).  Legacy and current are
  measured *interleaved*, best-of-N, so machine warm-up drift cannot
  flatter either side.
* **Trajectory** — participants/sec (Merkle commitments built per
  second at the pinned domain) is appended to
  ``benchmarks/results/perf_trajectory.jsonl`` and compared against
  the latest committed record from the same machine fingerprint: a
  >30% drop fails the bench.  The read path rides the same gate as
  proofs/sec per shape, so a per-digest call chain creeping back into
  the proof codec or the path fold fails here the way a slow Merkle
  build does, and so does ``evaluate_us_per_input``, timed through the
  behaviour's batch entry (the call the participant makes).  The CI
  smoke job runs this ``--quick`` on every PR and uploads the JSON as
  an artifact.

``--quick`` shrinks the domain (2^12 instead of 2^16) and skips the
absolute 2x assertion while keeping the whole harness — phases,
record, trajectory gate — live on every PR.
"""

import hashlib
import pickle  # retired from the cluster wire; kept as the yardstick
import time

import _perf
from repro.analysis import format_table
from repro.cheating import HonestBehavior
from repro.core import CBSScheme, NICBSParticipant, NICBSSupervisor
from repro.core.protocol import NICBSSubmissionMsg, SampleChallengeMsg
from repro.engine import default_workers, get_executor
from repro.grid import run_population
from repro.merkle import get_hash
from repro.merkle.tree import _LEAF_TAG, _NODE_TAG, LeafEncoding, MerkleTree
from repro.net.framing import frame_buffer, split_frame_buffer
from repro.service.codec import decode_cluster_payload, encode_cluster_payload
from repro.tasks import PasswordSearch, RangeDomain, TaskAssignment

D_EXP = 16
D_EXP_QUICK = 12
N_SAMPLES = 16
ROUNDS = 6
ROUNDS_QUICK = 3
TARGET_SPEEDUP = 2.0
SCHED_ITEMS = 128
# The read path's two shapes (leaves, proofs): the ledger's proof-heavy
# submission (many short paths) and a few tall ones.  Fixed, not
# scaled by --quick: each is milliseconds.
READ_SHAPES = ((512, 256), (4096, 16))

FN = PasswordSearch()


# ----------------------------------------------------------------------
# The pre-batching hot path, reproduced verbatim from the seed tree
# code: ``hashlib.new`` resolves the algorithm by string on every
# digest (what ``_stdlib`` did before constructors were cached), every
# leaf goes through an ``encode_leaf`` call with its encoding check and
# a ``tag + payload`` concatenation, and every internal node through a
# ``combine`` call with explicit level indexing.  Measuring through
# the *new* batched structure's fallback loop would flatter the
# baseline — it already skips those per-item call layers.
# ----------------------------------------------------------------------


def _legacy_stdlib_fn(data: bytes) -> bytes:
    return hashlib.new("sha256", data).digest()


class _LegacyHash:
    digest_size = 32

    def __init__(self) -> None:
        self._fn = _legacy_stdlib_fn

    def digest(self, data: bytes) -> bytes:
        return self._fn(data)


def _legacy_encode_leaf(payload, hash_fn, encoding) -> bytes:
    if encoding is LeafEncoding.RAW:
        return payload
    return hash_fn.digest(_LEAF_TAG + payload)


def _legacy_combine(hash_fn, left: bytes, right: bytes) -> bytes:
    return hash_fn.digest(_NODE_TAG + left + right)


def _legacy_root(payloads, hash_fn) -> bytes:
    level = [
        _legacy_encode_leaf(payload, hash_fn, LeafEncoding.HASHED)
        for payload in payloads
    ]
    while len(level) > 1:
        level = [
            _legacy_combine(hash_fn, level[i], level[i + 1])
            for i in range(0, len(level), 2)
        ]
    return level[0]


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _interleaved_best(contenders: dict, rounds: int) -> dict:
    """Best-of-N with the contenders alternated inside every round.

    Measuring one side to completion first hands it whatever thermal /
    frequency state the machine happens to be in; interleaving gives
    both sides the same distribution of machine states and the min
    discards the noise.
    """
    best = {key: float("inf") for key in contenders}
    for _ in range(rounds):
        for key, fn in contenders.items():
            best[key] = min(best[key], _time(fn))
    return best


def _noop_item(_x: int) -> None:
    return None


def _phase_breakdown(n: int, payloads: list, raw_payload: bytes) -> dict:
    """Single-pass wall-clock attribution of the worker hot path."""
    hash_fn = get_hash("sha256")
    phases = {}
    # The participant's own entry: the behaviour's batch over the whole
    # assignment, routed to ``FN.evaluate_many`` (best-of-3: it is gated).
    task = TaskAssignment("bench-evaluate", RangeDomain(0, n), FN)
    phases["evaluate"] = min(
        _time(lambda: HonestBehavior().produce(task, FN.evaluate))
        for _ in range(3)
    )
    phases["leaf_hash"] = _time(
        lambda: hash_fn.tagged_digest_many(_LEAF_TAG, payloads)
    )
    phases["merkle_root"] = _time(lambda: MerkleTree(payloads).root)
    phases["scheme_run"] = _time(
        lambda: run_population(
            RangeDomain(0, n),
            FN,
            CBSScheme(n_samples=N_SAMPLES),
            behaviors=[HonestBehavior()],
            n_participants=1,
            seed=1,
            engine="serial",
        )
    )
    phases["serialize"] = _time(
        lambda: decode_cluster_payload(encode_cluster_payload(payloads))
    )
    phases["serialize_pickle"] = _time(
        lambda: pickle.loads(
            pickle.dumps(payloads, protocol=pickle.HIGHEST_PROTOCOL)
        )
    )
    phases["framing"] = _time(
        lambda: [split_frame_buffer(frame_buffer(raw_payload)) for _ in range(64)]
    )

    # Scheduling overhead: what chunk dispatch costs on a cold pool
    # (process spawn on the request path) versus a prewarmed one.
    workers = min(default_workers(), 4)
    with get_executor("processes", workers) as executor:
        phases["pool_cold_first_map"] = _time(
            lambda: executor.map(_noop_item, range(SCHED_ITEMS))
        )
        executor.prewarm()
        phases["pool_warm_dispatch"] = _time(
            lambda: executor.map(_noop_item, range(SCHED_ITEMS))
        )
    return phases


def _read_path(n: int, m: int, rounds: int) -> dict:
    """µs per proof through prove / encode / decode / verify at (n, m).

    One honest NI-CBS submission; the four phases are interleaved
    best-of-``rounds`` like the Merkle contenders, on the message the
    wire actually carries (the decoded bundle is what ``verify`` sees).
    """
    task = TaskAssignment("bench-read", RangeDomain(0, n), FN)
    participant = NICBSParticipant(task, HonestBehavior(), n_samples=m)
    submission = participant.compute_and_submit()
    challenge = SampleChallengeMsg(
        task_id=task.task_id, indices=tuple(p.index for p in submission.proofs)
    )
    raw = submission.encode()
    decoded = NICBSSubmissionMsg.decode(raw)
    # The bundle reads back in its compact form (no derivable sibling),
    # which is the same message: it re-encodes to the same bytes.
    assert decoded.encode() == raw

    def verify() -> None:
        assert NICBSSupervisor(task, n_samples=m).verify(decoded).accepted

    best = _interleaved_best(
        {
            "prove": lambda: participant.prove(challenge),
            "bundle_encode": submission.encode,
            "bundle_decode": lambda: NICBSSubmissionMsg.decode(raw),
            "verify": verify,
        },
        rounds,
    )
    record = {
        f"{phase}_us_per_proof": round(seconds / m * 1e6, 3)
        for phase, seconds in best.items()
    }
    record["bundle_bytes"] = len(raw)
    record["proofs_per_s"] = round(m / sum(best.values()), 1)
    return record


def test_profile_worker_second(save_json, save_table, trajectory, quick):
    d_exp = D_EXP_QUICK if quick else D_EXP
    rounds = ROUNDS_QUICK if quick else ROUNDS
    n = 1 << d_exp
    payloads = FN.evaluate_many(range(n))
    raw_payload = encode_cluster_payload(payloads[: 1 << 10])

    legacy_hash = _LegacyHash()
    # Same commitment either way — the speedup is pure call-path.
    assert _legacy_root(payloads, legacy_hash) == MerkleTree(payloads).root
    best = _interleaved_best(
        {
            "legacy": lambda: _legacy_root(payloads, legacy_hash),
            "current": lambda: MerkleTree(payloads).root,
        },
        rounds,
    )
    speedup = best["legacy"] / best["current"]
    participants_per_s = 1.0 / best["current"]

    phases = _phase_breakdown(n, payloads, raw_payload)
    evaluate_us_per_input = phases["evaluate"] / n * 1e6
    read_path = {
        f"n{leaves}_m{proofs}": _read_path(leaves, proofs, 4 * rounds)
        for leaves, proofs in READ_SHAPES
    }

    # Wire economy of the serialize phase: the same payload list
    # through the typed codec vs the retired pickle envelope, as
    # bytes/item and round-trip µs/item.
    typed_raw = encode_cluster_payload(payloads)
    pickle_raw = pickle.dumps(payloads, protocol=pickle.HIGHEST_PROTOCOL)
    serialize_wire = {
        "items": n,
        "typed_bytes_per_item": round(len(typed_raw) / n, 2),
        "pickle_bytes_per_item": round(len(pickle_raw) / n, 2),
        "typed_us_per_item": round(phases["serialize"] / n * 1e6, 3),
        "pickle_us_per_item": round(phases["serialize_pickle"] / n * 1e6, 3),
    }

    rows = [
        {"phase": name, "seconds": round(seconds, 5)}
        for name, seconds in phases.items()
    ]
    rows.append(
        {"phase": "merkle_root_legacy", "seconds": round(best["legacy"], 5)}
    )
    rows.append(
        {"phase": "merkle_root_best", "seconds": round(best["current"], 5)}
    )
    save_table(
        "profile_phases",
        format_table(
            rows,
            title=(
                f"Worker-second profile at D = 2^{d_exp} "
                f"(batched vs legacy Merkle: {speedup:.2f}x)"
            ),
        ),
    )
    save_table(
        "profile_read_path",
        format_table(
            [{"shape": shape, **record} for shape, record in read_path.items()],
            title="Merkle read path, one honest NI-CBS submission per shape",
        ),
    )
    save_json(
        "profile",
        {
            "schema": _perf.BENCH_SCHEMA_VERSION,
            "bench": "profile",
            "quick": quick,
            "domain_size": n,
            "rounds": rounds,
            "phases_s": {k: round(v, 6) for k, v in phases.items()},
            "serialize_wire": serialize_wire,
            "read_path": read_path,
            "merkle_legacy_s": round(best["legacy"], 6),
            "merkle_current_s": round(best["current"], 6),
            "speedup_vs_legacy": round(speedup, 3),
            "participants_per_s": round(participants_per_s, 2),
            "evaluate_us_per_input": round(evaluate_us_per_input, 3),
            "fingerprint": trajectory.fingerprint,
        },
    )

    # Regression gate first (it also applies --quick, i.e. on every
    # PR): fall below the machine's own committed trajectory by >30%
    # and the bench fails before recording the regressed point.
    read_rates = {
        f"read_proofs_per_s_{shape}": record["proofs_per_s"]
        for shape, record in read_path.items()
    }
    gated = {"participants_per_s": participants_per_s, **read_rates}
    for metric, rate in gated.items():
        baseline = trajectory.baseline("profile", metric, domain_size=n)
        if baseline is not None:
            floor = (1.0 - _perf.MAX_REGRESSION) * baseline
            assert rate >= floor, (
                f"{metric} regressed >30% below this machine's committed "
                f"trajectory: {rate:.2f} vs baseline {baseline:.2f} "
                f"(floor {floor:.2f})"
            )
    # The same gate for the one cost metric: a per-input call chain
    # creeping back under ``evaluate_many`` reads as us/input going up.
    baseline = trajectory.baseline("profile", "evaluate_us_per_input", domain_size=n)
    if baseline is not None:
        ceiling = baseline / (1.0 - _perf.MAX_REGRESSION)
        assert evaluate_us_per_input <= ceiling, (
            f"evaluate_us_per_input regressed >30% above this machine's "
            f"committed trajectory: {evaluate_us_per_input:.3f} vs baseline "
            f"{baseline:.3f} (ceiling {ceiling:.3f})"
        )
    if not quick:
        assert speedup >= TARGET_SPEEDUP, (
            f"batched Merkle path must hold >= {TARGET_SPEEDUP}x over the "
            f"pre-batching implementation, got {speedup:.2f}x "
            f"(legacy {best['legacy']:.3f}s vs current {best['current']:.3f}s)"
        )

    # Append only after the gates pass: a regressed point must never
    # become the next run's (lower) baseline.
    trajectory.append(
        "profile",
        quick=quick,
        domain_size=n,
        participants_per_s=round(participants_per_s, 2),
        speedup_vs_legacy=round(speedup, 3),
        merkle_current_s=round(best["current"], 6),
        merkle_legacy_s=round(best["legacy"], 6),
        evaluate_us_per_input=round(evaluate_us_per_input, 3),
        **read_rates,
        **{
            f"{field}_{shape}": value
            for shape, record in read_path.items()
            for field, value in record.items()
            if field.endswith("_us_per_proof")
        },
    )
