"""The supervisor's Step 4 beside its bare ``hashlib`` floor.

Not a paper artefact: the README's stop rule for perf work, applied to
§3.1's Step 4 (and §4's Eq. 4 chain) at the two NI-CBS service shapes
the ledger runs — ``svc_nicbs_proofheavy`` (512 inputs, m = 256) and
``svc_nicbs_plain`` (64 inputs, m = 16) — for the service's honest
participant and an ``r = 0.5`` one.  Each bundle is decoded from its
wire bytes first, as the service receives it, and both supervisors
verify it: ``NICBSSupervisor.verify`` on the NI-CBS submission, and
``CBSSupervisor.verify`` on the proofs a CBS participant of the same
slot sends for its seeded challenge (``svc_cbs_secured``'s round, at
both shapes).

Beside each, a bare ``hashlib`` transcription runs the same calls the
verification cannot avoid: Eq. 4's chain links and their ``mod n``
(NI-CBS only), the PRF evaluations of check 1 in sample order — each
distinct leaf once, stopping at the first failure — then, iff a sample
awaits attestation, ``sha256(b"\\0" + result)`` per leaf of each
touched pair and ``sha256(b"\\1" + left + right)`` per covered node.
Everything the transcription needs to know where a digest goes (the
shape, the framed PRF prefixes) is worked out before the clock starts;
the library works it out on the clock.

Each round times ``RUNS`` verifications per row and side, interleaved
over ``ROUNDS`` rounds; a row reads the median round per verification,
and its ratio the median of the rounds' verify-over-floor ratios.  The
gate is identity only: the transcription's verdicts and its counts of
hashes and checks equal the supervisor's verdicts and its ledger's
``hashes`` and ``verifications``.  Ratios are printed, never asserted.
The verdict is ``bench_run_floor.py``'s stop rule: ``closed`` at ≤ 1.5x
the floor, ``open`` past 2x with a share over 0.05, ``neither`` in
between (every row is a whole verification, share 1).
"""

import hashlib
import statistics
import time
from operator import truediv

from repro.accounting import CostLedger
from repro.analysis import format_table
from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.core.ni_cbs import derive_sample_indices
from repro.core.protocol import NICBSSubmissionMsg, ProofBundleMsg
from repro.engine.seeding import slot_task
from repro.merkle.hashing import get_hash
from repro.merkle.multiproof import bundle_shape
from repro.service.sessions import ServiceConfig
from repro.tasks import PasswordSearch, RangeDomain
from repro.utils.bitmath import ceil_log2

from bench_run_floor import verdict

#: (name, inputs per participant, m): the ledger's two NI-CBS shapes.
SHAPES = (("512/256", 512, 256), ("64/16", 64, 16))
BEHAVIORS = (("honest", HonestBehavior()), ("r=0.5", SemiHonestCheater(0.5)))
#: The service's participant slot every row verifies.
SLOT = 1
ROUNDS = 21
RUNS = 10

_sha256 = hashlib.sha256
_BLOCK0 = bytes(8)
_EMPTY = b"\x02repro/empty"


def frame(part: bytes) -> bytes:
    return len(part).to_bytes(8, "big") + part


class Case:
    """One row: a decoded bundle, a supervisor factory and the floor's plan."""

    def __init__(self, shape, n, m, participant, behavior, protocol):
        config = ServiceConfig(
            domain=RangeDomain(0, 1 << 20), protocol=protocol, n_samples=m,
            n_participants=(1 << 20) // n, seed=1,
        )
        self.name = (protocol, shape, participant)
        scheme = config.scheme
        assignment, seed = slot_task(
            SLOT, config.n_participants, config.domain, PasswordSearch(),
            config.seed,
        )
        prover = scheme.participant(assignment, behavior, seed)
        if protocol == "ni-cbs":
            submission = prover.compute_and_submit()
            self.message = NICBSSubmissionMsg.decode(submission.encode())
            root = submission.root
            indices = derive_sample_indices(root, n, m, get_hash())
            self.supervisor = lambda: scheme.supervisor(assignment, seed, CostLedger())
        else:
            commitment = prover.compute_and_commit()
            root = commitment.root

            def supervisor():
                cbs = scheme.supervisor(assignment, seed, CostLedger())
                cbs.receive_commitment(commitment)
                cbs.make_challenge()  # the seeded draw, the same every time
                return cbs

            drawn = scheme.supervisor(assignment, seed)
            drawn.receive_commitment(commitment)
            challenge = drawn.make_challenge()
            indices = challenge.indices
            self.message = ProofBundleMsg.decode(prover.prove(challenge).encode())
            self.supervisor = supervisor
        self.plan = plan(
            assignment, root, self.message.bundle, indices, m, protocol == "ni-cbs"
        )


def plan(assignment, root, bundle, indices, m, chained):
    """What the transcription knows before its clock starts."""
    fn, n = assignment.function, assignment.n_inputs
    height = ceil_log2(n)
    leaves, nodes = bundle_shape(indices, height)
    results = list(bundle.results)
    supply = iter(bundle.digests)
    # Per level, where each supplied digest lands in the row of known
    # digests (node order), so the floor only inserts and hashes.
    inserts, known = [], list(leaves)
    for row in nodes:
        merged = sorted(known + row)
        inserts.append([(merged.index(node), next(supply)) for node in row])
        known = [node >> 1 for node in merged[::2]]
    keyed = _sha256(frame(fn.salt))
    framed = {}
    for width in range(1, 9):
        h = keyed.copy()
        h.update(width.to_bytes(8, "big"))
        framed[width] = h.copy
    return {
        "root": root, "n": n, "m": m, "chained": chained,
        "indices": list(indices), "start": assignment.domain.start,
        "framed": framed, "cut": fn.digest_bytes,
        "claimed": dict(zip(leaves, results)), "results": results,
        "padded": len(results) < len(leaves), "inserts": inserts,
    }


def floor_verify(p):
    """The calls Step 4 cannot avoid, in bare ``hashlib``; returns the
    per-sample check outcomes, whether the root matched (``None`` when
    nothing awaited it) and the hash count."""
    n, hashes = p["n"], 0
    if p["chained"]:
        link = p["root"]
        links = [link := _sha256(link).digest() for _ in range(p["m"])]
        indices = [int.from_bytes(link, "big") % n for link in links]
        hashes = p["m"]
    else:
        indices = p["indices"]
    start, framed, cut, claimed = p["start"], p["framed"], p["cut"], p["claimed"]
    seen, oks = {}, []
    for index in indices:
        ok = seen.get(index)
        if ok is None:
            x = start + index
            width = (x.bit_length() + 7) // 8 or 1
            h = framed[width]()
            h.update(x.to_bytes(width, "big"))
            ok = seen[index] = _sha256(h.digest() + _BLOCK0).digest()[:cut] == claimed[index]
        oks.append(ok)
        if not ok:
            break
    if not oks[0]:
        return oks, None, hashes
    row = [_sha256(b"\x00" + result).digest() for result in p["results"]]
    if p["padded"]:
        row.append(_sha256(_EMPTY).digest())
    hashes += len(row)
    for inserts in p["inserts"]:
        for position, digest in inserts:
            row.insert(position, digest)
        pairs = iter(row)
        row = [_sha256(b"\x01" + left + right).digest() for left, right in zip(pairs, pairs)]
        hashes += len(row)
    return oks, row[0] == p["root"], hashes


def floor_view(p, oks, matched):
    """The transcription's verdicts as ``(index, accepted, reason)``."""
    indices = p["indices"]
    view = [
        (index, ok, "ok" if ok else "wrong_result")
        for index, ok in zip(indices, oks)
    ]
    if matched is False:
        view = [(indices[0], False, "root_mismatch")]
    return view


def check_identity(case):
    """The gate: verdicts, hashes and verifications are the library's."""
    supervisor = case.supervisor()
    outcome = supervisor.verify(case.message)
    oks, matched, hashes = floor_verify(case.plan)
    assert [
        (v.index, v.accepted, v.reason.value) for v in outcome.verdicts
    ] == floor_view(case.plan, oks, matched)
    assert supervisor.ledger.hashes == hashes
    assert supervisor.ledger.verifications == len(oks)


def cases():
    return [
        Case(shape, n, m, participant, behavior, protocol)
        for shape, n, m in SHAPES
        for participant, behavior in BEHAVIORS
        for protocol in ("ni-cbs", "cbs")
    ]


def _timed(fn, arg, runs=RUNS):
    clock = time.perf_counter
    start = clock()
    for _ in range(runs):
        fn(arg)
    return (clock() - start) / runs


def measure(rounds: int = ROUNDS) -> list[dict]:
    rows = cases()
    for case in rows:
        check_identity(case)
    times = {case.name: ([], []) for case in rows}
    for _ in range(rounds):
        for case in rows:
            supervisor = case.supervisor()
            times[case.name][0].append(_timed(supervisor.verify, case.message))
            times[case.name][1].append(_timed(floor_verify, case.plan))
    table = []
    for case in rows:
        lib, floor = times[case.name]
        ratio = statistics.median(map(truediv, lib, floor))
        protocol, shape, participant = case.name
        table.append({
            "protocol": protocol,
            "shape": shape,
            "participant": participant,
            "us_per_verify": round(statistics.median(lib) * 1e6, 1),
            "floor_us": round(statistics.median(floor) * 1e6, 1),
            "ratio": round(ratio, 2),
            "verdict": verdict(ratio, 1.0),
        })
    return table


def test_verify_beside_its_floor(save_table):
    rows = measure()
    save_table(
        "verify_floor",
        format_table(
            rows,
            title=(
                "Step 4 on decoded service bundles vs bare hashlib "
                f"(median of {ROUNDS} rounds of {RUNS} verifications)"
            ),
        ),
    )
    assert len(rows) == len(SHAPES) * len(BEHAVIORS) * 2
