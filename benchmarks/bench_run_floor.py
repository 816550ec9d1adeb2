"""One small participant's whole §3.1 round beside its bare floor.

Not a paper artefact: the README's stop rule for perf work, applied to
one ``CBSScheme.run`` of the ledger's ``pop_small_cluster`` shape (a
sixteen-input participant, m = 16): the honest participant 0 and the
``r = 0.5`` participant 1 of its seed-1 population.  At that size a run
is mostly fixed cost — construction, the challenge draw, the bundle,
check 1, the fold, the message sizes and the books — so it is timed
whole, next to a bare ``hashlib``/``random`` transcription of the same
round: the SHA-256 and ``getrandbits`` calls the round cannot avoid,
plus the arithmetic that sizes its messages and fills its books.

Each round times ``RUNS`` whole runs of each participant per side, in
the same process, interleaved over ``ROUNDS`` rounds; a row reads the
median round per run, and its ratio the median of the rounds'
run-over-floor ratios.  The step rows split both sides the same way:

* **commit**: the participant's leaves (evaluate, or D′ draw plus
  fabrication), the tree and the commitment;
* **challenge**: the supervisor takes the commitment and draws m
  indices;
* **prove**: the bundle of those indices off the tree;
* **verify**: check 1 in sample order, stopping at the first failure,
  then the shared fold and the verdict;
* **books**: both ledgers, every message's size, the run's result.

The library's step rows drive the participant and supervisor by hand in
``CBSScheme.run``'s order; the whole-run row is ``CBSScheme.run``
itself.  The transcription must return the run's root, challenge
indices, supplied digests and verdicts, and its books the ledgers'
numbers; that identity is the only gate.  Timings are printed, never
asserted.  The verdict is the stop rule: ``closed`` at ≤ 1.5x the
floor, ``open`` past 2x with a share over 0.05, ``neither`` in between.
"""

import hashlib
import random
import statistics
import time
from operator import truediv

from repro.accounting import CostLedger
from repro.analysis import format_table
from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.core import CBSScheme
from repro.core.cbs import CBSParticipant, CBSSupervisor, transfer
from repro.core.protocol import VerdictMsg
from repro.core.scheme import SchemeRunResult
from repro.grid.simulation import GridSimulation, SimulationConfig
from repro.tasks import PasswordSearch, RangeDomain

M = 16
ROUNDS = 41
RUNS = 20
STEPS = ("commit", "challenge", "prove", "verify", "books")
SCHEME = CBSScheme(n_samples=M)

_sha256 = hashlib.sha256
_BLOCK0 = bytes(8)
_WIDTH8 = (8).to_bytes(8, "big")


def participants():
    """Participants 0 (honest) and 1 (``r = 0.5``) of the ledger's
    ``pop_small_cluster`` population, seed 1."""
    sim = GridSimulation(
        SimulationConfig(
            domain=RangeDomain(0, 1 << 13),
            function=PasswordSearch(),
            scheme=SCHEME,
            n_participants=512,
            behaviors=[HonestBehavior(), SemiHonestCheater(0.5)],
            seed=1,
        )
    )
    return sim.jobs()[:2]


# ----------------------------------------------------------------------
# The floor: the round in bare hashlib and random
# ----------------------------------------------------------------------


def frame(part: bytes) -> bytes:
    return len(part).to_bytes(8, "big") + part


def uint_size(value: int) -> int:
    return (value.bit_length() + 6) // 7 or 1


def fixed_list_size(items) -> int:
    """``count ‖ width ‖ items`` (the count alone when empty)."""
    if not items:
        return uint_size(0)
    return uint_size(len(items)) + uint_size(len(items[0])) + len(items) * len(items[0])


def floor_commit(job):
    task, salt = job.assignment, job.seed.to_bytes(8, "big")
    fn, start, n = task.function, task.domain.start, task.n_inputs
    keyed = _sha256(frame(fn.salt)).copy
    cut = fn.digest_bytes

    def evaluate(x):
        h = keyed()
        h.update(frame(x.to_bytes((x.bit_length() + 7) // 8 or 1, "big")))
        return _sha256(h.digest() + _BLOCK0).digest()[:cut]

    if isinstance(job.behavior, SemiHonestCheater):
        k = round(job.behavior.honesty_ratio * n)
        head = _sha256(
            frame(b"dprime") + frame(task.task_id.encode()) + frame(salt) + _WIDTH8
        ).copy
        order = list(range(n))
        for i in range(k):
            h = head()
            h.update(i.to_bytes(8, "big") + frame(_BLOCK0))
            draw = int.from_bytes(_sha256(h.digest() + _BLOCK0).digest()[:8], "big")
            j = i + draw % (n - i)
            order[i], order[j] = order[j], order[i]
        honest = set(order[:k])
        fake = _sha256(frame(b"zero-guess") + frame(salt) + _WIDTH8).copy
        payloads = []
        for i in range(n):
            if i in honest:
                payloads.append(evaluate(start + i))
            else:
                h = fake()
                h.update(i.to_bytes(8, "big"))
                payloads.append(_sha256(h.digest() + _BLOCK0).digest()[:cut])
    else:
        k = n
        payloads = [evaluate(start + i) for i in range(n)]
    level = [_sha256(b"\x00" + p).digest() for p in payloads]
    width = 1 << (n - 1).bit_length()
    if width > n:
        level += [_sha256(b"\x02repro/empty").digest()] * (width - n)
    levels = [level]
    while len(level) > 1:
        level = [
            _sha256(b"\x01" + level[i] + level[i + 1]).digest()
            for i in range(0, len(level), 2)
        ]
        levels.append(level)
    return {
        "task": task, "evaluate": evaluate, "payloads": payloads, "levels": levels,
        "root": level[0], "n": n, "honest": k,
    }


def floor_challenge(job, state):
    n = state["n"]
    bits = random.Random(job.seed).getrandbits
    k = n.bit_length()
    indices = []
    for _ in range(M):
        draw = bits(k)
        while draw >= n:
            draw = bits(k)
        indices.append(draw)
    state["indices"] = indices


def floor_prove(state):
    levels, indices = state["levels"], state["indices"]
    # Both leaves of every touched pair (n = 16: no padding partner).
    leaves = sorted({leaf ^ side for leaf in indices for side in (0, 1)})
    covered, supplied, nodes = leaves, [], []
    for row in levels[:-1]:
        have = set(covered)
        need = [node ^ 1 for node in covered if node ^ 1 not in have]
        nodes.append(need)
        supplied += [row[node] for node in need]
        covered = sorted({node >> 1 for node in covered})
    payloads = state["payloads"]
    state.update(
        leaves=leaves, nodes=nodes, supplied=supplied,
        results=[payloads[leaf] for leaf in leaves],
    )


def floor_verify(state):
    start, evaluate = state["task"].domain.start, state["evaluate"]
    claimed = dict(zip(state["leaves"], state["results"]))
    checked, verdicts, awaiting = {}, [], 0
    for index in state["indices"]:
        if index not in checked:
            checked[index] = evaluate(start + index) == claimed[index]
        ok = checked[index]
        verdicts.append((index, ok, "ok" if ok else "wrong_result"))
        if not ok:
            break
        awaiting += 1
    hashes = 0
    if awaiting:
        known = {leaf: _sha256(b"\x00" + claimed[leaf]).digest() for leaf in claimed}
        hashes = len(known)
        supply = iter(state["supplied"])
        for need in state["nodes"]:
            for node in need:
                known[node] = next(supply)
            order = sorted(known)
            known = {
                order[i] >> 1: _sha256(b"\x01" + known[order[i]] + known[order[i + 1]]).digest()
                for i in range(0, len(order), 2)
            }
            hashes += len(known)
        if known[0] != state["root"]:
            verdicts[:] = [(verdicts[0][0], False, "root_mismatch")]
    state.update(verdicts=verdicts, checks=len(verdicts), fold_hashes=hashes)


def floor_books(state):
    """Both ledgers' numbers, each message sized by arithmetic."""
    task_id = len(state["task"].task_id.encode())
    n, indices = state["n"], state["indices"]
    head = uint_size(task_id) + task_id
    commitment = head + 1 + len(state["root"]) + uint_size(n)
    challenge = head + uint_size(M) + sum(map(uint_size, indices))
    results, supplied = state["results"], state["supplied"]
    bundle = head + fixed_list_size(results) + fixed_list_size(supplied)
    accepted = all(ok for _index, ok, _reason in state["verdicts"])
    reason = "" if accepted else state["verdicts"][-1][2]
    verdict = head + 1 + 1 + len(reason)
    width = len(state["levels"][0])
    up, down = commitment + bundle, challenge + verdict
    built, checks, folded = n + (width > n) + width - 1, state["checks"], state["fold_hashes"]
    participant = {
        "evaluation_cost": float(state["honest"]), "evaluations": state["honest"],
        "verification_cost": 0.0, "verifications": 0,
        "hash_cost": float(built), "hashes": built,
        "bytes_sent": up, "bytes_received": down,
        "messages_sent": 2, "messages_received": 2,
        "storage_digests": 2 * width - 1, "screening_cost": 0.0,
        "counters": {"commitments": 1, "proofs": M},
    }
    supervisor = {
        "evaluation_cost": 0.0, "evaluations": 0,
        "verification_cost": float(checks), "verifications": checks,
        "hash_cost": float(folded), "hashes": folded,
        "bytes_sent": down, "bytes_received": up,
        "messages_sent": 2, "messages_received": 2,
        "storage_digests": 0, "screening_cost": 0.0,
        "counters": {"samples_verified": len(state["verdicts"])},
    }
    state["books"] = (participant, supervisor)


def floor_run(job):
    state = floor_commit(job)
    floor_challenge(job, state)
    floor_prove(state)
    floor_verify(state)
    floor_books(state)
    return state


def floor_steps(job):
    """``floor_run`` with a clock read between steps."""
    clock = time.perf_counter
    t0 = clock()
    state = floor_commit(job)
    t1 = clock()
    floor_challenge(job, state)
    t2 = clock()
    floor_prove(state)
    t3 = clock()
    floor_verify(state)
    t4 = clock()
    floor_books(state)
    t5 = clock()
    return (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)


# ----------------------------------------------------------------------
# The library: CBSScheme.run, and the same round step by step
# ----------------------------------------------------------------------


def library_steps(job):
    """``CBSScheme.run``'s body with a clock read between steps;
    construction, transfers and the result count as books."""
    clock, scheme = time.perf_counter, SCHEME
    task, behavior, seed = job.assignment, job.behavior, job.seed
    t0 = clock()
    p_ledger, s_ledger = CostLedger(), CostLedger()
    participant = scheme.participant(task, behavior, seed, p_ledger)
    supervisor = scheme.supervisor(task, seed, s_ledger)
    t1 = clock()
    commitment = participant.compute_and_commit()
    t2 = clock()
    transfer(commitment, p_ledger, s_ledger)
    t3 = clock()
    supervisor.receive_commitment(commitment)
    challenge = supervisor.make_challenge()
    t4 = clock()
    transfer(challenge, s_ledger, p_ledger)
    t5 = clock()
    proofs = participant.prove(challenge)
    t6 = clock()
    transfer(proofs, p_ledger, s_ledger)
    t7 = clock()
    outcome = supervisor.verify(proofs)
    verdict = VerdictMsg.of(outcome)
    t8 = clock()
    transfer(verdict, s_ledger, p_ledger)
    SchemeRunResult(outcome, p_ledger, s_ledger, participant.work)
    t9 = clock()
    return (
        t2 - t1, t4 - t3, t6 - t5, t8 - t7,
        (t1 - t0) + (t3 - t2) + (t5 - t4) + (t7 - t6) + (t9 - t8),
    )


def run_view(result):
    """A run's verdicts as the transcription spells them."""
    return [(v.index, v.accepted, v.reason.value) for v in result.outcome.verdicts]


def check_identity(job):
    """The gate: the transcription's root, indices, supplied digests,
    verdicts and books are the library's."""
    state = floor_run(job)
    task, behavior, seed = job.assignment, job.behavior, job.seed
    participant = CBSParticipant(task, behavior, salt=seed.to_bytes(8, "big"))
    supervisor = CBSSupervisor(task, n_samples=M, seed=seed)
    commitment = participant.compute_and_commit()
    supervisor.receive_commitment(commitment)
    challenge = supervisor.make_challenge()
    bundle = participant.prove(challenge).bundle
    assert commitment.root == state["root"]
    assert list(challenge.indices) == state["indices"]
    assert list(bundle.digests) == state["supplied"]
    result = SCHEME.run(task, behavior, seed=seed)
    assert run_view(result) == state["verdicts"]
    for ledger, books in zip(
        (result.participant_ledger, result.supervisor_ledger), state["books"]
    ):
        assert {name: getattr(ledger, name) for name in books} == books


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def verdict(ratio: float, share: float) -> str:
    if ratio <= 1.5:
        return "closed"
    if ratio > 2.0 and share > 0.05:
        return "open"
    return "neither"


def _timed(fn, job, runs=RUNS):
    clock = time.perf_counter
    start = clock()
    for _ in range(runs):
        fn(job)
    return (clock() - start) / runs


def _stepped(fn, job, runs=RUNS):
    totals = [0.0] * len(STEPS)
    for _ in range(runs):
        for i, seconds in enumerate(fn(job)):
            totals[i] += seconds
    return [total / runs for total in totals]


def measure(rounds: int = ROUNDS) -> list[dict]:
    jobs = dict(zip(("honest", "r=0.5"), participants()))
    for job in jobs.values():
        check_identity(job)

    def whole(job):
        SCHEME.run(job.assignment, job.behavior, seed=job.seed)

    runs = {name: ([], []) for name in jobs}
    steps = {name: ([], []) for name in jobs}
    for _ in range(rounds):
        for name, job in jobs.items():
            runs[name][0].append(_timed(whole, job))
            runs[name][1].append(_timed(floor_run, job))
            steps[name][0].append(_stepped(library_steps, job))
            steps[name][1].append(_stepped(floor_steps, job))
    rows = []
    for name in jobs:
        lib_steps, floor_step = steps[name]
        step_s = [statistics.median(col) for col in zip(*lib_steps)]
        total = sum(step_s)
        for i, step in enumerate(STEPS):
            lib = [round_[i] for round_ in lib_steps]
            floor = [round_[i] for round_ in floor_step]
            ratio = statistics.median(map(truediv, lib, floor))
            share = step_s[i] / total
            rows.append(_row(name, step, lib, floor, ratio, share))
        lib, floor = runs[name]
        ratio = statistics.median(map(truediv, lib, floor))
        rows.append(_row(name, "whole run", lib, floor, ratio, 1.0))
    return rows


def _row(participant, step, lib, floor, ratio, share):
    return {
        "participant": participant,
        "step": step,
        "us_per_run": round(statistics.median(lib) * 1e6, 1),
        "floor_us_per_run": round(statistics.median(floor) * 1e6, 1),
        "ratio": round(ratio, 2),
        "share": round(share, 3),
        "verdict": verdict(ratio, share),
    }


def test_run_beside_its_floor(save_table):
    rows = measure()
    save_table(
        "run_floor",
        format_table(
            rows,
            title=(
                f"One pop_small_cluster run vs bare hashlib/random "
                f"(n = 16, m = {M}, median of {ROUNDS} rounds of {RUNS} runs)"
            ),
        ),
    )
    assert [row["step"] for row in rows] == [*STEPS, "whole run"] * 2


def test_verdicts_follow_the_stop_rule():
    assert verdict(1.5, 0.9) == "closed"
    assert verdict(1.8, 0.9) == "neither"
    assert verdict(2.5, 0.05) == "neither"
    assert verdict(2.5, 0.06) == "open"
