"""Whole small runs against a straight-line reference, and the two
fixed per-run costs the round pays outside hashing.

A ``pop_small_cluster`` participant holds sixteen inputs, so what one
``CBSScheme.run`` / ``NICBSScheme.run`` costs is mostly the round's
fixed part: the challenge draw, the proof bundle, check 1, the shared
fold, four message sizes and the books.  Each case here runs the real
scheme on a small domain and re-derives, from the participant's
committed leaves alone, everything the round produced:

* the verdict list, the outcome and its reason;
* every field of both ledgers, counters included;
* the bytes of every message that crossed ``transfer()``.

The reference is written in the manner of ``proof_reference.py``: one
``hashlib`` call per node, ``random.Random`` for the challenge, and the
wire through that file's hand-written codec.  Nothing is imported from
the code under test except the scheme, the behaviours and the workload.

Also here: ``wire_size()`` equals ``len(encode())`` for every wire
message, and the interactive challenge is ``random.Random(seed)``'s
``randrange`` draw, on every domain size the code might special-case.
"""

from __future__ import annotations

import hashlib
import random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from proof_reference import ref_bundle, ref_bytes, ref_submission, ref_uint
from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.cli import main
from repro.core import CBSScheme, NICBSScheme
from repro.core import cbs as cbs_module
from repro.core.cbs import CBSSupervisor
from repro.core.protocol import (
    AssignMsg,
    CommitmentMsg,
    FullResultsMsg,
    NICBSSubmissionMsg,
    ProofBundleMsg,
    ReportsMsg,
    SampleChallengeMsg,
    VerdictMsg,
)
from repro.core.wire import WireMessage
from repro.exceptions import CodecError, SchemeConfigurationError, TaskError
from repro.grid.simulation import SimulationConfig
from repro.merkle.multiproof import Multiproof
from repro.merkle.tree import MerkleTree
from repro.tasks import FactoringTask, PasswordSearch, RangeDomain, TaskAssignment

SIZES = (1, 2, 3, 5, 16, 17, 64)
BEHAVIORS = {
    "honest": HonestBehavior(),
    "r=0.5": SemiHonestCheater(0.5),
    "r=0": SemiHonestCheater(0.0),
}
SCHEMES = ("cbs", "cbs-distinct", "ni-cbs")
M = 16

LEDGER_FIELDS = (
    "evaluation_cost", "evaluations", "verification_cost", "verifications",
    "hash_cost", "hashes", "bytes_sent", "bytes_received", "messages_sent",
    "messages_received", "storage_digests", "screening_cost", "counters",
)


# ----------------------------------------------------------------------
# The reference round
# ----------------------------------------------------------------------


def sha(data):
    return hashlib.sha256(data).digest()


def ref_password(fn, x):
    """``PasswordSearch``: the salt and the key, length-framed, hashed,
    then block 0 of the counter-mode expansion, truncated."""
    key = x.to_bytes((x.bit_length() + 7) // 8 or 1, "big")
    framed = b""
    for part in (fn.salt, key):
        framed += len(part).to_bytes(8, "big") + part
    return sha(sha(framed) + bytes(8))[: fn.digest_bytes]


def ref_levels(payloads):
    """Leaf level first; counts every hash the build pays."""
    hashes = 0
    level = []
    for payload in payloads:
        level.append(sha(b"\x00" + payload))
        hashes += 1
    width = 1
    while width < len(level):
        width *= 2
    if width > len(level):
        empty = sha(b"\x02repro/empty")
        hashes += 1
        level += [empty] * (width - len(level))
    levels = [level]
    while len(level) > 1:
        parents = []
        for i in range(0, len(level), 2):
            parents.append(sha(b"\x01" + level[i] + level[i + 1]))
            hashes += 1
        levels.append(parents)
        level = parents
    return levels, hashes


def ref_fold_hashes(indices, height):
    """One fold of the tree the samples span: a hash per leaf of each
    touched pair (a padding leaf's is the empty-leaf hash) and per
    covered node above the leaf level."""
    touched = set(indices)
    if height:
        touched |= {index ^ 1 for index in indices}
    count = len(touched)
    for level in range(1, height + 1):
        count += len({index >> level for index in indices})
    return count


def ref_books(**fields):
    books = {name: 0 for name in LEDGER_FIELDS}
    books["counters"] = {}
    for name in ("evaluation_cost", "verification_cost", "hash_cost", "screening_cost"):
        books[name] = 0.0
    books.update(fields)
    return books


def reference_run(scheme_name, task, payloads, n_honest, seed, stop):
    """``(verdicts, accepted, reason, participant books, supervisor
    books, wire)`` for one round over the committed ``payloads``."""
    fn, n = task.function, task.n_inputs
    levels, build_hashes = ref_levels(payloads)
    root, height = levels[-1][0], len(levels) - 1
    task_id = task.task_id.encode("utf-8")
    commitment = ref_bytes(task_id) + ref_bytes(root) + ref_uint(n)

    if scheme_name == "ni-cbs":
        indices, link = [], root
        for _ in range(M):
            link = sha(link)
            indices.append(int.from_bytes(link, "big") % n)
    else:
        rng = random.Random(seed)
        if scheme_name == "cbs":
            indices = [rng.randrange(n) for _ in range(M)]
        else:
            indices = rng.sample(range(n), min(M, n))
    m = len(indices)

    proofs = []
    for index in indices:
        siblings = [levels[level][(index >> level) ^ 1] for level in range(height)]
        proofs.append((index, payloads[index], (index, n, 0, siblings)))

    verdicts, checks = [], 0
    for index in indices:
        checks += 1
        if ref_password(fn, task.domain[index]) == payloads[index]:
            verdicts.append((index, True, "ok"))
        else:
            verdicts.append((index, False, "wrong_result"))
            if stop:
                break
    fold = ref_fold_hashes(indices, height) if any(v[1] for v in verdicts) else 0
    accepted = all(v[1] for v in verdicts)
    reason = "ok"
    for verdict in verdicts:
        if not verdict[1]:
            reason = verdict[2]

    participant = ref_books(
        evaluation_cost=float(n_honest), evaluations=n_honest,
        hash_cost=float(build_hashes), hashes=build_hashes,
        storage_digests=2 * len(levels[0]) - 1,
        counters={"commitments": 1, "proofs": m},
    )
    supervisor = ref_books(
        verification_cost=float(checks), verifications=checks,
        hash_cost=float(fold), hashes=fold,
        counters={"samples_verified": len(verdicts)},
    )
    verdict_msg = (
        ref_bytes(task_id) + (b"\x01" if accepted else b"\x00")
        + ref_bytes(b"" if accepted else reason.encode())
    )
    if scheme_name == "ni-cbs":
        for books in (participant, supervisor):
            books["hashes"] += m
            books["hash_cost"] += float(m)
        wire = [ref_submission(task.task_id, root, n, proofs, payloads), verdict_msg]
        up, down, sent = len(wire[0]), len(verdict_msg), 1
    else:
        challenge = ref_bytes(task_id) + ref_uint(m)
        for index in indices:
            challenge += ref_uint(index)
        bundle = ref_bundle(task.task_id, proofs, payloads)
        wire = [commitment, challenge, bundle, verdict_msg]
        up = len(commitment) + len(bundle)
        down = len(challenge) + len(verdict_msg)
        sent = 2
    participant.update(
        bytes_sent=up, bytes_received=down, messages_sent=sent, messages_received=sent
    )
    supervisor.update(
        bytes_sent=down, bytes_received=up, messages_sent=sent, messages_received=sent
    )
    return verdicts, accepted, reason, participant, supervisor, wire


# ----------------------------------------------------------------------
# The grid
# ----------------------------------------------------------------------


def make_scheme(name, n, stop):
    if name == "ni-cbs":
        return NICBSScheme(n_samples=M, stop_on_first_failure=stop)
    if name == "cbs":
        return CBSScheme(n_samples=M, stop_on_first_failure=stop)
    return CBSScheme(
        n_samples=min(M, n), with_replacement=False, stop_on_first_failure=stop
    )


def books_of(ledger):
    return {name: getattr(ledger, name) for name in LEDGER_FIELDS}


@pytest.fixture
def wire_log(monkeypatch):
    """Every message ``transfer()`` accounts, as the bytes it encodes to
    (both schemes' runs go through ``CBSScheme.run``'s)."""
    sent = []
    original = cbs_module.transfer

    def recording(msg, sender, receiver):
        sent.append(msg.encode())
        return original(msg, sender, receiver)

    monkeypatch.setattr(cbs_module, "transfer", recording)
    return sent


@pytest.mark.parametrize("stop", [True, False], ids=["stop", "all"])
@pytest.mark.parametrize("scheme_name", SCHEMES)
@pytest.mark.parametrize("behavior_name", list(BEHAVIORS))
@pytest.mark.parametrize("n", SIZES)
def test_small_run_matches_the_reference(n, behavior_name, scheme_name, stop, wire_log):
    task = TaskAssignment(f"task-{n}", RangeDomain(1000 * n, 1001 * n), PasswordSearch())
    seed = 7919 * n + len(behavior_name)
    result = make_scheme(scheme_name, n, stop).run(task, BEHAVIORS[behavior_name], seed=seed)
    work = result.work
    verdicts, accepted, reason, participant, supervisor, wire = reference_run(
        scheme_name, task, work.leaf_payloads, len(work.honest_indices), seed, stop
    )
    outcome = result.outcome
    assert [(v.index, v.accepted, v.reason.value) for v in outcome.verdicts] == verdicts
    assert (outcome.accepted, outcome.reason.value) == (accepted, reason)
    assert books_of(result.participant_ledger) == participant
    assert books_of(result.supervisor_ledger) == supervisor
    assert wire_log == wire


class _CountingPasswords(PasswordSearch):
    """Counts the evaluations check 1 makes; ``verify`` stays the default."""

    def __init__(self):
        super().__init__()
        self.checked = []

    def evaluator(self):
        evaluate = super().evaluator()

        def counted(x):
            self.checked.append(x)
            return evaluate(x)

        return counted


class _CountingFactoring(FactoringTask):
    """A function with its own ``verify``: asked once per sample."""

    def __init__(self):
        super().__init__(bits=8)
        self.verified = []

    def verify(self, x, claimed):
        self.verified.append(x)
        return super().verify(x, claimed)


@pytest.mark.parametrize("stop", [True, False])
def test_check_one_evaluates_each_distinct_leaf_once(stop):
    fn = _CountingPasswords()
    task = TaskAssignment("t", RangeDomain(100, 116), fn)
    result = CBSScheme(n_samples=M, stop_on_first_failure=stop).run(
        task, HonestBehavior(), seed=3
    )
    indices = [v.index for v in result.outcome.verdicts]
    assert len(indices) == M and len(set(indices)) < M  # repeats were drawn
    assert sorted(fn.checked) == sorted(100 + i for i in set(indices))
    # ...and every sample is still charged one verification.
    assert result.supervisor_ledger.verifications == M


def test_a_function_with_its_own_verify_is_asked_per_sample():
    fn = _CountingFactoring()
    task = TaskAssignment("t", RangeDomain(2, 18), fn)
    result = CBSScheme(n_samples=M).run(task, HonestBehavior(), seed=3)
    verdicts = result.outcome.verdicts
    assert fn.verified == [task.domain[v.index] for v in verdicts]
    assert result.supervisor_ledger.verifications == len(verdicts) == M
    assert result.supervisor_ledger.verification_cost == M * fn.verify_cost


def test_the_grid_reaches_both_verdicts():
    """The cheaters' cases are not all caught at the first sample, nor
    all let through: both halves of check 1 are exercised."""
    task = TaskAssignment("t", RangeDomain(0, 16), PasswordSearch())
    outcomes = {
        CBSScheme(n_samples=2).run(task, SemiHonestCheater(0.5), seed=seed).outcome.accepted
        for seed in range(40)
    }
    assert outcomes == {True, False}


# ----------------------------------------------------------------------
# wire_size() is len(encode()), for every wire message
# ----------------------------------------------------------------------

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
#: Varints of one, two, three and many bytes.
UINT = st.one_of(
    st.integers(0, 0x7F), st.integers(0x80, 0x3FFF),
    st.integers(1 << 14, 1 << 21), st.integers(0, (1 << 70)),
)
BLOB = st.binary(max_size=300)


@st.composite
def bundles(draw):
    """A bundle in every form a message stores it: empty, a tree's
    multiproof, or bare wire fields (long lists and wide items without
    building a tree that size)."""
    form = draw(st.sampled_from(["empty", "tree", "fields"]))
    if form == "empty":
        return Multiproof((), ())
    width = draw(st.integers(1, 300))
    item = st.binary(min_size=width, max_size=width)
    if form == "fields":
        return Multiproof(
            tuple(draw(st.lists(item, max_size=8))),
            tuple(draw(st.lists(st.binary(min_size=32, max_size=32), max_size=8))),
        )
    payloads = draw(st.lists(item, min_size=1, max_size=40))
    indices = draw(
        st.lists(st.integers(0, len(payloads) - 1), min_size=1, max_size=12)
    )
    return MerkleTree(payloads).multiproof(indices, payloads)


MESSAGES = {
    CommitmentMsg: st.builds(CommitmentMsg, TEXT, BLOB, UINT),
    SampleChallengeMsg: st.builds(
        SampleChallengeMsg, TEXT, st.lists(UINT, max_size=20).map(tuple)
    ),
    ProofBundleMsg: st.builds(ProofBundleMsg, TEXT, bundles()),
    NICBSSubmissionMsg: st.builds(NICBSSubmissionMsg, TEXT, BLOB, UINT, bundles()),
    FullResultsMsg: st.builds(FullResultsMsg, TEXT, st.lists(BLOB, max_size=20).map(tuple)),
    ReportsMsg: st.builds(ReportsMsg, TEXT, st.lists(TEXT, max_size=10).map(tuple)),
    AssignMsg: st.builds(AssignMsg, TEXT, UINT, TEXT),
    VerdictMsg: st.builds(VerdictMsg, TEXT, st.booleans(), TEXT),
}


def test_every_wire_message_is_drawn():
    assert set(WireMessage.__subclasses__()) == set(MESSAGES)


@given(st.one_of(*MESSAGES.values()))
def test_wire_size_is_the_encoding_length(msg):
    assert msg.wire_size() == len(msg.encode())


@pytest.mark.parametrize(
    "msg, error",
    [
        (CommitmentMsg("t", b"r", -1), CodecError),
        (SampleChallengeMsg("t", (3, -1)), CodecError),
        (AssignMsg("t", -(1 << 70)), CodecError),
        (CommitmentMsg("t", "not bytes", 1), TypeError),
    ],
)
def test_what_encode_refuses_wire_size_refuses(msg, error):
    with pytest.raises(error):
        msg.encode()
    with pytest.raises(error):
        msg.wire_size()


# ----------------------------------------------------------------------
# The challenge is random.Random(seed).randrange(n), draw for draw
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, (1 << 31) + 1, 1 << 64])
@pytest.mark.parametrize("seed", [0, 1, 1_000_003, (1 << 64) - 1])
def test_challenge_indices_are_randrange_draws(n, seed):
    # len() stops below 2**63, so the task is a stand-in with the size.
    task = SimpleNamespace(task_id="t", n_inputs=n, function=PasswordSearch())
    supervisor = CBSSupervisor(task, n_samples=M, seed=seed)
    supervisor.receive_commitment(CommitmentMsg("t", bytes(32), n))
    rng = random.Random(seed)
    assert supervisor.make_challenge().indices == tuple(
        rng.randrange(n) for _ in range(M)
    )


# ----------------------------------------------------------------------
# A run's seed is its 8-byte salt: out of range is a configuration error
# ----------------------------------------------------------------------

OUT_OF_RANGE = [-1, -(1 << 64), 1 << 64, 1 << 80]


@pytest.mark.parametrize("seed", OUT_OF_RANGE)
@pytest.mark.parametrize("scheme", [CBSScheme(n_samples=2), NICBSScheme(n_samples=2)])
def test_run_refuses_a_seed_outside_the_salt(scheme, seed):
    task = TaskAssignment("t", RangeDomain(0, 4), PasswordSearch())
    with pytest.raises(SchemeConfigurationError, match=r"2\*\*64"):
        scheme.run(task, HonestBehavior(), seed=seed)


@pytest.mark.parametrize("scheme", [CBSScheme(n_samples=2), NICBSScheme(n_samples=2)])
def test_run_takes_the_whole_salt_range(scheme):
    task = TaskAssignment("t", RangeDomain(0, 4), PasswordSearch())
    for seed in (0, (1 << 64) - 1):
        assert scheme.run(task, HonestBehavior(), seed=seed).outcome.accepted


def config(seed, participants=4):
    return SimulationConfig(
        domain=RangeDomain(0, 64), function=PasswordSearch(),
        scheme=CBSScheme(n_samples=4), n_participants=participants, seed=seed,
    )


@pytest.mark.parametrize("seed", [-1, 18446744073709, 1 << 64])
def test_simulation_refuses_seeds_that_derive_outside_the_salt(seed):
    with pytest.raises(TaskError, match="seed"):
        config(seed)


def test_simulation_takes_the_last_seed_that_fits():
    # derive_seed(seed, i) = seed * 1_000_003 + i must stay below 2**64
    # for every participant i.
    last = ((1 << 64) - 4) // 1_000_003
    config(last)
    with pytest.raises(TaskError):
        config(last + 1)


@pytest.mark.parametrize("seed", ["-1", "18446744073709"])
def test_population_cli_reports_a_bad_seed_in_one_line(seed, capsys):
    code = main([
        "population", "--participants", "4", "--n", "64", "--m", "4", "--seed", seed,
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("repro: ") and "seed" in err
