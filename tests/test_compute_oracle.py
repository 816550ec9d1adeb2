"""Compute-path oracle: the batched participant against per-input loops.

The participant evaluates, fabricates, selects and meters a whole
assignment per call.  The reference below does each of those one input
at a time, the way the code read before batching, and on its own PRF:
a straight-line ``hashlib`` transcription (length-prefix every part,
hash, expand in counter mode) that shares nothing with
:mod:`repro.utils.prf`.  It keeps its own books too — ``cost`` added
once per evaluation, in order — so the ledgers are compared *bit for
bit*: a bulk charge that multiplies instead of adding shows up here
with ``cost=0.1``.
"""

import hashlib
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting import CostLedger
from repro.cheating import (
    BernoulliGuess,
    ColludingCheater,
    HonestBehavior,
    MaliciousBehavior,
    SemiHonestCheater,
    UniformValueGuess,
    ZeroGuess,
)
from repro.core.cbs import CBSParticipant
from repro.core.protocol import SampleChallengeMsg
from repro.exceptions import LedgerError, TaskError
from repro.merkle.hashing import CountingHash, HashFunction
from repro.tasks import (
    ExplicitDomain,
    PasswordSearch,
    RangeDomain,
    SignalSearch,
    TaskAssignment,
)
from repro.tasks import workloads
from repro.tasks.function import GuessableFunction, MeteredFunction, TaskFunction
from repro.utils.prf import PrfPrefix, prf_bytes, prf_float, prf_int

# ----------------------------------------------------------------------
# The reference
# ----------------------------------------------------------------------


def ref_prf_bytes(*parts, n_bytes=32):
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    seed = hasher.digest()
    out = b""
    counter = 0
    while len(out) < n_bytes:
        out += hashlib.sha256(seed + counter.to_bytes(8, "big")).digest()
        counter += 1
    return out[:n_bytes]


def ref_prf_int(*parts, bound):
    limit = (1 << 64) - ((1 << 64) % bound)
    counter = 0
    while True:
        draw = int.from_bytes(
            ref_prf_bytes(*parts, counter.to_bytes(8, "big"), n_bytes=8), "big"
        )
        if draw < limit:
            return draw % bound
        counter += 1


def ref_prf_float(*parts):
    return (int.from_bytes(ref_prf_bytes(*parts, n_bytes=8), "big") >> 11) / float(
        1 << 53
    )


def ref_encode(x):
    if isinstance(x, bytes):
        return x
    if isinstance(x, int):
        return x.to_bytes(max((x.bit_length() + 7) // 8, 1), "big")
    return x.encode("utf-8")


def ref_password(fn, x):
    return ref_prf_bytes(fn.salt, ref_encode(x), n_bytes=fn.digest_bytes)


def ref_signal(fn, x):
    return b"\x01" if ref_prf_float(fn.sky_seed, ref_encode(x)) >= fn.threshold else b"\x00"


def ref_choose_honest(behavior, n, task_id, salt):
    n_honest = min(max(round(behavior.honesty_ratio * n), 0), n)
    if behavior.selection == "prefix":
        return set(range(n_honest))
    order = list(range(n))
    for i in range(n_honest):
        j = i + ref_prf_int(
            b"dprime", task_id.encode("utf-8"), salt, i.to_bytes(8, "big"),
            bound=n - i,
        )
        order[i], order[j] = order[j], order[i]
    return set(order[:n_honest])


def ref_guess(guesser, index, truth, result_size, salt):
    """One fabricated leaf; ``truth`` is the free oracle's answer."""
    tail = index.to_bytes(8, "big")
    if isinstance(guesser, ZeroGuess):
        return ref_prf_bytes(b"zero-guess", salt, tail, n_bytes=result_size)
    if isinstance(guesser, UniformValueGuess):
        return guesser.alphabet[
            ref_prf_int(b"uniform-guess", salt, tail, bound=len(guesser.alphabet))
        ]
    key = (b"bernoulli-guess", salt, tail)
    if guesser.q > 0.0 and ref_prf_float(*key) < guesser.q:
        return truth
    wrong = ref_prf_bytes(*key, b"wrong", n_bytes=result_size)
    if guesser.q > 0.0 and wrong == truth:
        wrong = wrong[:-1] + bytes([wrong[-1] ^ 0xFF])
    return wrong


class RefBooks:
    def __init__(self):
        self.evaluations = 0
        self.evaluation_cost = 0.0


def ref_produce(behavior, assignment, ref_f, books, salt):
    """The per-input ``produce``: one input, one decision, one charge."""
    n = assignment.n_inputs
    if isinstance(behavior, ColludingCheater):
        salt = behavior.cartel_key
    if isinstance(behavior, SemiHonestCheater):
        honest = ref_choose_honest(behavior, n, assignment.task_id, salt)
    else:
        honest = set(range(n))
    payloads = []
    for i in range(n):
        x = assignment.domain[i]
        if i in honest:
            books.evaluations += 1
            books.evaluation_cost += assignment.function.cost
            payloads.append(ref_f(assignment.function, x))
        else:
            payloads.append(
                ref_guess(
                    behavior.guesser, i, ref_f(assignment.function, x),
                    assignment.function.result_size, salt,
                )
            )
    return payloads, honest


# ----------------------------------------------------------------------
# PRF: known answers from the pre-batching implementation, and the
# prefix primitive against the per-item calls
# ----------------------------------------------------------------------

#: ``(parts, n_bytes, hex)`` taken from ``prf_bytes`` before it gained the
#: single-block fast path: empty parts, both sides of the one-block
#: boundary, multi-block 33/64/100.
PRF_VECTORS = [
    ((), 32, "5c5d42dcf39f71c0226ca720d8d518db615b5773f038e5e491963f6f47621bbd"),
    ((), 0, ""),
    ((b"",), 32, "6529637920af0dab831d04ff378fa1038ef10fec74e7c02e9ccf9f1cabce8935"),
    ((b"", b""), 16, "f869ec042f28d390eba091651ebbfc02"),
    ((b"ab", b"c"), 32, "d855ce111fa84686effac2fdc7f52df3fadf686a2cc6acd0bf0c86d65d53d67d"),
    ((b"a", b"bc"), 32, "b3322a3e2bde164b815f83ef36ae5651242122520882aafc147ce7993c8fe1a0"),
    ((b"repro/password", b"\x00"), 16, "0cce6f16cc4d99b9f0089f7089ccfe87"),
    ((b"repro/password", b"\x01\x00"), 4, "4b0fa0d2"),
    (
        (b"zero-guess", b"", b"\x00\x00\x00\x00\x00\x00\x00\x07"),
        16,
        "59cb2fd1113db86ebef1a8541b204137",
    ),
    ((b"k",), 1, "ad"),
    ((b"k",), 8, "ad78222661611a82"),
    ((b"k",), 31, "ad78222661611a821a231d45209730e4f9e08c3382c39c13b1e2ef9298558b"),
    ((b"k",), 32, "ad78222661611a821a231d45209730e4f9e08c3382c39c13b1e2ef9298558bee"),
    ((b"k",), 33, "ad78222661611a821a231d45209730e4f9e08c3382c39c13b1e2ef9298558bee74"),
    (
        (b"k",),
        64,
        "ad78222661611a821a231d45209730e4f9e08c3382c39c13b1e2ef9298558bee"
        "74fcfa064308d45fd74593db12ba2048cd4b34cdedd9db396e806b14a4fcb0c5",
    ),
    (
        (b"k",),
        100,
        "ad78222661611a821a231d45209730e4f9e08c3382c39c13b1e2ef9298558bee"
        "74fcfa064308d45fd74593db12ba2048cd4b34cdedd9db396e806b14a4fcb0c5"
        "0695054d781f097e11f110f9b189aa43006c4cd02995183e2389bceca70baaf2"
        "c5c3a740",
    ),
    (
        (b"", b"x", b""),
        33,
        "ce0a15ee8360ce943776ef5732a3140219cfa7a1c17e1eb4ab93c82ad4e3ef8cab",
    ),
    (
        (b"x" * 200, b"y" * 70),
        64,
        "f636af38b5d71f20bacf77deaf62daa2cc46f68022bc5afc1701a36a72db91ca"
        "ffade2323432b84240f64c2dd9a9c37cb11f6b60b8740e8e6c8c7980f5edf120",
    ),
]

parts_st = st.lists(st.binary(max_size=40), max_size=4)


class TestPrf:
    @pytest.mark.parametrize("parts, n_bytes, want", PRF_VECTORS)
    def test_known_answers(self, parts, n_bytes, want):
        assert prf_bytes(*parts, n_bytes=n_bytes).hex() == want
        assert ref_prf_bytes(*parts, n_bytes=n_bytes).hex() == want

    def test_known_draws(self):
        # Same provenance; 2**63 + 1 rejects about every other draw.
        tail = (3).to_bytes(8, "big")
        assert prf_int(b"a", bound=10) == 2
        assert prf_int(b"dprime", b"t", b"", tail, bound=4093) == 458
        assert prf_int(b"z", bound=2**64) == 655242268641406457
        assert prf_int(b"z", bound=2**63 + 1) == 655242268641406457
        assert prf_float(b"a") == 0.5251392263791714

    @given(parts_st, st.integers(0, 100))
    def test_bytes_match_reference(self, parts, n_bytes):
        assert prf_bytes(*parts, n_bytes=n_bytes) == ref_prf_bytes(
            *parts, n_bytes=n_bytes
        )

    @given(parts_st, st.lists(st.binary(max_size=40), max_size=6), st.integers(0, 100))
    def test_prefix_bytes_many(self, parts, tails, n_bytes):
        assert PrfPrefix(*parts).bytes_many(iter(tails), n_bytes) == [
            ref_prf_bytes(*parts, tail, n_bytes=n_bytes) for tail in tails
        ]

    @given(
        parts_st,
        st.lists(
            st.tuples(
                st.binary(max_size=12),
                st.one_of(
                    st.integers(1, 2**64),
                    st.sampled_from([1, 2**63 + 1, 2**64 - 1, 2**64]),
                ),
            ),
            max_size=6,
        ),
    )
    def test_prefix_int_many(self, parts, draws):
        tails = [tail for tail, _ in draws]
        bounds = [bound for _, bound in draws]
        assert PrfPrefix(*parts).int_many(tails, bounds) == [
            ref_prf_int(*parts, tail, bound=bound) for tail, bound in draws
        ]

    @pytest.mark.parametrize("bound", [2**64 + 1, 2**65, 10**30])
    def test_bound_beyond_draw_width_is_refused(self, bound):
        # The rejection limit computes to 0 there: it used to spin forever.
        with pytest.raises(ValueError, match="2\\*\\*64"):
            prf_int(b"k", bound=bound)
        with pytest.raises(ValueError, match="2\\*\\*64"):
            PrfPrefix(b"k").int_many([b""], [bound])

    def test_nonpositive_bound_is_refused_in_a_batch(self):
        with pytest.raises(ValueError):
            PrfPrefix(b"k").int_many([b""], [0])


# ----------------------------------------------------------------------
# evaluate_many against the per-input loop, every workload
# ----------------------------------------------------------------------

mixed_inputs = st.lists(
    st.one_of(
        st.integers(0, 2**70),
        st.binary(max_size=20),
        st.text(max_size=10),
    ),
    max_size=12,
)
small_ints = st.lists(st.integers(0, 4000), max_size=8)

#: One instance per class in ``tasks/workloads.py`` with the inputs it
#: takes (the three real computations call ``int(x)``).
WORKLOADS = {
    "PasswordSearch": (workloads.PasswordSearch(b"s", digest_bytes=16), mixed_inputs),
    "MoleculeScreening": (workloads.MoleculeScreening(), mixed_inputs),
    "SignalSearch": (workloads.SignalSearch(), mixed_inputs),
    "MersenneCheck": (workloads.MersenneCheck(), st.lists(st.integers(0, 130), max_size=8)),
    "MonteCarloEstimate": (workloads.MonteCarloEstimate(n_samples=5), mixed_inputs),
    "FactoringTask": (workloads.FactoringTask(bits=8), small_ints),
    "OptimizationSearch": (workloads.OptimizationSearch(n_wells=2), small_ints),
}


def test_every_workload_class_is_covered():
    declared = {
        name
        for name, cls in inspect.getmembers(workloads, inspect.isclass)
        if issubclass(cls, TaskFunction) and cls.__module__ == workloads.__name__
    }
    assert declared == set(WORKLOADS)


class TestEvaluateMany:
    @pytest.mark.parametrize("name", WORKLOADS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_the_per_input_loop(self, name, data):
        fn, inputs_st = WORKLOADS[name]
        xs = data.draw(inputs_st)
        want = [fn.evaluate(x) for x in xs]
        assert fn.evaluate_many(xs) == want
        assert fn.evaluate_many(tuple(xs)) == want
        assert GuessableFunction(fn, 0.25).evaluate_many(xs) == want

    @pytest.mark.parametrize("digest_bytes", [4, 16, 31, 32, 33, 64, 100])
    @settings(max_examples=30, deadline=None)
    @given(xs=mixed_inputs, salt=st.binary(max_size=80))
    def test_password_search_against_the_reference(self, digest_bytes, xs, salt):
        fn = PasswordSearch(salt, digest_bytes=digest_bytes)
        want = [ref_password(fn, x) for x in xs]
        assert fn.evaluate_many(xs) == want
        assert [fn.evaluate(x) for x in xs] == want

    def test_a_range_is_taken_as_is(self):
        fn = PasswordSearch()
        assert fn.evaluate_many(range(300, 340)) == [
            ref_password(fn, x) for x in range(300, 340)
        ]

    @settings(max_examples=40, deadline=None)
    @given(xs=mixed_inputs, cost=st.floats(0, 1e6, allow_nan=False))
    def test_metered_batch_charges_like_the_loop(self, xs, cost):
        fn = PasswordSearch(cost=cost)
        batched, looped = CostLedger(), CostLedger()
        got = MeteredFunction(fn, batched).evaluate_many(xs)
        metered = MeteredFunction(fn, looped)
        assert got == [metered.evaluate(x) for x in xs]
        assert batched == looped

    @pytest.mark.parametrize("bad", [-1, -(2**70), 1.5, None])
    def test_bad_inputs_are_task_errors(self, bad):
        # -1 used to leak OverflowError out of int.to_bytes.
        fn = PasswordSearch()
        with pytest.raises(TaskError):
            fn.evaluate(bad)
        with pytest.raises(TaskError):
            fn.evaluate_many([1, bad, 2])


# ----------------------------------------------------------------------
# produce: every behaviour x guesser x selection x salt
# ----------------------------------------------------------------------

BOOLEAN = [b"\x00", b"\x01"]

#: (function, its reference, the guessers whose output size fits it).
FUNCTIONS = {
    "password": (
        PasswordSearch(cost=0.1),
        ref_password,
        {"zero": ZeroGuess(), "bernoulli": BernoulliGuess(0.3), "never": BernoulliGuess(0.0)},
    ),
    "signal": (
        SignalSearch(cost=0.1),
        ref_signal,
        {
            "zero": ZeroGuess(),
            "bernoulli": BernoulliGuess(0.5),
            "always": BernoulliGuess(1.0),
            "uniform": UniformValueGuess(BOOLEAN),
        },
    ),
}
CASES = [(f, g) for f, (_, _, guessers) in FUNCTIONS.items() for g in guessers]


def behaviours(guesser, ratio, cartel_key):
    return [
        HonestBehavior(),
        MaliciousBehavior(),
        SemiHonestCheater(ratio, guesser=guesser),
        SemiHonestCheater(ratio, guesser=guesser, selection="prefix"),
        ColludingCheater(ratio, cartel_key, guesser=guesser),
    ]


domains = st.one_of(
    st.builds(
        lambda start, size: RangeDomain(start, start + size),
        st.integers(0, 2**40),
        st.integers(1, 40),
    ),
    st.builds(
        ExplicitDomain,
        st.lists(
            st.one_of(st.integers(0, 2**70), st.binary(max_size=9), st.text(max_size=5)),
            min_size=1,
            max_size=24,
        ),
    ),
)


class TestProduce:
    @pytest.mark.parametrize("fn_name, guesser_name", CASES)
    @settings(max_examples=25, deadline=None)
    @given(
        domain=domains,
        ratio=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)),
        salt=st.binary(max_size=12),
        task_id=st.text(max_size=8),
        cartel_key=st.binary(min_size=1, max_size=8),
    )
    def test_matches_the_per_input_reference(
        self, fn_name, guesser_name, domain, ratio, salt, task_id, cartel_key
    ):
        fn, ref_f, guessers = FUNCTIONS[fn_name]
        assignment = TaskAssignment(task_id, domain, fn)
        for behavior in behaviours(guessers[guesser_name], ratio, cartel_key):
            ledger = CostLedger()
            work = behavior.produce(
                assignment, MeteredFunction(fn, ledger).evaluate, salt=salt
            )
            books = RefBooks()
            payloads, honest = ref_produce(behavior, assignment, ref_f, books, salt)
            assert work.leaf_payloads == payloads, behavior.name
            assert work.honest_indices == honest, behavior.name
            # ``==`` on the float: 0.1 added once per evaluation, not
            # multiplied by their number.
            assert ledger.evaluations == books.evaluations
            assert ledger.evaluation_cost == books.evaluation_cost
            assert ledger == CostLedger(
                evaluations=books.evaluations, evaluation_cost=books.evaluation_cost
            )

    @settings(max_examples=40, deadline=None)
    @given(domain=domains, ratio=st.floats(0, 1), salt=st.binary(max_size=6))
    def test_a_plain_callable_is_called_once_per_honest_input(
        self, domain, ratio, salt
    ):
        fn = PasswordSearch()
        assignment = TaskAssignment("t", domain, fn)
        for behavior in behaviours(ZeroGuess(), ratio, b"k"):
            seen = []

            def evaluate(x):
                seen.append(x)
                return fn.evaluate(x)

            work = behavior.produce(assignment, evaluate, salt=salt)
            assert seen == [domain[i] for i in sorted(work.honest_indices)]

    def test_an_unbound_evaluate_is_a_plain_callable(self):
        # Only a *bound* TaskFunction.evaluate is handed the batch; a
        # wrapper around one is called per input like any closure.
        calls = []

        class Spy(PasswordSearch):
            def evaluate_many(self, xs):
                calls.append(len(xs))
                return super().evaluate_many(xs)

        spy = Spy()
        task = TaskAssignment("t", RangeDomain(0, 9), spy)
        HonestBehavior().produce(task, spy.evaluate)
        assert calls == [9]
        HonestBehavior().produce(task, lambda x: spy.evaluate(x))
        assert calls == [9]


class Brittle(TaskFunction):
    """Raises on one input; the inherited ``evaluate_many`` loops."""

    cost = 0.1
    result_size = 16

    def __init__(self, poison):
        self.poison = poison

    def evaluate(self, x):
        if x == self.poison:
            raise TaskError(f"cannot evaluate {x}")
        return ref_prf_bytes(b"brittle", ref_encode(x), n_bytes=16)


class TestFailureMidBatch:
    """The documented ledger state when ``f`` raises part-way."""

    N, POISON = 20, 7

    def task(self):
        return TaskAssignment("t", RangeDomain(0, self.N), Brittle(self.POISON))

    def test_metered_batch_is_charged_in_full(self):
        # The batch is charged before it runs, as each single
        # evaluation is: all N stay on the books.
        task, ledger = self.task(), CostLedger()
        with pytest.raises(TaskError):
            HonestBehavior().produce(
                task, MeteredFunction(task.function, ledger).evaluate
            )
        looped = CostLedger()
        for _ in range(self.N):
            looped.charge_evaluation(0.1)
        assert ledger == looped

    def test_plain_callable_stops_at_the_failing_input(self):
        task, ledger = self.task(), CostLedger()
        metered = MeteredFunction(task.function, ledger)
        with pytest.raises(TaskError):
            HonestBehavior().produce(task, lambda x: metered.evaluate(x))
        assert ledger.evaluations == self.POISON + 1

    def test_a_refused_charge_runs_nothing(self):
        calls = []

        class Counting(PasswordSearch):
            def evaluate_many(self, xs):
                calls.append(len(xs))
                return super().evaluate_many(xs)

        fn = Counting(cost=-1.0)
        with pytest.raises(LedgerError):
            MeteredFunction(fn, CostLedger()).evaluate_many([1, 2, 3])
        assert calls == []


# ----------------------------------------------------------------------
# Bulk charges
# ----------------------------------------------------------------------

costs = st.one_of(
    st.floats(0, 1e300, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.1, 0.3, 1.0, 3.0, 2.0**52, 2.0**53, 1e-320]),
)
counts = st.integers(0, 300)


class TestBulkCharges:
    @settings(max_examples=200, deadline=None)
    @given(first=costs, first_n=counts, cost=costs, count=counts)
    def test_equal_repeated_single_charges(self, first, first_n, cost, count):
        bulk, single = CostLedger(), CostLedger()
        for each, n in ((first, first_n), (cost, count)):
            bulk.charge_hashes(each, n)
            bulk.charge_evaluations(each, n)
            for _ in range(n):
                single.charge_hash(each)
                single.charge_evaluation(each)
        assert bulk == single  # dataclass ==: every float bit for bit

    def test_a_dime_a_time(self):
        ledger = CostLedger()
        ledger.charge_hashes(0.1, 10)
        assert ledger.hash_cost == sum([0.1] * 10) != 0.1 * 10

    def test_integer_costs_past_exactness_still_add(self):
        bulk, single = CostLedger(), CostLedger()
        for ledger in (bulk, single):
            ledger.charge_evaluation(2.0**53 - 2)
        bulk.charge_evaluations(3.0, 5)
        for _ in range(5):
            single.charge_evaluation(3.0)
        assert bulk == single

    @pytest.mark.parametrize("method", ["charge_hashes", "charge_evaluations"])
    @pytest.mark.parametrize("cost, count", [(-0.5, 3), (1.0, -1), (-1.0, -1)])
    def test_negative_charges_are_refused(self, method, cost, count):
        ledger = CostLedger()
        with pytest.raises(LedgerError):
            getattr(ledger, method)(cost, count)
        assert ledger == CostLedger()

    @pytest.mark.parametrize("factory", [None, hashlib.sha1], ids=["plain", "seeded"])
    def test_counting_hash_batches_charge_like_the_loop(self, factory):
        dime = HashFunction(
            "dime", lambda d: hashlib.sha1(d).digest(), 20, cost=0.1,
            hasher_factory=factory,
        )
        blobs = [bytes([i]) * 20 for i in range(14)]
        batched, looped = CostLedger(), CostLedger()
        b, l = CountingHash(dime, batched), CountingHash(dime, looped)
        assert b.digest_many(blobs) == [l.digest(x) for x in blobs]
        assert b.tagged_digest_many(b"\x00", blobs) == [
            l.digest(b"\x00" + x) for x in blobs
        ]
        assert b.tagged_digest_pairs(b"\x01", blobs) == [
            l.digest(b"\x01" + blobs[i] + blobs[i + 1]) for i in range(0, 14, 2)
        ]
        digest = blobs[0]
        for sibling in blobs[1:6]:
            digest = l.digest(b"\x01" + digest + sibling)
        assert b.fold_path(b"\x01", blobs[0], 0, blobs[1:6]) == digest
        assert batched == looped
        assert batched.hashes == 14 + 14 + 7 + 5


# ----------------------------------------------------------------------
# The §3.3 recompute closure: rebuilt subtrees charge what they did
# ----------------------------------------------------------------------


class TestRecomputeCharges:
    N, ELL = 45, 3  # 45 leaves, height-3 subtrees: the last one is ragged

    @pytest.mark.parametrize(
        "behavior",
        [
            HonestBehavior(),
            SemiHonestCheater(0.5),
            SemiHonestCheater(0.7, guesser=BernoulliGuess(0.5), selection="prefix"),
            ColludingCheater(0.4, b"cartel"),
        ],
        ids=lambda b: b.name,
    )
    def test_partial_backend_charges_one_evaluation_per_honest_leaf(self, behavior):
        fn = PasswordSearch(cost=0.1)
        task = TaskAssignment("t-33", RangeDomain(100, 100 + self.N), fn)
        participant = CBSParticipant(
            task, behavior, subtree_height=self.ELL, salt=b"\x00" * 8
        )
        participant.compute_and_commit()
        honest = participant.work.honest_indices
        books = RefBooks()
        _, want_honest = ref_produce(
            behavior, task, ref_password, books, b"\x00" * 8
        )
        assert honest == want_honest
        # The full-tree backend is the control: same commitment, and it
        # never recomputes.
        full = CBSParticipant(task, behavior, salt=b"\x00" * 8)
        assert full.compute_and_commit().root == participant.backend.root
        for ledger in (participant.ledger, full.ledger):
            assert ledger.evaluations == books.evaluations
            assert ledger.evaluation_cost == books.evaluation_cost

        challenged = (0, 9, 9, 17, 44, 30)
        challenge = SampleChallengeMsg(task_id="t-33", indices=challenged)
        bundle = participant.prove(challenge)
        full.prove(challenge)
        assert full.ledger.evaluations == len(honest)
        width = 1 << self.ELL
        for index in challenged:
            start = index // width * width
            for leaf in range(start, min(start + width, self.N)):
                if leaf in honest:  # a fabricated leaf is re-drawn for free
                    books.evaluations += 1
                    books.evaluation_cost += 0.1
        assert participant.ledger.evaluations == books.evaluations
        assert participant.ledger.evaluation_cost == books.evaluation_cost
        assert [p.claimed_result for p in bundle.proofs] == [
            participant.work.leaf_payloads[i] for i in challenged
        ]
