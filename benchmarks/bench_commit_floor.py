"""The participant's commit, stage by stage, beside its ``hashlib`` floor.

Not a paper artefact: the README's stop rule for perf work, applied to
§3.1's Step 1 on one 4096-input participant.  Each stage the ledger's
population workloads run is timed next to a bare-``hashlib``
transcription of the same work — the SHA-256 calls it cannot avoid, on
inputs framed before the clock starts — in the same process, in
interleaved rounds; each row reads the median round, and its ratio the
median of the rounds' stage-over-floor ratios:

* **honest evaluate**: ``PasswordSearch.evaluate_many`` over the
  participant's key range, against two SHA-256 calls per key;
* **D′ draw**: ``SemiHonestCheater._choose_honest`` at ``r = 0.5``
  (draws, Fisher–Yates, sorted halves), against two calls per draw;
* **fabrication**: ``ZeroGuess.guess_many`` over the skipped indices,
  against two calls per index;
* **leaf hash**: ``hash_leaves``, against ``sha256(b"\\0" + p)``;
* **level build**: ``combine_level`` up to the root, against
  ``sha256(b"\\1" + left + right)``.

Each transcription must return the stage's bytes (the D′ draws through
the same swaps); that is the only gate.  Timings are printed, never
asserted: absolute gates were retired after failing on unchanged code.
``share`` is the stage's part of the commit work of one honest and one
``r = 0.5`` participant, the ledger's population mix.  The verdict is
the stop rule: ``closed`` at ≤ 1.5x the floor, ``open`` past 2x with a
share over 0.05, ``neither`` in between.
"""

import hashlib
import statistics
import timeit
from operator import truediv

from repro.analysis import format_table
from repro.cheating import SemiHonestCheater, ZeroGuess
from repro.merkle.hashing import get_hash
from repro.merkle.tree import combine_level, hash_leaves
from repro.tasks import PasswordSearch, RangeDomain

N = 4096
FN = PasswordSearch()
#: Participant 1 of the ledger's 16 x 4096 population: two-byte keys.
INPUTS = RangeDomain(0, 16 * N).part(1, 16).inputs()
CHEATER = SemiHonestCheater(0.5)
TASK_ID = "participant-1"
SALT = bytes(8)
ROUNDS = 41

_sha256 = hashlib.sha256
_BLOCK0 = bytes(8)


def frame(part: bytes) -> bytes:
    return len(part).to_bytes(8, "big") + part


def two_calls(messages, n_bytes):
    """The floor of a PRF output: hash the framed input, expand block 0."""
    return [
        _sha256(_sha256(m).digest() + _BLOCK0).digest()[:n_bytes]
        for m in messages
    ]


def fisher_yates(draws, n):
    order = list(range(n))
    for i, draw in enumerate(draws):
        j = i + draw
        order[i], order[j] = order[j], order[i]
    k = len(draws)
    return sorted(order[:k]), sorted(order[k:])


def level_floor(level):
    levels = [level]
    while len(level) > 1:
        pairs = iter(level)
        level = [_sha256(b"\x01" + left + right).digest() for left, right in zip(pairs, pairs)]
        levels.append(level)
    return levels


def level_stage(level, hash_fn):
    levels = [level]
    while len(level) > 1:
        level = combine_level(hash_fn, level)
        levels.append(level)
    return levels


def stages():
    """``(name, items, stage, floor, same)`` per stage; ``same`` maps
    the two outputs to what must be equal."""
    sha = get_hash("sha256")
    honest, skipped = CHEATER._choose_honest(N, TASK_ID, SALT)
    n_honest = len(honest)

    keys = [
        frame(FN.salt) + frame(x.to_bytes((x.bit_length() + 7) // 8 or 1, "big"))
        for x in INPUTS
    ]
    head = frame(b"dprime") + frame(TASK_ID.encode()) + frame(SALT)
    draw_msgs = [head + frame(i.to_bytes(8, "big")) + frame(_BLOCK0) for i in range(n_honest)]
    bounds = list(range(N, N - n_honest, -1))
    fake_head = frame(b"zero-guess") + frame(SALT)
    fake_msgs = [fake_head + frame(i.to_bytes(8, "big")) for i in skipped]
    payloads = FN.evaluate_many(INPUTS)
    leaves = hash_leaves(payloads, sha)

    def draw_floor():
        return [
            int.from_bytes(d, "big") % bound
            for d, bound in zip(two_calls(draw_msgs, 8), bounds)
        ]

    return [
        ("honest evaluate", N,
         lambda: FN.evaluate_many(INPUTS), lambda: two_calls(keys, FN.digest_bytes),
         lambda got, floor: (got, floor)),
        ("D' draw", n_honest,
         lambda: CHEATER._choose_honest(N, TASK_ID, SALT), draw_floor,
         lambda got, floor: (tuple(map(list, got)), fisher_yates(floor, N))),
        ("fabrication", len(skipped),
         lambda: ZeroGuess().guess_many(skipped, INPUTS, FN.evaluate, FN.result_size, SALT),
         lambda: two_calls(fake_msgs, FN.result_size),
         lambda got, floor: (got, floor)),
        ("leaf hash", N,
         lambda: hash_leaves(payloads, sha),
         lambda: [_sha256(b"\x00" + p).digest() for p in payloads],
         lambda got, floor: (got, floor)),
        ("level build", N - 1,
         lambda: level_stage(leaves, sha), lambda: level_floor(leaves),
         lambda got, floor: (got, floor)),
    ]


#: Items per stage in one honest plus one r = 0.5 participant, over
#: the items one timed call covers.
PAIR_WEIGHT = {
    "honest evaluate": 1.5,  # 4096 honest + 2048 of the cheater's
    "D' draw": 1.0,
    "fabrication": 1.0,
    "leaf hash": 2.0,
    "level build": 2.0,
}


def verdict(ratio: float, share: float) -> str:
    if ratio <= 1.5:
        return "closed"
    if ratio > 2.0 and share > 0.05:
        return "open"
    return "neither"


def measure(rounds: int = ROUNDS) -> list[dict]:
    plan = stages()
    for name, _items, stage, floor, same in plan:
        got, want = same(stage(), floor())
        assert got == want, f"{name}: the floor transcription returns other bytes"
    times = {name: ([], []) for name, *_ in plan}
    for _ in range(rounds):
        for name, _items, stage, floor, _same in plan:
            for side, fn in zip(times[name], (stage, floor)):
                side.append(timeit.timeit(fn, number=1))
    stage_s = {name: statistics.median(s) for name, (s, _f) in times.items()}
    total = sum(stage_s[name] * PAIR_WEIGHT[name] for name in stage_s)
    rows = []
    for name, items, *_ in plan:
        stage_times, floor_times = times[name]
        # Each round's two timings are adjacent, so their ratio cancels
        # a machine that speeds up or slows down between rounds.
        ratio = statistics.median(map(truediv, stage_times, floor_times))
        share = stage_s[name] * PAIR_WEIGHT[name] / total
        rows.append(
            {
                "stage": name,
                "items": items,
                "us_per_item": round(stage_s[name] / items * 1e6, 3),
                "floor_us_per_item": round(
                    statistics.median(floor_times) / items * 1e6, 3
                ),
                "ratio": round(ratio, 2),
                "share": round(share, 3),
                "verdict": verdict(ratio, share),
            }
        )
    return rows


def test_commit_stages_beside_their_floors(save_table):
    rows = measure()
    save_table(
        "commit_floor",
        format_table(
            rows,
            title=f"Participant commit vs bare hashlib (n = {N}, median of {ROUNDS} rounds)",
        ),
    )
    assert [row["stage"] for row in rows] == list(PAIR_WEIGHT)


def test_verdicts_follow_the_stop_rule():
    assert verdict(1.5, 0.9) == "closed"
    assert verdict(1.8, 0.9) == "neither"
    assert verdict(2.5, 0.05) == "neither"
    assert verdict(2.5, 0.06) == "open"
