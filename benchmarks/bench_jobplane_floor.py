"""The population's job plane, leg by leg, beside its ``struct`` floor.

Not a paper artefact: the README's stop rule for perf work, applied to
the cluster's job plane on one ``pop_small_cluster``-shaped epoch (512
sixteen-input participants, 32 map items of 16).  Each leg the ledger
times as ``service.jobcodec.*`` is timed next to a bare-``struct``
transcription of the same record — the ``pack``/``unpack`` calls and
constructors it cannot avoid — in the same process, in interleaved
rounds; each row reads the median round per participant, and its ratio
the median of the rounds' leg-over-floor ratios:

* **job encode**: ``encode_job(execute_batch, (batch,), {})`` per item,
  against packing the batch record's head, job rows and task ids;
* **job decode**: ``decode_job`` through a warm ``SchemeCache`` (a
  worker's state), against unpacking the rows into ``RangeDomain``,
  ``TaskAssignment`` and ``SchemeJob``;
* **result encode**: ``encode_cluster_payload`` of an item's results,
  against packing each result record;
* **result decode**: ``decode_cluster_payload``, against unpacking each
  record into a fresh ``SchemeRunResult`` tree, one ``SampleVerdict``
  per verdict.

No ``struct`` call writes a term, so a batch record's two terms — the
scheme and the table of functions, screeners and behaviours — go
through the codec's own term writer and reader on both sides, in the
state the record meets them (the callable and the batch already named):
the job rows measure the record, not the generic codec (the README's
ledger note also reads them with the terms spelled once, before the
clock).  Each transcription must yield the records' bytes (encode) or
objects equal to the codec's (decode); that is the only gate.  Timings are
printed, never asserted.  ``share`` is the leg's part of the four legs'
time; the verdict is the stop rule: ``closed`` at ≤ 1.5x the floor,
``open`` past 2x with a share over 0.05, ``neither`` in between.
"""

import statistics
import timeit
from operator import truediv

from repro.accounting import CostLedger
from repro.analysis import format_table
from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.cheating.strategies import WorkSummary
from repro.core import CBSScheme
from repro.core.scheme import (
    RejectReason,
    SampleVerdict,
    SchemeRunResult,
    VerificationOutcome,
)
from repro.engine.jobs import SchemeBatch, SchemeJob, execute_batch, split_batches
from repro.grid.simulation import GridSimulation, SimulationConfig
from repro.service.jobcodec import (
    _Decoder,
    _Encoder,
    BATCH_HEAD,
    BATCH_ROW,
    COUNTER_ROW,
    RESULT_HEAD,
    VERDICT_ROW,
    SchemeCache,
    decode_cluster_payload,
    decode_job,
    encode_cluster_payload,
    encode_job,
)
from repro.tasks import PasswordSearch, RangeDomain
from repro.tasks.result import TaskAssignment
from repro.utils.encoding import read_uint

PARTICIPANTS = 512
BATCH = 16
ROUNDS = 41
LEDGER = (
    "evaluation_cost", "evaluations", "verification_cost", "verifications",
    "hash_cost", "hashes", "bytes_sent", "bytes_received", "messages_sent",
    "messages_received", "storage_digests", "screening_cost",
)
#: Wire code = position; code 4, retired, reads as a protocol violation.
REASONS = (*tuple(RejectReason)[:4], RejectReason.PROTOCOL_VIOLATION,
           *tuple(RejectReason)[4:])
CODE = {reason: code for code, reason in enumerate(REASONS)}


def epoch():
    """The ledger's ``pop_small_cluster`` population, seed 1, as map
    items and their results."""
    sim = GridSimulation(
        SimulationConfig(
            domain=RangeDomain(0, 1 << 13),
            function=PasswordSearch(),
            scheme=CBSScheme(n_samples=16),
            n_participants=PARTICIPANTS,
            behaviors=[HonestBehavior(), SemiHonestCheater(0.5)],
            seed=1,
            engine="serial",
        )
    )
    batches = [
        SchemeBatch(sim.config.scheme, jobs)
        for jobs in split_batches(sim.jobs(), BATCH)
    ]
    return batches, [execute_batch(batch) for batch in batches]


def struct_bodies(raw: bytes):
    """Every struct body in a payload that is a callable's one-struct
    argument tuple (a job) or a list of structs (an item's results)."""
    pos, bodies = 0, []
    while pos < len(raw):
        tag = raw[pos]
        if tag == 0x0C:  # struct: name ref, then the body
            ref, pos = read_uint(raw, pos + 1)
            if ref == 0:
                size, pos = read_uint(raw, pos)
                pos += size
            size, pos = read_uint(raw, pos)
            bodies.append(raw[pos:pos + size])
            pos += size
        elif tag == 0x0D:  # callable: a spelled name
            _ref, pos = read_uint(raw, pos + 1)
            size, pos = read_uint(raw, pos)
            pos += size
        else:  # a container's tag and count
            _count, pos = read_uint(raw, pos + 1)
    return bodies


# ----------------------------------------------------------------------
# The floors: the records written and read with bare struct calls
# ----------------------------------------------------------------------


#: What a job payload has named and memoized when its record starts.
NAMES = ("engine.execute_batch", "scheme_batch")


def job_record(batch):
    slots, table, rows, ids = {}, {}, [], []
    for job in batch.jobs:
        task, domain = job.assignment, job.assignment.domain
        for obj in (task.function, task.screener, job.behavior):
            table[id(obj)] = obj
        raw = task.task_id.encode()
        rows.append(BATCH_ROW.pack(
            domain.start, domain.stop, job.seed,
            slots.setdefault(id(task.function), len(slots)),
            slots.setdefault(id(task.screener), len(slots)),
            slots.setdefault(id(job.behavior), len(slots)),
            len(raw),
        ))
        ids.append(raw)
    terms = _Encoder()
    terms.names.update(zip(NAMES, range(2)))
    terms.memo.update({0: 0, 1: 1})  # the callable and the batch
    terms.value(batch.scheme)
    terms.value(tuple(table.values()))
    return (
        BATCH_HEAD.pack(0x80, len(batch.jobs)) + terms.out
        + b"".join(rows) + b"".join(ids)
    )


def job_objects(body, cache):
    terms = _Decoder(body, cache)
    terms.names.extend(NAMES)
    terms.memo.extend((execute_batch, None))
    terms.pos = BATCH_HEAD.size
    scheme, table = terms.value(), terms.value()
    start = terms.pos
    end = start + BATCH_ROW.size * BATCH_HEAD.unpack_from(body)[1]
    jobs = []
    for lo, hi, seed, fn, screener, behavior, size in BATCH_ROW.iter_unpack(body[start:end]):
        task = TaskAssignment(
            body[end:end + size].decode(), RangeDomain(lo, hi), table[fn], table[screener]
        )
        jobs.append(SchemeJob(task, table[behavior], seed))
        end += size
    return SchemeBatch(scheme, tuple(jobs))


def result_record(r):
    o, p, s, work = r.outcome, r.participant_ledger, r.supervisor_ledger, r.work
    task = o.task_id.encode()
    tail = [
        VERDICT_ROW.pack(v.index, v.accepted << 7 | CODE[v.reason]) for v in o.verdicts
    ]
    tail.append(task)
    for counters in (p.counters, s.counters):
        for name, value in counters.items():
            raw = name.encode()
            tail += (COUNTER_ROW.pack(value, len(raw)), raw)
    return RESULT_HEAD.pack(
        0x80 | o.accepted << 6 | 0x20 | CODE[o.reason], len(o.verdicts),
        len(task), len(p.counters), len(s.counters), work.n_inputs,
        work.n_honest, *(getattr(p, f) for f in LEDGER),
        *(getattr(s, f) for f in LEDGER),
    ) + b"".join(tail)


def result_object(body):
    flags, n, n_task, n_p, n_s, n_inputs, n_honest, *values = RESULT_HEAD.unpack_from(body)
    pos = RESULT_HEAD.size + VERDICT_ROW.size * n
    verdicts = [
        SampleVerdict(index, byte >= 0x80, REASONS[byte & 0x7F])
        for index, byte in VERDICT_ROW.iter_unpack(body[RESULT_HEAD.size:pos])
    ]
    task_id = body[pos:pos + n_task].decode()
    pos += n_task
    counters = []
    for count in (n_p, n_s):
        names = {}
        for _ in range(count):
            value, size = COUNTER_ROW.unpack_from(body, pos)
            pos += COUNTER_ROW.size
            names[body[pos:pos + size].decode()] = value
            pos += size
        counters.append(names)
    return SchemeRunResult(
        VerificationOutcome(task_id, flags & 0x40 != 0, verdicts, REASONS[flags & 0x1F]),
        CostLedger(*values[:12], counters=counters[0]),
        CostLedger(*values[12:], counters=counters[1]),
        WorkSummary(n_inputs, n_honest),
        CostLedger(),
    )


def batch_view(batch):
    """A batch as values: functions, screeners and behaviours have no
    ``==``, so they compare by their canonical bytes."""
    return encode_cluster_payload(batch.scheme), [
        (j.assignment.task_id, j.assignment.domain, j.seed,
         *map(encode_cluster_payload, (
             j.assignment.function, j.assignment.screener, j.behavior)))
        for j in batch.jobs
    ]


def legs():
    """``(name, leg, floor, same)`` per leg; ``same`` maps the two
    outputs to what must be equal."""
    batches, results = epoch()
    payloads = [encode_job(execute_batch, (batch,), {}) for batch in batches]
    answers = [encode_cluster_payload(item) for item in results]
    job_bodies = [struct_bodies(raw)[0] for raw in payloads]
    result_bodies = [struct_bodies(raw) for raw in answers]
    cache = SchemeCache()
    return [
        ("job encode",
         lambda: [encode_job(execute_batch, (b,), {}) for b in batches],
         lambda: [job_record(b) for b in batches],
         lambda got, floor: ([struct_bodies(raw)[0] for raw in got], floor)),
        ("job decode",
         lambda: [decode_job(raw, cache=cache) for raw in payloads],
         lambda: [job_objects(body, cache) for body in job_bodies],
         lambda got, floor: (
             [batch_view(call[1][0]) for call in got], list(map(batch_view, floor)))),
        ("result encode",
         lambda: [encode_cluster_payload(item) for item in results],
         lambda: [[result_record(r) for r in item] for item in results],
         lambda got, floor: (list(map(struct_bodies, got)), floor)),
        ("result decode",
         lambda: [decode_cluster_payload(raw) for raw in answers],
         lambda: [[result_object(body) for body in item] for item in result_bodies],
         lambda got, floor: (got, floor)),
    ]


def verdict(ratio: float, share: float) -> str:
    if ratio <= 1.5:
        return "closed"
    if ratio > 2.0 and share > 0.05:
        return "open"
    return "neither"


def measure(rounds: int = ROUNDS) -> list[dict]:
    plan = legs()
    for name, leg, floor, same in plan:
        got, want = same(leg(), floor())
        assert got == want, f"{name}: the floor transcription yields something else"
    times = {name: ([], []) for name, *_ in plan}
    for _ in range(rounds):
        for name, leg, floor, _same in plan:
            for side, fn in zip(times[name], (leg, floor)):
                side.append(timeit.timeit(fn, number=1))
    leg_s = {name: statistics.median(t) for name, (t, _f) in times.items()}
    total = sum(leg_s.values())
    rows = []
    for name, *_ in plan:
        leg_times, floor_times = times[name]
        # Each round's two timings are adjacent, so their ratio cancels
        # a machine that speeds up or slows down between rounds.
        ratio = statistics.median(map(truediv, leg_times, floor_times))
        share = leg_s[name] / total
        rows.append(
            {
                "leg": name,
                "participants": PARTICIPANTS,
                "us_per_participant": round(leg_s[name] / PARTICIPANTS * 1e6, 3),
                "floor_us_per_participant": round(
                    statistics.median(floor_times) / PARTICIPANTS * 1e6, 3
                ),
                "ratio": round(ratio, 2),
                "share": round(share, 3),
                "verdict": verdict(ratio, share),
            }
        )
    return rows


def test_job_plane_legs_beside_their_floors(save_table):
    rows = measure()
    save_table(
        "jobplane_floor",
        format_table(
            rows,
            title=(
                f"Job plane vs bare struct ({PARTICIPANTS} participants in "
                f"items of {BATCH}, median of {ROUNDS} rounds)"
            ),
        ),
    )
    assert [row["leg"] for row in rows] == [
        "job encode", "job decode", "result encode", "result decode",
    ]


def test_verdicts_follow_the_stop_rule():
    assert verdict(1.5, 0.9) == "closed"
    assert verdict(1.8, 0.9) == "neither"
    assert verdict(2.5, 0.05) == "neither"
    assert verdict(2.5, 0.06) == "open"
