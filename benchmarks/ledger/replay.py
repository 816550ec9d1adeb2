"""Pipeline replay: real inputs walked through every layer's public calls.

A sample of one workload's participants is taken, in wire order,
through the public functions of each layer it crosses -- build job,
jobcodec encode, frame encode, framing over a socketpair, frame decode,
jobcodec decode, scheme run, outcome encode ... report merge -- under
harness-owned spans (name, start, end, parent, one request id).  The
program is not patched and carries no new spans: every number here is
timed from outside, around a call into a layer.

Spans the program offers no seam for are *replayed separately*: the
scheme run is one opaque call, so commit / prove / verify, and under
them evaluate / leaf hash / tree build / proof build / proof verify,
are executed again on the same inputs and recorded as children whose
interval lies after their parent's.  A span's self time is its
duration minus its children's, replayed or nested, floored at zero.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import statistics
import threading
import time
from unittest import mock

from repro.core.cbs import CBSParticipant, CBSSupervisor
from repro.core.ni_cbs import NICBSParticipant, NICBSSupervisor
from repro.core.protocol import AssignMsg, VerdictMsg
from repro.engine import SchemeBatch, execute_batch, run_scheme_jobs, split_batches
from repro.merkle.hashing import get_hash
from repro.merkle.tree import MerkleTree, hash_leaves
from repro.net.auth import authenticate_client, authenticate_server
from repro.net.framing import (
    MAX_CLUSTER_FRAME_BYTES,
    frame_buffer,
    read_frame_bytes_sync,
    split_frame_buffer,
    write_frame_bytes_sync,
)
from repro.net.transport import SecurityConfig, close_writer, open_connection
from repro.service.codec import (
    ChallengeFrame,
    CommitmentFrame,
    JobFrame,
    ProofsFrame,
    ResultFrame,
    SubmissionFrame,
    TaskAssign,
    TaskRequest,
    VerdictFrame,
    decode_frame,
    encode_frame,
)
from repro.service.jobcodec import (
    SchemeCache,
    decode_cluster_chunk,
    decode_cluster_outcomes,
    decode_cluster_payload,
    decode_job,
    encode_cluster_chunk,
    encode_cluster_outcomes,
    encode_cluster_payload,
    encode_job,
)
from repro.service.sessions import SessionState, SessionStore

import inputs
from declared import LAYERS, Workload
from measure import slowness

#: Frames past this size are written from a helper thread so a full
#: socket buffer cannot deadlock the single-threaded round trip.
_INLINE_WRITE_BYTES = 64 * 1024

DOMINANT_FRAMES = {
    "pop": {"JobFrame", "ResultFrame"},
    "ni-cbs": {"SubmissionFrame"},
    "cbs": {"CommitmentFrame", "ChallengeFrame", "ProofsFrame"},
}


class Recorder:
    """Harness-owned spans, kept in memory until the run ends.

    ``scope`` says what a span's time must be divided by to become
    per-participant: ``"sample"`` spans cover the replayed sample,
    ``"epoch"`` spans a whole population.  ``counted=False`` marks a
    calibration span (timed for a difference, not part of the walk).
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._slowness: dict[str, list[float]] = {}

    @contextlib.contextmanager
    def request(self, rid: str):
        """Bracket one request's spans with reference-kernel samples, so
        its times can be put in reference-speed seconds."""
        samples = self._slowness.setdefault(rid, [])
        samples.append(slowness())
        try:
            yield rid
        finally:
            samples.append(slowness())

    @contextlib.contextmanager
    def span(
        self, name: str, rid: str, *, units: int = 1, parent: int | None = None,
        scope: str = "sample", counted: bool = True, **attrs,
    ):
        record = {
            "id": len(self.spans), "name": name, "rid": rid,
            "parent": parent if parent is not None
            else (self._stack[-1] if self._stack else None),
            "replayed": parent is not None,
            "units": units, "scope": scope, "counted": counted, **attrs,
            "start": 0.0, "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def finish(self) -> list[dict]:
        """Stamp ``dur`` and ``self`` (reference-speed seconds; ``start``
        and ``end`` stay raw) on every span; return them."""
        children: dict[int, float] = {}
        for s in self.spans:
            s["slowness"] = statistics.fmean(self._slowness[s["rid"]])
            s["dur"] = (s["end"] - s["start"]) / s["slowness"]
            if s["parent"] is not None and s["counted"]:
                children[s["parent"]] = children.get(s["parent"], 0.0) + s["dur"]
        for s in self.spans:
            s["self"] = max(0.0, s["dur"] - children.get(s["id"], 0.0))
        return self.spans


def layer_of(span_name: str) -> str:
    """``service.codec.encode`` -> ``service.codec``: the module name."""
    return span_name.rsplit(".", 1)[0]


# ----------------------------------------------------------------------
# One frame, in wire order
# ----------------------------------------------------------------------


class Wire:
    """A loopback ``socketpair`` the replay frames cross."""

    def __init__(self) -> None:
        self._a, self._b = socket.socketpair()
        self._out = self._a.makefile("wb")
        self._in = self._b.makefile("rb")

    def close(self) -> None:
        for closable in (self._out, self._in, self._a, self._b):
            closable.close()

    def round_trip(self, payload: bytes) -> bytes:
        if len(payload) < _INLINE_WRITE_BYTES:
            write_frame_bytes_sync(self._out, payload, MAX_CLUSTER_FRAME_BYTES)
            return read_frame_bytes_sync(self._in, MAX_CLUSTER_FRAME_BYTES)
        writer = threading.Thread(
            target=write_frame_bytes_sync,
            args=(self._out, payload, MAX_CLUSTER_FRAME_BYTES),
        )
        writer.start()
        try:
            return read_frame_bytes_sync(self._in, MAX_CLUSTER_FRAME_BYTES)
        finally:
            writer.join()


def _inner_bytes(frame) -> int:
    """Size of the binary payload the JSON frame base64-wraps (0: none)."""
    if hasattr(frame, "payload"):
        return len(frame.payload)
    if hasattr(frame, "msg"):
        return len(frame.msg.encode())
    return 0


def ship(rec: Recorder, rid: str, wire: Wire, frame):
    """Encode, frame, cross the socketpair, decode; returns the far copy."""
    kind = type(frame).__name__
    with rec.span("service.codec.encode", rid, frame=kind) as enc:
        buffer = encode_frame(frame, max_frame=MAX_CLUSTER_FRAME_BYTES)
    enc["bytes"] = len(buffer)
    enc["inner_bytes"] = _inner_bytes(frame)
    payload = split_frame_buffer(buffer, MAX_CLUSTER_FRAME_BYTES)
    with rec.span("net.framing.socket_rtt", rid, frame=kind):
        arrived = wire.round_trip(payload)
    with rec.span("service.codec.decode", rid, frame=kind) as dec:
        far = decode_frame(
            frame_buffer(arrived, MAX_CLUSTER_FRAME_BYTES), MAX_CLUSTER_FRAME_BYTES
        )
    # encode_frame / decode_frame include the length-prefix join and
    # split; time that alone so it can be taken out of the codec's self.
    with rec.span("net.framing.frame_split", rid, parent=dec["id"], frame=kind):
        split_frame_buffer(
            frame_buffer(payload, MAX_CLUSTER_FRAME_BYTES), MAX_CLUSTER_FRAME_BYTES
        )
    return far


# ----------------------------------------------------------------------
# The core protocol, split
# ----------------------------------------------------------------------


class CoreWalk:
    """One participant's commit / prove / verify, each under its span,
    with the task and Merkle steps replayed separately beneath them."""

    def __init__(self, rec: Recorder, rid: str, w: Workload, assignment,
                 behavior, seed: int, parent: int | None = None) -> None:
        self.rec, self.rid, self.w, self.parent = rec, rid, w, parent
        self.assignment, self.behavior, self.seed = assignment, behavior, seed
        self.hash_fn = get_hash("sha256")
        self.salt = seed.to_bytes(8, "big")
        self.spans: dict[str, dict] = {}
        if w.protocol == "cbs":
            self.participant = CBSParticipant(
                assignment, behavior, hash_fn=self.hash_fn, salt=self.salt
            )
            self.supervisor = CBSSupervisor(
                assignment, n_samples=w.m, hash_fn=self.hash_fn, seed=seed
            )
        else:
            self.participant = NICBSParticipant(
                assignment, behavior, n_samples=w.m, hash_fn=self.hash_fn,
                salt=self.salt,
            )
            self.supervisor = NICBSSupervisor(
                assignment, n_samples=w.m, hash_fn=self.hash_fn
            )

    def _span(self, name: str):
        return self.rec.span(name, self.rid, parent=self.parent)

    def commit(self):
        """``compute_and_commit`` (CBS) / ``compute_and_submit`` (NI-CBS)."""
        step = (
            self.participant.compute_and_commit
            if self.w.protocol == "cbs"
            else self.participant.compute_and_submit
        )
        with self._span("core.commit") as self.spans["commit"]:
            self.message = step()
        return self.message

    def challenge(self, commitment):
        self.supervisor.receive_commitment(commitment)
        return self.supervisor.make_challenge()

    def prove(self, challenge):
        with self._span("core.prove") as self.spans["prove"]:
            self.message = self.participant.prove(challenge)
        return self.message

    def verify(self, message):
        with self._span("core.verify") as self.spans["verify"]:
            return self.supervisor.verify(message)

    def replay_children(self) -> None:
        """evaluate, leaf hash, build under commit; proof build under
        prove (commit for NI-CBS); proof verify under verify."""
        rec, rid = self.rec, self.rid
        commit = self.spans["commit"]["id"]
        with rec.span("tasks.evaluate", rid, parent=commit) as evaluate:
            work = self.behavior.produce(
                self.assignment, self.assignment.function.evaluate, salt=self.salt
            )
        evaluate["units"] = len(work.honest_indices)
        leaves = len(work.leaf_payloads)
        with rec.span("merkle.build", rid, parent=commit, units=leaves) as build:
            tree = MerkleTree(work.leaf_payloads, hash_fn=self.hash_fn)
        with rec.span("merkle.leaf_hash", rid, parent=build["id"], units=leaves):
            hash_leaves(work.leaf_payloads, self.hash_fn)
        proofs = self.message.proofs
        prover = self.spans.get("prove", self.spans["commit"])["id"]
        with rec.span("merkle.proof_build", rid, parent=prover, units=len(proofs)):
            for proof in proofs:
                tree.auth_path(proof.index)
        with rec.span(
            "merkle.proof_verify", rid, parent=self.spans["verify"]["id"],
            units=len(proofs),
        ):
            for proof in proofs:
                proof.path.root_from_payload(proof.claimed_result, self.hash_fn)


# ----------------------------------------------------------------------
# Population walk
# ----------------------------------------------------------------------


def _walk_chunk(rec, rid, w, wire, cache, chunk, job_id) -> None:
    """One cluster chunk (or, on the serial engine, its batches alone)
    from the coordinator's encode to the coordinator's decode."""
    clustered = w.engine == "cluster"
    if clustered:
        with rec.span("service.jobcodec.encode", rid, units=len(chunk)) as enc:
            payloads = [encode_job(execute_batch, (batch,), {}) for batch in chunk]
            body = encode_cluster_chunk(payloads)
        enc["bytes"] = sum(len(p) for p in payloads)
        far = ship(rec, rid, wire, JobFrame(job_id=job_id, payload=body))
        with rec.span("service.jobcodec.decode", rid, units=len(chunk)):
            calls = [
                decode_job(raw, cache=cache)
                for raw in decode_cluster_chunk(far.payload)
            ]
    else:
        calls = [(execute_batch, (batch,), {}) for batch in chunk]
    outcomes = []
    for fn, args, kwargs in calls:
        batch = args[0]
        with rec.span("core.scheme_run", rid, units=len(batch.jobs)) as run:
            outcomes.append(fn(*args, **kwargs))
        for job in batch.jobs:
            walk = CoreWalk(
                rec, rid, w, job.assignment, job.behavior, job.seed,
                parent=run["id"],
            )
            commitment = walk.commit()
            bundle = walk.prove(walk.challenge(commitment))
            walk.verify(bundle)
            walk.replay_children()
    if clustered:
        with rec.span(
            "service.jobcodec.outcomes_encode", rid, units=len(chunk)
        ) as enc:
            entries = [(True, encode_cluster_payload(o)) for o in outcomes]
            body = encode_cluster_outcomes(entries)
        enc["bytes"] = sum(len(p) for _ok, p in entries)
        far = ship(
            rec, rid, wire, ResultFrame(job_id=job_id, ok=True, payload=body)
        )
        with rec.span("service.jobcodec.outcomes_decode", rid, units=len(chunk)):
            for _ok, raw in decode_cluster_outcomes(far.payload):
                decode_cluster_payload(raw)


def replay_population(
    w: Workload, seed: int, batch_size: int, jobs_per_chunk: int,
    cpu_per_participant: float,
):
    """Walk ``w.replay`` participants of epoch ``seed`` through the wire.

    Returns ``(metrics, spans, reference_report, serial_epoch_s)``: the
    serial reference this walk has to compute anyway doubles as the
    oracle for that epoch and as the serial baseline.
    """
    rec = Recorder()
    sim = inputs.simulation(w, seed, "serial")
    scheme = sim.config.scheme
    slow = slowness()
    start = time.perf_counter()
    results = run_scheme_jobs(scheme, sim.jobs())
    with rec.request("epoch"):
        # GridSimulation.run() with the engine stubbed out is jobs()
        # plus the merge loop; jobs() is then timed alone beneath it.
        with rec.span(
            "grid.report_merge", "epoch", scope="epoch", units=w.participants
        ) as merge:
            with mock.patch(
                "repro.grid.simulation.run_scheme_jobs", return_value=results
            ):
                reference = sim.run()
        serial_s = (merge["end"] - start) / (0.5 * (slow + slowness()))
        with rec.span(
            "grid.jobs_build", "epoch", scope="epoch", units=w.participants,
            parent=merge["id"],
        ):
            jobs = sim.jobs()
        with rec.span(
            "engine.split_batches", "epoch", scope="epoch", units=w.participants
        ):
            batches = split_batches(jobs, batch_size)

    wanted = -(-w.replay // batch_size)
    sampled = [
        SchemeBatch(scheme=scheme, jobs=chunk) for chunk in batches[:wanted]
    ]
    wire = Wire()
    cache = SchemeCache()
    try:
        for c in range(0, len(sampled), jobs_per_chunk):
            with rec.request(f"chunk-{c // jobs_per_chunk}") as rid:
                _walk_chunk(
                    rec, rid, w, wire, cache, sampled[c : c + jobs_per_chunk], c
                )
    finally:
        wire.close()
    spans = rec.finish()
    metrics = layer_metrics(
        spans, sum(len(b.jobs) for b in sampled), w.participants,
        cpu_per_participant, DOMINANT_FRAMES["pop"],
    )
    return metrics, spans, reference, serial_s


# ----------------------------------------------------------------------
# Service walk
# ----------------------------------------------------------------------


async def _bare_listener(handler, ssl_context=None):
    server = await asyncio.start_server(
        handler, "127.0.0.1", 0, ssl=ssl_context
    )
    return server, server.sockets[0].getsockname()[1]


async def _connects(
    rec: Recorder, rids: list[str], security: SecurityConfig | None,
    listener_security: SecurityConfig | None,
):
    """Per-connection costs against bare loopback listeners: TCP
    connect, and for a secured workload TLS connect and the HMAC
    handshake.  Under TLS the plaintext connect is only the baseline
    ``tls_connect_ms`` is the difference to, so it is not counted."""

    async def hold(reader, writer):
        await reader.read()
        await close_writer(writer)

    async def challenge(reader, writer):
        with contextlib.suppress(Exception):
            await authenticate_server(reader, writer, security.secret)
        await close_writer(writer)

    servers = []
    try:
        plain, plain_port = await _bare_listener(hold)
        servers.append(plain)
        if security is not None:
            tls, tls_port = await _bare_listener(
                hold, listener_security.server_ssl_context()
            )
            auth, auth_port = await _bare_listener(challenge)
            servers += [tls, auth]
        for rid in rids:
            with rec.request(rid):
                with rec.span(
                    "net.transport.connect", rid, counted=security is None
                ):
                    _reader, writer = await open_connection(
                        "127.0.0.1", plain_port
                    )
                await close_writer(writer)
                if security is None:
                    continue
                with rec.span("net.transport.tls_connect", rid):
                    _reader, writer = await open_connection(
                        "127.0.0.1", tls_port,
                        ssl_context=security.client_ssl_context(),
                    )
                await close_writer(writer)
                reader, writer = await open_connection("127.0.0.1", auth_port)
                with rec.span("net.auth.handshake", rid):
                    await authenticate_client(reader, writer, security.secret)
                await close_writer(writer)
    finally:
        for server in servers:
            server.close()
            await server.wait_closed()


def _walk_session(rec, rid, w, seed, index, wire, store) -> None:
    """One session, frame by frame, as serve and a client exchange it."""
    assignment, behavior, slot_seed = inputs.session_inputs(w, seed, index)
    ship(rec, rid, wire, TaskRequest(participant=index))
    with rec.span("service.sessions.lifecycle", rid):
        store.create(
            task_id=assignment.task_id, participant=index,
            assignment=assignment, seed=slot_seed, protocol=w.protocol,
        )
    ship(rec, rid, wire, TaskAssign(
        assign=AssignMsg(
            task_id=assignment.task_id, n_inputs=assignment.n_inputs,
            workload="PasswordSearch",
        ),
        participant=index,
        domain_start=assignment.domain.start, domain_stop=assignment.domain.stop,
        protocol=w.protocol, n_samples=w.m, hash_name="sha256",
        sample_hash_name="sha256", leaf_encoding="hashed", seed=slot_seed,
    ))
    walk = CoreWalk(rec, rid, w, assignment, behavior, slot_seed)
    first = walk.commit()
    if w.protocol == "cbs":
        commitment = ship(rec, rid, wire, CommitmentFrame(msg=first)).msg
        challenge = walk.challenge(commitment)
        with rec.span("service.sessions.lifecycle", rid, units=0):
            store.record_commitment(assignment.task_id, commitment, challenge)
        challenge = ship(rec, rid, wire, ChallengeFrame(msg=challenge)).msg
        proofs = ship(rec, rid, wire, ProofsFrame(msg=walk.prove(challenge))).msg
        claimed_state = SessionState.COMMITTED
    else:
        proofs = ship(rec, rid, wire, SubmissionFrame(msg=first)).msg
        claimed_state = SessionState.ASSIGNED
    with rec.span("service.sessions.lifecycle", rid, units=0):
        store.begin_verification(assignment.task_id, claimed_state)
    outcome = walk.verify(proofs)
    with rec.span("service.sessions.lifecycle", rid, units=0):
        store.record_outcome(assignment.task_id, outcome)
    ship(rec, rid, wire, VerdictFrame(msg=VerdictMsg(
        task_id=assignment.task_id, accepted=outcome.accepted,
        reason="" if outcome.accepted else outcome.reason.value,
    )))
    walk.replay_children()


def replay_sessions(
    w: Workload, seed: int, security: SecurityConfig | None,
    listener_security: SecurityConfig | None, cpu_per_participant: float,
):
    """Walk ``w.replay`` sessions; returns ``(metrics, spans)``."""
    rec = Recorder()
    rids = [f"session-{index}" for index in range(w.replay)]
    asyncio.run(_connects(rec, rids, security, listener_security))
    store = SessionStore()
    wire = Wire()
    try:
        for index, rid in enumerate(rids):
            with rec.request(rid):
                _walk_session(rec, rid, w, seed, index, wire, store)
    finally:
        wire.close()
    spans = rec.finish()
    metrics = layer_metrics(
        spans, len(rids), w.participants, cpu_per_participant,
        DOMINANT_FRAMES[w.protocol],
    )
    return metrics, spans


# ----------------------------------------------------------------------
# Spans -> per-layer metrics
# ----------------------------------------------------------------------

# metric -> (span name, which time, scale to the metric's unit).  The
# value is sum(time) / sum(units) over that span name.
_PER_UNIT = {
    "tasks.evaluate_us_per_input": ("tasks.evaluate", "dur", 1e6),
    "merkle.leaf_hash_us_per_leaf": ("merkle.leaf_hash", "dur", 1e6),
    "merkle.build_us_per_leaf": ("merkle.build", "self", 1e6),
    "merkle.proof_build_us_per_sample": ("merkle.proof_build", "dur", 1e6),
    "merkle.proof_verify_us_per_sample": ("merkle.proof_verify", "dur", 1e6),
    "core.commit_ms_per_participant": ("core.commit", "dur", 1e3),
    "core.prove_ms_per_participant": ("core.prove", "dur", 1e3),
    "core.verify_ms_per_participant": ("core.verify", "dur", 1e3),
    "core.scheme_run_ms_per_participant": ("core.scheme_run", "dur", 1e3),
    "grid.jobs_build_us_per_participant": ("grid.jobs_build", "dur", 1e6),
    "grid.report_merge_us_per_participant": ("grid.report_merge", "self", 1e6),
    "service.jobcodec.encode_us_per_job": ("service.jobcodec.encode", "dur", 1e6),
    "service.jobcodec.decode_us_per_job": ("service.jobcodec.decode", "dur", 1e6),
    "service.jobcodec.bytes_per_job": ("service.jobcodec.encode", "bytes", 1),
    "service.jobcodec.outcomes_encode_us_per_job": (
        "service.jobcodec.outcomes_encode", "dur", 1e6),
    "service.jobcodec.outcomes_decode_us_per_job": (
        "service.jobcodec.outcomes_decode", "dur", 1e6),
    "service.jobcodec.outcome_bytes_per_job": (
        "service.jobcodec.outcomes_encode", "bytes", 1),
    "service.sessions.lifecycle_us_per_session": (
        "service.sessions.lifecycle", "dur", 1e6),
    "net.auth.handshake_ms": ("net.auth.handshake", "dur", 1e3),
}

# The same, restricted to the workload's dominant frame types.
_PER_FRAME = {
    "service.codec.encode_us_per_frame": ("service.codec.encode", "self", 1e6),
    "service.codec.decode_us_per_frame": ("service.codec.decode", "self", 1e6),
    "service.codec.bytes_per_frame": ("service.codec.encode", "bytes", 1),
    "net.framing.frame_split_us_per_frame": ("net.framing.frame_split", "dur", 1e6),
    "net.framing.socket_rtt_us_per_frame": ("net.framing.socket_rtt", "dur", 1e6),
}


def _ratio(spans: list[dict], name: str, field: str, scale: float):
    picked = [s for s in spans if s["name"] == name]
    units = sum(s["units"] for s in picked)
    if not units:
        return None
    return scale * sum(s.get(field, 0) for s in picked) / units


def layer_metrics(
    spans: list[dict], n_sampled: int, n_epoch: int,
    cpu_per_participant: float, dominant: set[str],
) -> dict[str, float]:
    out: dict[str, float] = {}
    for metric, (name, field, scale) in _PER_UNIT.items():
        value = _ratio(spans, name, field, scale)
        if value is not None:
            out[metric] = value
    framed = [s for s in spans if s.get("frame") in dominant]
    for metric, (name, field, scale) in _PER_FRAME.items():
        value = _ratio(framed, name, field, scale)
        if value is not None:
            out[metric] = value
    wrapped = [
        s for s in framed
        if s["name"] == "service.codec.encode" and s["inner_bytes"]
    ]
    if wrapped:
        out["service.codec.overhead_ratio"] = sum(
            s["bytes"] for s in wrapped
        ) / sum(s["inner_bytes"] for s in wrapped)
    tls = _ratio(spans, "net.transport.tls_connect", "dur", 1e3)
    if tls is not None:
        out["net.transport.tls_connect_ms"] = tls - _ratio(
            spans, "net.transport.connect", "dur", 1e3
        )

    # Attribution: each layer's self time per participant over the CPU
    # a participant costs end to end (all processes, untraced run).
    per_participant = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        if s["counted"]:
            share = s["self"] / (n_sampled if s["scope"] == "sample" else n_epoch)
            per_participant[layer_of(s["name"])] += share
    for layer, seconds in per_participant.items():
        if seconds:
            out[f"ledger.share.{layer}"] = seconds / cpu_per_participant
    out["ledger.attributed_share"] = (
        sum(per_participant.values()) / cpu_per_participant
    )
    out["ledger.unattributed_share"] = 1.0 - out["ledger.attributed_share"]
    return out
