"""What the ledger declares: workloads, metrics, units, directions, bounds.

This module is the single source of the names the benchmark emits;
``BENCHMARK.json`` at the repo root is ``manifest()`` written out
(``run.py --write-manifest``), and the smoke test pins the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: How long one contract run measures (``--seconds`` default), seconds.
RUN_SECONDS = 8


@dataclass(frozen=True)
class Workload:
    """One set of generated inputs.  The program never sees ``name``."""

    name: str
    why: str
    kind: str          # "pop" (run_population epochs) | "svc" (closed loop)
    engine: str        # pop: executor under test; svc: the server's engine
    protocol: str      # "cbs" | "ni-cbs"
    domain: int        # D: global domain size
    participants: int  # pop: per epoch; svc: slots the server offers
    m: int             # samples per participant
    secured: bool = False  # HMAC secret + pinned TLS on the socket
    replay: int = 32       # participants walked by the pipeline replay
    warmup_sessions: int = 128  # svc: sessions discarded before timing

    @property
    def inputs_each(self) -> int:
        return self.domain // self.participants

    def smoke(self) -> "Workload":
        """Same shape, D <= 2^10 and <= 32 participants (the tier-1 test)."""
        participants = min(self.participants, 32)
        return replace(
            self,
            participants=participants,
            domain=participants * min(self.inputs_each, 32),
            replay=4,
            warmup_sessions=2,
        )


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "pop_compute_serial",
        "16 large participants (4096 inputs each) on the serial engine: "
        "tasks+merkle+core do all the work and no wire exists, so a codec, "
        "net or scheduler change must show nothing; the serial baseline",
        kind="pop", engine="serial", protocol="cbs",
        domain=1 << 16, participants=16, m=16, replay=16,
    ),
    Workload(
        "pop_compute_cluster",
        "same population behind ClusterExecutor(workers=2): 16 large jobs "
        "whose ~80 KB results ride back whole, so scaling efficiency, "
        "scheduler tail and result encode/accept show; job encode does not",
        kind="pop", engine="cluster", protocol="cbs",
        domain=1 << 16, participants=16, m=16, replay=16,
    ),
    Workload(
        "pop_small_cluster",
        "512 sixteen-input participants on the cluster: ~0.4 ms compute "
        "each, so jobcodec, frame codec, framing, coordinator accept and "
        "dispatch dominate (ROADMAP items 2-4 must show here)",
        kind="pop", engine="cluster", protocol="cbs",
        domain=1 << 13, participants=512, m=16,
    ),
    Workload(
        "svc_nicbs_plain",
        "repro.cli serve, NI-CBS m=16, 64 inputs per participant, one "
        "plaintext connection each: per-session fixed costs (frame codec, "
        "session store, accept) dominate the supervisor's CPU",
        kind="svc", engine="threads", protocol="ni-cbs",
        domain=1 << 20, participants=1 << 14, m=16,
    ),
    Workload(
        "svc_cbs_secured",
        "interactive CBS m=16 over HMAC + pinned TLS: three extra frames "
        "and a TLS+HMAC handshake per connection, so net.auth, "
        "net.transport and round trips dominate",
        kind="svc", engine="threads", protocol="cbs",
        domain=1 << 19, participants=1 << 13, m=16, secured=True,
    ),
    Workload(
        "svc_nicbs_proofheavy",
        "NI-CBS m=256, 512 inputs per participant: Merkle used for reads "
        "(256 proofs built, shipped, verified) and few ~100 KB frames, so "
        "base64-in-JSON, proof build/verify and large-frame I/O dominate",
        kind="svc", engine="threads", protocol="ni-cbs",
        domain=1 << 20, participants=1 << 11, m=256,
    ),
)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(name)


# (name, unit, better, bound) -- measured with tracing off, on every
# workload, never zero.  Times are reference-speed seconds (measure.py).
# The three time bounds sit at the contract's ceiling: same-code spread
# over ten seeds on the authoring box is 2-7% in a quiet hour and up to
# 13% in a noisy one (README "Measured same-code spread").
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("participants_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_participant", "ms", "lower", 0.25),
    ("supervisor_cpu_ms_per_participant", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("wire_bytes_per_participant", "B", "lower", 0.01),
)

#: Layers that get a ``ledger.share.<layer>`` row (module names).
LAYERS: tuple[str, ...] = (
    "tasks", "merkle", "core", "grid", "engine", "service.jobcodec",
    "service.codec", "service.sessions", "net.framing", "net.auth",
    "net.transport",
)

# (name, unit, better) -- from the traced run.  0 means "this workload
# does not cross that layer".
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("tasks.evaluate_us_per_input", "us", "lower"),
    ("merkle.leaf_hash_us_per_leaf", "us", "lower"),
    ("merkle.build_us_per_leaf", "us", "lower"),
    ("merkle.proof_build_us_per_sample", "us", "lower"),
    ("merkle.proof_verify_us_per_sample", "us", "lower"),
    ("core.commit_ms_per_participant", "ms", "lower"),
    ("core.prove_ms_per_participant", "ms", "lower"),
    ("core.verify_ms_per_participant", "ms", "lower"),
    ("core.scheme_run_ms_per_participant", "ms", "lower"),
    ("grid.jobs_build_us_per_participant", "us", "lower"),
    ("grid.report_merge_us_per_participant", "us", "lower"),
    ("engine.batches_per_epoch", "count", "lower"),
    ("engine.map_floor_us_per_item", "us", "lower"),
    ("engine.warmup_epoch_s", "s", "lower"),
    ("engine.cluster.spawn_s", "s", "lower"),
    ("engine.cluster.chunks_per_epoch", "count", "lower"),
    ("engine.cluster.jobs_requeued", "count", "lower"),
    ("engine.cluster.scheme_cache_hit_ratio", "ratio", "higher"),
    ("engine.cluster.chunk_ms_p50", "ms", "lower"),
    ("engine.cluster.worker_execute_ms_p50", "ms", "lower"),
    ("engine.cluster.accept_share", "ratio", "lower"),
    ("engine.cluster.worker_busy_share", "ratio", "higher"),
    ("engine.cluster.scaling_efficiency", "ratio", "higher"),
    ("service.jobcodec.encode_us_per_job", "us", "lower"),
    ("service.jobcodec.decode_us_per_job", "us", "lower"),
    ("service.jobcodec.bytes_per_job", "B", "lower"),
    ("service.jobcodec.outcomes_encode_us_per_job", "us", "lower"),
    ("service.jobcodec.outcomes_decode_us_per_job", "us", "lower"),
    ("service.jobcodec.outcome_bytes_per_job", "B", "lower"),
    ("service.codec.encode_us_per_frame", "us", "lower"),
    ("service.codec.decode_us_per_frame", "us", "lower"),
    ("service.codec.bytes_per_frame", "B", "lower"),
    ("service.codec.overhead_ratio", "ratio", "lower"),
    ("service.codec.frames_per_participant", "count", "lower"),
    ("net.framing.frame_split_us_per_frame", "us", "lower"),
    ("net.framing.socket_rtt_us_per_frame", "us", "lower"),
    ("net.auth.handshake_ms", "ms", "lower"),
    ("net.transport.connect_ms_p50", "ms", "lower"),
    ("net.transport.tls_connect_ms", "ms", "lower"),
    ("service.client.round_ms_p50", "ms", "lower"),
    ("service.client.session_ms_p50", "ms", "lower"),
    ("service.client.session_ms_p90", "ms", "lower"),
    ("service.client.session_ms_p99", "ms", "lower"),
    ("service.server.submission_ms_mean", "ms", "lower"),
    ("service.server.peak_rss_mb", "MiB", "lower"),
    ("service.sessions.lifecycle_us_per_session", "us", "lower"),
    ("obs.tracing_overhead_share", "ratio", "lower"),
    ("obs.spans_per_epoch", "count", "lower"),
    ("ledger.attributed_share", "ratio", "higher"),
    ("ledger.unattributed_share", "ratio", "lower"),
) + tuple((f"ledger.share.{layer}", "ratio", "lower") for layer in LAYERS)

UNITS: dict[str, str] = {
    **{name: unit for name, unit, _better, _bound in END_TO_END},
    **{name: unit for name, unit, _better in PER_LAYER},
}


def manifest() -> dict:
    """The root ``BENCHMARK.json``, in the builder contract's form."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
