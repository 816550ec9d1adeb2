"""Module-level verification jobs the service plane offloads.

These are the CPU-bound proof verifications the supervisor ships to
the execution engine (:meth:`SupervisorServer._offload`).  They live in
their own dependency-light module — not in ``server.py`` — because
they are wire entry points: the cluster backend dispatches them by
registered name through :mod:`repro.service.jobcodec`, and the codec's
default registry must be importable without dragging in the whole
asyncio server (and without an import cycle).

Everything a verdict depends on is deterministic given the arguments —
the challenge re-drawn from ``seed`` matches the one the server issued
— so a rebuilt supervisor reproduces exactly what a long-lived
in-process session would have computed.

:func:`timed` is how the server learns what a job costs: it travels
with the job (a registered callable, like the jobs themselves) and
reads the clock on whichever thread, process or remote worker ran it.
"""

from __future__ import annotations

import time

from repro.core.cbs import CBSSupervisor
from repro.core.ni_cbs import NICBSSupervisor
from repro.core.protocol import CommitmentMsg, NICBSSubmissionMsg, ProofBundleMsg
from repro.core.scheme import VerificationOutcome
from repro.merkle.hashing import get_hash
from repro.merkle.tree import LeafEncoding
from repro.tasks.result import TaskAssignment

__all__ = ["timed", "verify_cbs_job", "verify_nicbs_job"]


def timed(job, *args):
    """Run ``job(*args)``; returns ``(result, thread-CPU seconds)``.

    Thread CPU time, not wall: a job preempted on a busy box must not
    read as a slow job.
    """
    started = time.thread_time()
    result = job(*args)
    return result, time.thread_time() - started


def verify_cbs_job(
    assignment: TaskAssignment,
    n_samples: int,
    hash_name: str,
    leaf_encoding_value: str,
    seed: int,
    commitment: CommitmentMsg,
    bundle: ProofBundleMsg,
) -> VerificationOutcome:
    """Rebuild the CBS supervisor and run Step 4 in a pooled worker."""
    supervisor = CBSSupervisor(
        assignment,
        n_samples=n_samples,
        hash_fn=get_hash(hash_name),
        leaf_encoding=LeafEncoding(leaf_encoding_value),
        seed=seed,
    )
    supervisor.receive_commitment(commitment)
    supervisor.make_challenge()
    return supervisor.verify(bundle)


def verify_nicbs_job(
    assignment: TaskAssignment,
    n_samples: int,
    sample_hash_name: str,
    hash_name: str,
    leaf_encoding_value: str,
    submission: NICBSSubmissionMsg,
) -> VerificationOutcome:
    """One-shot NI-CBS verification in a pooled worker."""
    supervisor = NICBSSupervisor(
        assignment,
        n_samples=n_samples,
        sample_hash=get_hash(sample_hash_name),
        hash_fn=get_hash(hash_name),
        leaf_encoding=LeafEncoding(leaf_encoding_value),
    )
    return supervisor.verify(submission)
