"""Module-level verification jobs the service plane offloads.

These are the CPU-bound proof verifications the supervisor ships to
the execution engine (:meth:`SupervisorServer._offload`).  They live in
their own dependency-light module — not in ``server.py`` — because
they are wire entry points: the cluster backend dispatches them by
registered name through :mod:`repro.service.jobcodec`, and the codec's
default registry must be importable without dragging in the whole
asyncio server (and without an import cycle).

:func:`verify_round` is the judge step of the round's supervisor, as
the scheme builds it (:meth:`CBSScheme.supervisor
<repro.core.cbs.CBSScheme.supervisor>`), at that supervisor's own draw
— the CBS challenge re-drawn from ``seed``, the one the session issued,
or Eq. 4's over the NI-CBS root — so the verdict depends only on its
arguments, as in ``scheme.run(..., seed=seed)``.  The envelope was
checked on arrival (``SupervisorCore.receive``).

:func:`timed` is how the server learns what a job costs: it travels
with the job (a registered callable, like the jobs themselves) and
reads the clock on whichever thread, process or remote worker ran it.
"""

from __future__ import annotations

import time

from repro.core.cbs import CBSScheme
from repro.core.scheme import VerificationOutcome
from repro.tasks.result import TaskAssignment

__all__ = ["timed", "verify_round"]


def timed(job, *args):
    """Run ``job(*args)``; returns ``(result, thread-CPU seconds)``.

    Thread CPU time, not wall: a job preempted on a busy box must not
    read as a slow job.
    """
    started = time.thread_time()
    result = job(*args)
    return result, time.thread_time() - started


def verify_round(
    scheme: CBSScheme,
    assignment: TaskAssignment,
    seed: int,
    *messages,
) -> VerificationOutcome:
    """The supervisor's verdict on one round's messages: a CBS
    commitment and its proofs, or one NI-CBS submission, which is both.
    The root is the first message's, the bundle the last's."""
    supervisor = scheme.supervisor(assignment, seed)
    root = messages[0].root
    return supervisor.judge(messages[-1], root, supervisor.draw(root))
