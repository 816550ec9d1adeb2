#!/usr/bin/env python3
"""NI-CBS through a Grid Resource Broker (the paper's §4 GRACE setting).

In the GRACE architecture the supervisor hands a bulk of tasks to a
broker and never addresses participants directly — so the interactive
commit-then-challenge round of CBS is impossible.  NI-CBS derives the
samples from the commitment itself (Eq. 4) and the whole proof travels
supervisor-ward in a single message via the broker.

The supervisor here is the real service (``repro.service``) over an
in-process connection: the broker is one client that takes every slot,
hands each assignment to a participant, and relays each submission
frame back unopened.

Also demonstrates §4.2's regrinding attack and the Eq. 5 economics:
with a cheap sample hash ``g`` the attack is profitable; iterating
``g`` per Eq. 5 destroys the profit.

Run:  python examples/grace_broker.py
"""

import asyncio

from repro import (
    HonestBehavior,
    SemiHonestCheater,
    SignalSearch,
    RangeDomain,
    TaskAssignment,
)
from repro.analysis import format_table
from repro.analysis.costs import min_sample_hash_cost, uncheatable_g_rounds
from repro.cheating.regrind import expected_regrind_attempts, run_regrind_attack
from repro.merkle import get_hash
from repro.service import (
    ServiceClient,
    ServiceConfig,
    SubmissionFrame,
    SupervisorServer,
    TaskRequest,
    read_frame,
    write_frame,
)
from repro.service.codec import resolve_scheme


async def broker(server: SupervisorServer, workers: list) -> dict[str, bool]:
    """Take one slot per worker, place it on that worker, then relay
    each worker's submission; returns the verdicts by task id."""
    reader, writer = server.connect_memory()
    submissions = []
    for behavior in workers:
        await write_frame(writer, TaskRequest(participant=None))
        assign = await read_frame(reader)
        # The worker's side: rebuild the task and the scheme from the
        # envelope, and run the scheme's participant.
        scheme = resolve_scheme(
            assign.protocol, assign.n_samples, assign.hash_name,
            assign.sample_hash_name, assign.leaf_encoding,
        )
        participant = scheme.participant(
            ServiceClient.build_assignment(assign), behavior, assign.seed
        )
        submissions.append(SubmissionFrame(msg=participant.compute_and_submit()))
    verdicts = {}
    for submission in submissions:
        await write_frame(writer, submission)
        verdict = (await read_frame(reader)).msg
        verdicts[verdict.task_id] = verdict.accepted
    writer.close()
    return verdicts


def run_brokered_grid() -> None:
    print("== NI-CBS over the GRACE broker topology ==")
    config = ServiceConfig(
        domain=RangeDomain(0, 4_096),
        workload="SignalSearch",
        protocol="ni-cbs",
        n_samples=24,
        n_participants=4,
    )
    workers = [
        HonestBehavior(),
        HonestBehavior(),
        SemiHonestCheater(0.5),
        HonestBehavior(),
    ]

    async def run() -> tuple[dict[str, bool], int]:
        server = SupervisorServer(config, engine="serial")
        try:
            verdicts = await broker(server, workers)
        finally:
            await server.stop()
        return verdicts, int(server.registry.value("repro_connections_total"))

    verdicts, connections = asyncio.run(run())
    rows = [
        {
            "task": task_id,
            "placed_on": f"worker-{i}",
            "behavior": workers[i].name,
            "accepted": accepted,
        }
        for i, (task_id, accepted) in enumerate(verdicts.items())
    ]
    print(format_table(rows))
    print(f"supervisor connections: {connections} (all via broker)\n")


def run_regrind_economics() -> None:
    print("== §4.2 regrinding attack and the Eq. 5 defence ==")
    n, m, r = 256, 6, 0.8
    fn_cost = 50.0
    task = TaskAssignment(
        "grind-target",
        RangeDomain(0, n),
        SignalSearch(cost=fn_cost),
    )
    print(
        f"n={n}, m={m}, r={r}: expected attempts 1/r^m = "
        f"{expected_regrind_attempts(r, m):.1f}"
    )

    rows = []
    rounds_needed = uncheatable_g_rounds(n, fn_cost, r, m)
    for label, g in (
        ("cheap g (1 hash)", get_hash("sha256")),
        (f"Eq.5 g (sha256^{rounds_needed})", get_hash(f"sha256^{rounds_needed}")),
    ):
        result = run_regrind_attack(
            task,
            honesty_ratio=r,
            n_samples=m,
            sample_hash=g,
            seed=4,
            max_attempts=50_000,
        )
        rows.append(
            {
                "g": label,
                "attempts": result.attempts,
                "succeeded": result.succeeded,
                "attack_cost": round(result.attack_cost),
                "honest_cost": round(result.honest_task_cost),
                "profitable": result.profitable,
            }
        )
    print(format_table(rows))
    print(
        "minimum C_g per Eq. 5: "
        f"{min_sample_hash_cost(n, fn_cost, r, m):.1f} cost units"
    )


if __name__ == "__main__":
    run_brokered_grid()
    run_regrind_economics()
