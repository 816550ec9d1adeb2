"""The one job the ledger registers: a no-op, for the engine's map floor.

The cluster wire only ships registered callables, so the no-op lives in
an importable module that spawn-local workers load via
``ClusterExecutor(worker_preload=["_jobs"])`` (the ledger directory
rides the coordinator's ``PYTHONPATH`` propagation).
"""

from repro.service.jobcodec import register_callable


def noop(x: int) -> int:
    return x


register_callable("ledger.noop", noop)
