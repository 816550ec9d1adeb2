"""Registered cluster job functions shared by tests.

The typed job codec only ships *registered* callables across the
cluster wire (jobs are data, never code), so test jobs live here —
a real importable module — instead of inline in the test files.
Spawn-local worker daemons reach these registrations through
``worker_preload=("cluster_helpers",)`` (the tests directory rides the
coordinator's ``PYTHONPATH`` propagation), exactly the hook a
deployment uses for its own job modules.
"""

import time

from repro.service.jobcodec import register_callable


def _square(x: int) -> int:
    return x * x


def _sleepy_square(args: tuple) -> int:
    delay, x = args
    time.sleep(delay)
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"boom {x}")


def _boom_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("boom 3")
    return x * x


def _unencodable_result(_item) -> object:
    return object()  # no jobcodec registration: the result cannot encode


def _megabyte(x: int) -> bytes:
    return bytes([x % 256]) * (1 << 20)


register_callable("tests.square", _square)
register_callable("tests.sleepy_square", _sleepy_square)
register_callable("tests.boom", _boom)
register_callable("tests.boom_on_three", _boom_on_three)
register_callable("tests.unencodable_result", _unencodable_result)
register_callable("tests.megabyte", _megabyte)
