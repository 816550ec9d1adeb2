"""Shared fixtures: canonical assignments, functions and behaviours,
plus the transport-security material (shared secret, self-signed TLS
cert) the repro.net suites use."""

from __future__ import annotations

import os
import secrets

import pytest
from hypothesis import settings

from repro.cheating import HonestBehavior, SemiHonestCheater
from repro.tasks import (
    MoleculeScreening,
    PasswordSearch,
    RangeDomain,
    SignalSearch,
    TaskAssignment,
)

# Tier-1 runs every property test at hypothesis's small default.  CI
# sets HYPOTHESIS_PROFILE=ci for the tests that take their example
# budget from the profile (the scheduler state machine, the per-path
# verifier against the shared fold): more examples, the same ones on
# every run, and no per-example deadline on a shared runner.
settings.register_profile(
    "ci", max_examples=600, derandomize=True, deadline=None
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def password_fn() -> PasswordSearch:
    """One-way workload (q ≈ 0); cheap to evaluate in tests."""
    return PasswordSearch()


@pytest.fixture
def signal_fn() -> SignalSearch:
    """Boolean-output workload with q = 0.5 (Fig. 2's hard case)."""
    return SignalSearch()


@pytest.fixture
def molecule_fn() -> MoleculeScreening:
    """Quantized-score workload with small nonzero q."""
    return MoleculeScreening(resolution=256)


@pytest.fixture
def small_domain() -> RangeDomain:
    return RangeDomain(0, 64)


@pytest.fixture
def medium_domain() -> RangeDomain:
    return RangeDomain(0, 500)


@pytest.fixture
def password_task(password_fn, medium_domain) -> TaskAssignment:
    return TaskAssignment("task-pw", medium_domain, password_fn)


@pytest.fixture
def small_password_task(password_fn, small_domain) -> TaskAssignment:
    return TaskAssignment("task-pw-small", small_domain, password_fn)


@pytest.fixture
def honest() -> HonestBehavior:
    return HonestBehavior()


@pytest.fixture
def half_cheater() -> SemiHonestCheater:
    return SemiHonestCheater(honesty_ratio=0.5)


# ----------------------------------------------------------------------
# Transport security material (repro.net)
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def secret_file(tmp_path_factory) -> str:
    """A high-entropy shared secret on disk, as operators deploy it."""
    path = tmp_path_factory.mktemp("auth") / "secret"
    path.write_text(secrets.token_hex(32) + "\n")
    return str(path)


@pytest.fixture(scope="session")
def wrong_secret_file(tmp_path_factory) -> str:
    """A different (equally valid-looking) secret: the impostor's."""
    path = tmp_path_factory.mktemp("auth-wrong") / "secret"
    path.write_text(secrets.token_hex(32) + "\n")
    return str(path)


def make_self_signed_cert(directory) -> tuple[str, str]:
    """One self-signed cert + key via the shared repro.net helper.

    Returns ``(cert_path, key_path)``; skips the requesting test when
    no ``openssl`` binary is available.
    """
    from repro.exceptions import ProtocolError
    from repro.net.transport import generate_self_signed_cert

    cert, key = directory / "cert.pem", directory / "key.pem"
    try:
        generate_self_signed_cert(
            str(cert), str(key), common_name="repro-coordinator", days=1
        )
    except ProtocolError as exc:
        pytest.skip(f"cannot generate TLS material: {exc}")
    return str(cert), str(key)


@pytest.fixture(scope="session")
def tls_material(tmp_path_factory) -> tuple[str, str]:
    """Session-wide ``(cert, key)`` pair for TLS-enabled suites."""
    return make_self_signed_cert(tmp_path_factory.mktemp("tls"))
