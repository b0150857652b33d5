"""Golden fingerprints of two full trace replays.

Each replay builds a two-tenant deployment, bootstraps it with one
orchestrated refresh, and replays a three-round trace; the fingerprint is
a SHA-256 over its discrete outcomes (signed indexes, publication blobs,
install and wire counters, per-client serial sequences).  The pinned
values hold whether the content memos (parse, deflate, chunking, RSA
sign/verify/keypair) start cold or already warm from the previous run.
The serial and interleaved schedulers reach the same discrete outcomes,
so they share one golden hash.

Outcomes are deterministic, but they follow the TSR's RSA key, which is
sealed to the enclave measurement: ``measure_program`` hashes the source
text of ``TsrProgram`` (``repro.core.program``) into MRENCLAVE.  Any edit
to that class's text, even to a comment, changes the TSR key and
therefore every golden hash below; the measurement itself is pinned too.
"""

import hashlib

import pytest

from repro.archive.apk import ApkPackage, PackageFile, clear_parse_memo
from repro.archive.chunks import clear_chunk_memo
from repro.archive.gz import clear_compress_memo
from repro.core.program import TsrProgram
from repro.crypto.rsa import clear_crypto_memos
from repro.sgx.enclave import measure_program
from repro.workload.generator import generate_trace
from repro.workload.replay import replay_trace
from repro.workload.scenario import (
    build_multi_tenant_scenario,
    multi_tenant_refresh,
)

INTERLEAVED_GOLDEN = (
    "9a674f5a8bd1ed6316e20a0e15606d34627aa5ee7c69c6c262b77cc8de4bd13e")
STREAMING_GOLDEN = (
    "51422c72e9c7220aa46ae8961838a3a0eafa847780cec935f08329b9b54f5a1a")
INTERLEAVED_NO_ACCOUNTS_GOLDEN = (
    "b7911e6a560a2b543c4aef5225631b4355644236322d8dd143df8b9f0551598a")
STREAMING_NO_ACCOUNTS_GOLDEN = (
    "5c6af5ee189d51f15571733a22929eed66145c789832e0b93ff82d923336e0ab")
TSR_MRENCLAVE = (
    "736fc8bcaac7803b7b24a5e08fdaa73dfc50cc18020b7f95cdf6a7dabd03a66f")

STREAMING = dict(mode="streaming", clients=12, fleet_size=12,
                 clients_per_wave=4, streaming=True)


def _packages(count=6, reps=600, files=3, accounts=True):
    packages = []
    for i in range(count):
        scripts = {}
        if accounts and i % 3 == 0:
            scripts = {".pre-install": f"addgroup -S grp{i}\n"
                                       f"adduser -S -G grp{i} svc{i}\n"}
        pkg_files = [PackageFile(f"/usr/bin/pkg{i}",
                                 (b"\x7fELF" + bytes([i])) * reps)]
        pkg_files += [PackageFile(f"/usr/lib/pkg{i}/f{j}", bytes([i, j]) * 64)
                      for j in range(files - 1)]
        packages.append(ApkPackage(name=f"pkg-{i:02d}", version="1.0-r0",
                                   scripts=scripts, files=pkg_files))
    return packages


def _replay(mode="interleaved", accounts=True, clients=6, **trace_kwargs):
    scenario = build_multi_tenant_scenario(
        tenants=2, overlap=0.5, packages=_packages(accounts=accounts))
    multi_tenant_refresh(scenario)
    # Wide simulated margins (simulated seconds are free): charged costs
    # are wall-measured, so events too close to an availability boundary
    # could land on different serials across runs.
    trace = generate_trace(rounds=3, interval=30.0, publish_fraction=0.3,
                           sync_lag=2.0, refresh_lag=6.0, pull_lag=20.0,
                           seed=11, **trace_kwargs)
    report = replay_trace(scenario, trace, clients=clients, mode=mode)
    return scenario, report


def _fingerprint(scenario, report):
    """SHA-256 over the discrete outcomes: signed indexes, publication
    blobs, install/wire counters, and per-client serial sequences."""
    h = hashlib.sha256()
    for repo_id in scenario.tenants:
        h.update(scenario.tsr.get_index_bytes(repo_id))
        for publication in scenario.tsr.publications(repo_id):
            h.update(str(publication.serial).encode())
            h.update(publication.index_bytes)
            for name in sorted(publication.blobs):
                h.update(name.encode())
                h.update(publication.blobs[name])
    h.update(str((report.installs, report.failed_installs,
                  report.client_wire_bytes, report.publishes)).encode())
    for name in sorted(report.timelines):
        serials = [s for _, s in report.timelines[name].transitions]
        h.update(f"{name}:{serials}".encode())
    return h.hexdigest()


@pytest.fixture
def cold_memos():
    """Start from empty content memos, whatever ran earlier."""
    for clear in (clear_crypto_memos, clear_compress_memo, clear_chunk_memo,
                  clear_parse_memo):
        clear()


@pytest.mark.parametrize("kwargs, golden", [
    ({}, INTERLEAVED_GOLDEN),
    (STREAMING, STREAMING_GOLDEN),
    (dict(mode="serial"), INTERLEAVED_GOLDEN),
    (dict(accounts=False), INTERLEAVED_NO_ACCOUNTS_GOLDEN),
    (dict(STREAMING, accounts=False), STREAMING_NO_ACCOUNTS_GOLDEN),
], ids=["interleaved", "streaming", "serial", "interleaved-no-accounts",
        "streaming-no-accounts"])
def test_replay_matches_golden_cold_and_warm(cold_memos, kwargs, golden):
    cold = _fingerprint(*_replay(**kwargs))
    warm = _fingerprint(*_replay(**kwargs))
    assert cold == golden
    assert warm == golden


def test_tsr_measurement_matches_golden():
    assert measure_program(TsrProgram).hex() == TSR_MRENCLAVE
