"""Edge-replica serving tier: differential identity, the freshness
quorum, adversarial sync/serving, and the serve-induced re-sanitize
queue.

The tier's contract is the CDN bargain with none of the trust: replicas
absorb every routine pull, yet replication must move *time only, never
content* — a replicated replay's discrete outcomes (installs, per-client
serial transitions, pulled wire bytes, published bytes) are
byte-identical to the primary-only replay, in both replay modes.  The
adversarial half pins the escape hatches: a frozen replica is refused by
the pull-side freshness quorum, a tampering replica is rejected by the
client's envelope verification and recovered around via a primary
(origin) full pull, and a tampered or rolled-back sync envelope never
makes it into a replica's adopted log.
"""

import dataclasses
import random

import pytest

from repro.archive.apk import ApkPackage, PackageFile
from repro.archive.index import RepositoryIndex
from repro.core.delta import build_index_delta, parse_package_delta_envelope
from repro.core.replica import ReplicaTSR, check_replica_freshness
from repro.util.errors import RollbackError
from repro.workload.generator import Trace, TraceEvent, evolve_packages
from repro.workload.replay import replay_trace
from repro.workload.scenario import (
    build_multi_tenant_scenario,
    build_scenario,
    multi_tenant_refresh,
)

ROUNDS = 4
WAVE = 8
FLEET = ROUNDS * WAVE


def _population(count=8, reps=400, files=6):
    packages = []
    for i in range(count):
        scripts = {}
        if i % 3 == 0:
            scripts = {".pre-install": f"addgroup -S grp{i}\n"
                                       f"adduser -S -G grp{i} svc{i}\n"}
        pkg_files = [PackageFile(f"/usr/bin/pkg{i}",
                                 (b"\x7fELF" + bytes([i])) * reps)]
        pkg_files += [PackageFile(f"/usr/lib/pkg{i}/f{j}", bytes([i, j]) * 64)
                      for j in range(files - 1)]
        packages.append(ApkPackage(name=f"pkg-{i:02d}", version="1.0-r0",
                                   scripts=scripts, files=pkg_files))
    return packages


def _fleet_trace():
    """Publish/sync/refresh every 3s; each pull wave rotates in fresh
    clients and lands at the refresh start instant, so its pinned
    publication trails the refresh in flight — the stale-serve coupling
    the re-sanitize queue models (and the replicas absorb)."""
    events = []
    for r in range(ROUNDS):
        at = r * 3.0
        events.append(TraceEvent(at=at, kind="publish", fraction=0.4, seed=r))
        events.append(TraceEvent(at=at + 0.2, kind="mirror_sync"))
        events.append(TraceEvent(at=at + 0.4, kind="refresh"))
        events.append(TraceEvent(at=at + 0.4, kind="fleet_pull",
                                 clients=tuple(range(r * WAVE,
                                                     (r + 1) * WAVE)),
                                 installs_per_client=2, seed=1000 + r))
    return Trace(events=events, horizon=ROUNDS * 3.0, seed=5)


def _run_replay(replica_count, mode="interleaved", frozen=0):
    scenario = build_multi_tenant_scenario(tenants=2, overlap=0.6,
                                           packages=_population())
    multi_tenant_refresh(scenario)
    replicas = [ReplicaTSR(f"edge-{i:02d}.example", scenario.tsr,
                           sync_cadence=1.0)
                for i in range(replica_count)]
    for replica in replicas[:frozen]:
        replica.frozen = True
    report = replay_trace(scenario, _fleet_trace(), clients=FLEET,
                          mode=mode, delta_updates=True, replicas=replicas,
                          shared_tpm_seed=2020)
    return scenario, replicas, report


def _serials(report):
    return {client: tuple(serial for _, serial in timeline.transitions)
            for client, timeline in report.timelines.items()}


def _published(scenario):
    return [
        (repo_id, publication.serial, publication.index_bytes,
         sorted(publication.blobs.items()))
        for repo_id in scenario.tenants
        for publication in scenario.tsr.publications(repo_id)
    ]


# -- differential identity -----------------------------------------------------


class TestDifferentialIdentity:
    def test_replicated_replay_matches_primary_only(self):
        sc0, _, rep0 = _run_replay(0)
        sc3, replicas, rep3 = _run_replay(3)

        assert rep0.failed_installs == 0 and rep3.failed_installs == 0
        assert rep3.installs == rep0.installs
        assert sum(rep3.pull_wire_bytes) == sum(rep0.pull_wire_bytes)
        assert _serials(rep3) == _serials(rep0)
        assert _published(sc3) == _published(sc0)

        # The replicas genuinely carried the traffic: every routine pull
        # left the primary, whose serve path (and re-sanitize debt) went
        # quiet — while without replicas the stale-serve coupling bites.
        assert sum(replica.serve_count for replica in replicas) > 0
        assert sc0.tsr.serve_fallbacks > 0
        assert sc3.tsr.serve_fallbacks == 0
        assert rep3.replica_sync_bytes > 0
        assert rep3.replica_refusals == 0

    def test_streaming_replay_matches_materialized(self):
        _, _, materialized = _run_replay(3, mode="interleaved")
        _, _, streaming = _run_replay(3, mode="streaming")

        assert streaming.installs == materialized.installs
        assert streaming.failed_installs == 0
        assert sum(streaming.pull_wire_bytes) == \
            sum(materialized.pull_wire_bytes)
        # Streaming retires clients (and their timelines) as waves drain
        # — that's its O(active) memory contract — so identity is pinned
        # on the aggregates it does keep: counts, wire, and timing.
        assert streaming.replica_sync_bytes == materialized.replica_sync_bytes
        assert streaming.downloaded_bytes == materialized.downloaded_bytes
        for q in (50, 99):
            assert streaming.pull_latency_quantile(q) == pytest.approx(
                materialized.pull_latency_quantile(q), rel=1e-9)


# -- freshness quorum ----------------------------------------------------------


class TestFreshnessQuorum:
    def test_frozen_replica_is_refused_and_outcomes_unchanged(self):
        _, _, baseline = _run_replay(0)
        _, replicas, report = _run_replay(2, frozen=1)
        frozen, healthy = replicas

        # The frozen replica stalls past its staleness bound and the
        # wave-side quorum refuses it; its clients fail over without a
        # single divergent outcome.
        assert frozen.refusals > 0
        assert healthy.refusals == 0
        assert report.replica_refusals == frozen.refusals
        assert report.failed_installs == 0
        assert report.installs == baseline.installs
        assert _serials(report) == _serials(baseline)

    def _synced_replica(self):
        scenario = build_scenario(packages=_population(count=4),
                                  with_monitor=False)
        scenario.tsr.record_publication(scenario.repo_id, 0.0)
        replica = ReplicaTSR("edge-00.example", scenario.tsr,
                             sync_cadence=1.0)
        replica.sync_from_primary(at=scenario.clock.now() + 0.1)
        return scenario, replica

    def _keys(self, scenario):
        return [scenario.tsr_public_key]

    def test_fresh_replica_passes_and_returns_serial(self):
        scenario, replica = self._synced_replica()
        as_of = replica.synced_through
        serial = check_replica_freshness(replica, scenario.repo_id, as_of,
                                         self._keys(scenario))
        expected = scenario.tsr.publication_at(scenario.repo_id, as_of)
        assert serial == expected.serial

    def test_staleness_bound_refuses_a_lagging_replica(self):
        scenario, replica = self._synced_replica()
        as_of = replica.synced_through + replica.staleness_bound + 0.5
        with pytest.raises(RollbackError, match="lags"):
            check_replica_freshness(replica, scenario.repo_id, as_of,
                                    self._keys(scenario))

    def test_unverifiable_served_index_is_refused(self):
        scenario, replica = self._synced_replica()
        log = replica._publications[scenario.repo_id]
        corrupt = bytearray(log[-1].index_bytes)
        corrupt[len(corrupt) // 2] ^= 0x01
        log[-1] = dataclasses.replace(log[-1], index_bytes=bytes(corrupt))
        with pytest.raises(RollbackError, match="unverifiable"):
            check_replica_freshness(replica, scenario.repo_id,
                                    replica.synced_through,
                                    self._keys(scenario))

    def test_old_serial_replay_is_refused(self):
        scenario, replica = self._synced_replica()
        _publish_round(scenario, seed=1)
        now = scenario.clock.now()
        # The replica claims a fresh heartbeat but still serves the old
        # publication — the serial comparison against the primary's view
        # catches the replay.
        replica.synced_through = now
        with pytest.raises(RollbackError, match="replays serial"):
            check_replica_freshness(replica, scenario.repo_id, now,
                                    self._keys(scenario))


# -- adversarial: sync path ----------------------------------------------------


def _publish_round(scenario, seed, fraction=0.5):
    rng = random.Random(f"replica-round:{seed}")
    batch = evolve_packages(scenario.population, fraction, rng)
    scenario.origin.publish_many([(package, None) for package in batch])
    for package in batch:
        scenario.population[package.name] = package
    scenario.sync_mirrors()
    scenario.refresh()
    scenario.tsr.record_publication(scenario.repo_id, scenario.clock.now())
    return [package.name for package in batch]


def _tamper(scenario, hostname, operation, mutate):
    """Wrap a host handler, mutating one operation's responses."""
    host = scenario.network.host(hostname)
    original = host.handler

    def tampering(op, payload):
        blob, size = original(op, payload)
        if op == operation:
            blob = mutate(blob)
            size = len(blob)
        return blob, size

    host.handler = tampering
    return original


class TestAdversarialSync:
    def _scenario_and_replica(self):
        scenario = build_scenario(packages=_population(count=4),
                                  with_monitor=False)
        scenario.tsr.record_publication(scenario.repo_id, 0.0)
        replica = ReplicaTSR("edge-00.example", scenario.tsr,
                             sync_cadence=1.0)
        replica.sync_from_primary(at=scenario.clock.now())
        return scenario, replica

    def test_tampered_sync_envelope_never_adopted(self):
        scenario, replica = self._scenario_and_replica()
        synced_through = replica.synced_through
        adopted = list(replica._publications[scenario.repo_id])
        _publish_round(scenario, seed=1)

        def corrupt(blob: bytes) -> bytes:
            at = blob.index(b"\nU:") + 10
            return blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]

        original = _tamper(scenario, scenario.tsr.hostname,
                           "get_index_delta", corrupt)
        replica.sync_from_primary(at=scenario.clock.now())
        scenario.network.host(scenario.tsr.hostname).handler = original

        # Nothing adopted, freshness stalled: the replica stays on its
        # last verified state rather than serving unauthenticated bytes.
        assert replica.sync_failures == 1
        assert replica.synced_through == synced_through
        assert replica._publications[scenario.repo_id] == adopted

        # A clean retry catches up.
        replica.sync_from_primary(at=scenario.clock.now())
        assert replica.synced_through > synced_through
        assert len(replica._publications[scenario.repo_id]) > len(adopted)

    def test_rolled_back_sync_envelope_is_refused(self):
        scenario, replica = self._scenario_and_replica()
        _publish_round(scenario, seed=2)
        replica.sync_from_primary(at=scenario.clock.now())
        log = scenario.tsr.publications(scenario.repo_id)
        old = RepositoryIndex.from_bytes(log[0].index_bytes)
        current = RepositoryIndex.from_bytes(log[-1].index_bytes)
        assert old.serial < current.serial
        stale = build_index_delta(current, old)  # validly signed, older

        original = _tamper(scenario, scenario.tsr.hostname,
                           "get_index_delta", lambda blob: stale)
        replica.sync_from_primary(at=scenario.clock.now() + 5.0)
        scenario.network.host(scenario.tsr.hostname).handler = original

        assert replica.sync_failures == 1
        served = RepositoryIndex.from_bytes(
            replica._newest_publication(scenario.repo_id).index_bytes)
        assert served.serial == current.serial  # never went backwards


# -- adversarial: a tampering replica, recovered via origin pulls --------------


def _rand_packages(count=4, payload=12 * 1024):
    """Incompressible payloads, so package deltas genuinely engage
    instead of degenerating to not-smaller full envelopes."""
    return [
        ApkPackage(name=f"pkg-{i:02d}", version="1.0-r0",
                   files=[PackageFile(
                       f"/usr/bin/pkg{i}",
                       random.Random(4000 + i).randbytes(payload))])
        for i in range(count)
    ]


class TestAdversarialServing:
    def _client_on_replica(self):
        scenario = build_scenario(packages=_rand_packages(count=4),
                                  with_monitor=False)
        scenario.tsr.record_publication(scenario.repo_id, 0.0)
        replica = ReplicaTSR("edge-00.example", scenario.tsr,
                             sync_cadence=1.0)
        replica.sync_from_primary(at=scenario.clock.now() + 0.1)
        _, manager = scenario.new_node("victim", delta_updates=True)
        manager._client.replica_host = replica.hostname
        return scenario, replica, manager

    def test_routine_traffic_never_touches_the_primary(self):
        scenario, replica, manager = self._client_on_replica()
        primary_serves = []
        original = _tamper(
            scenario, scenario.tsr.hostname, "get_index",
            lambda blob: primary_serves.append(1) or blob)
        manager.update()
        name = sorted(scenario.population)[0]
        manager.install(name)
        scenario.network.host(scenario.tsr.hostname).handler = original
        assert replica.serve_count > 0
        assert primary_serves == []

    def test_tampered_replica_index_delta_recovered_from_origin(self):
        scenario, replica, manager = self._client_on_replica()
        manager.update()
        _publish_round(scenario, seed=3)
        replica.sync_from_primary(at=scenario.clock.now())

        def corrupt(blob: bytes) -> bytes:
            at = blob.index(b"\nU:") + 10
            return blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]

        serves_before = replica.serve_count
        original = _tamper(scenario, replica.hostname,
                           "get_index_delta", corrupt)
        index = manager.update()
        scenario.network.host(replica.hostname).handler = original

        # Rejected, then recovered through a full pull that bypassed the
        # tampering replica entirely: only the poisoned delta itself was
        # served from the edge.
        assert manager.delta_stats.index_rejected == 1
        assert manager.delta_stats.index_full.get("rejected") == 1
        assert replica.serve_count == serves_before + 1
        assert index.to_bytes() == scenario.tsr.get_index_bytes(
            scenario.repo_id)

    def test_tampered_replica_package_delta_recovered_from_origin(self):
        scenario, replica, manager = self._client_on_replica()
        manager.update()
        name = sorted(scenario.population)[0]
        manager.install(name)
        _publish_round(scenario, seed=4, fraction=1.0)
        replica.sync_from_primary(at=scenario.clock.now())
        manager.update()

        def corrupt(blob: bytes) -> bytes:
            kind, _, _ = parse_package_delta_envelope(blob)
            assert kind == "delta"  # the attack targets the delta path
            return blob[:-3] + bytes([blob[-3] ^ 0xFF]) + blob[-2:]

        serves_before = replica.serve_count
        original = _tamper(scenario, replica.hostname, "get_package_delta",
                           corrupt)
        manager.install(name)  # upgrade through the tampered edge
        scenario.network.host(replica.hostname).handler = original

        assert manager.delta_stats.package_rejected == 1
        assert manager.delta_stats.package_full.get("rejected") == 1
        assert replica.serve_count == serves_before + 1
        entry = manager.index.get(name)
        record = manager._node.pkgdb.get(name)
        assert record.content_hash == entry.sha256  # origin bytes won


# -- the serve-induced re-sanitize queue and publication retention -------------


class TestResanitizeQueue:
    def _scenario(self):
        scenario = build_scenario(packages=_population(count=4),
                                  with_monitor=False)
        scenario.tsr.record_publication(scenario.repo_id, 0.0)
        return scenario

    def _changed_name(self, scenario, changed):
        old = scenario.tsr.publications(scenario.repo_id)[0]
        for name in changed:
            if name in old.entries:
                return name
        raise AssertionError("publish round changed nothing servable")

    def test_stale_serve_queues_one_deduped_job(self):
        scenario = self._scenario()
        tsr = scenario.tsr
        name = self._changed_name(scenario, _publish_round(scenario, seed=5))
        old = tsr.publications(scenario.repo_id)[0]

        # The live cache now holds the new round's blob; a time-stamped
        # serve of the old publication falls back to the captured copy —
        # bytes still verify against the *old* signed index — and queues
        # exactly one re-sanitize job, deduped across repeat serves.
        blob = tsr.serve_package_at(scenario.repo_id, name, as_of=0.0)
        tsr.serve_package_at(scenario.repo_id, name, as_of=0.0)
        assert blob == old.blobs[name]
        assert tsr.serve_fallbacks == 1  # counts queued jobs: deduped
        jobs = tsr.take_resanitize_jobs()
        assert [job.name for job in jobs] == [name]

        # Completing the job restores the served artifact: the next
        # time-stamped serve finds its blob cached and queues nothing.
        tsr.complete_resanitize(jobs[0])
        tsr.serve_package_at(scenario.repo_id, name, as_of=0.0)
        assert tsr.take_resanitize_jobs() == []

    def test_retention_prunes_the_log_and_counts_full_pulls(self):
        scenario = self._scenario()
        tsr = scenario.tsr
        tsr.publication_retention = 1
        for seed in (6, 7, 8):
            _publish_round(scenario, seed)
        log = tsr.publications(scenario.repo_id)
        assert len(log) <= 2  # newest + the floor the pruner keeps
        pruned_serial = tsr._pruned_through[scenario.repo_id]

        before = tsr.retention_full_pulls
        tsr.index_delta_at(scenario.repo_id, base_serial=pruned_serial)
        assert tsr.retention_full_pulls == before + 1
