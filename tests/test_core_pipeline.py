"""Tests for the pipelined refresh (``refresh(pipelined=True)``, a
one-repository orchestrator plan) and its supporting layers: the mirror
download scheduler, parallel-transfer accounting (simnet), per-mirror
bandwidth (mirrors), the sharded package cache, and the fleet_refresh
scenario."""

import pytest

from repro.archive.apk import ApkPackage, PackageFile
from repro.archive.index import RepositoryIndex
from repro.core.cache import PackageCache
from repro.core.pipeline import MirrorDownloadScheduler
from repro.core.service import SEALED_STATE_PATH
from repro.mirrors.builder import MirrorSpec
from repro.mirrors.mirror import MirrorBehavior
from repro.simnet.latency import Continent, DEFAULT_BANDWIDTH_BYTES_PER_S
from repro.simnet.network import (
    ParallelTransferSchedule,
    max_min_rates,
)
from repro.util.errors import NetworkError, PolicyError
from repro.workload.generator import generate_workload
from repro.workload.scenario import build_scenario, fleet_refresh


def _mini_packages():
    return [
        ApkPackage(name="musl", version="1.1.24-r2",
                   files=[PackageFile("/lib/ld-musl.so", b"\x7fELF musl" * 400)]),
        ApkPackage(name="zlib", version="1.2.11-r3", depends=["musl"],
                   files=[PackageFile("/lib/libz.so", b"\x7fELF zlib" * 900)]),
        ApkPackage(name="nginx", version="1.16-r0", depends=["musl"],
                   scripts={".pre-install": "addgroup -S www\n"
                                            "adduser -S -G www nginx\n"},
                   files=[PackageFile("/usr/sbin/nginx", b"\x7fELF nginx" * 600)]),
        ApkPackage(name="badpkg", version="1-r0",
                   scripts={".post-install": "add-shell /bin/badsh\n"}),
    ]


def _two_scenarios():
    sequential = build_scenario(packages=_mini_packages(), key_bits=1024,
                                refresh=False, with_monitor=False)
    pipelined = build_scenario(packages=_mini_packages(), key_bits=1024,
                               refresh=False, with_monitor=False)
    return sequential, pipelined


# -- transfer accounting ------------------------------------------------------


class TestMaxMinRates:
    def test_uncapped_link_gives_full_rates(self):
        assert max_min_rates({"a": 5.0, "b": 3.0}, None) == {"a": 5.0, "b": 3.0}
        assert max_min_rates({"a": 5.0, "b": 3.0}, 100.0) == {"a": 5.0, "b": 3.0}

    def test_fair_share_split(self):
        rates = max_min_rates({"a": 10.0, "b": 10.0}, 10.0)
        assert rates == {"a": 5.0, "b": 5.0}

    def test_slack_redistributed(self):
        # b can only take 2; a gets the remaining 8.
        rates = max_min_rates({"a": 10.0, "b": 2.0}, 10.0)
        assert rates["b"] == 2.0
        assert rates["a"] == pytest.approx(8.0)

    def test_empty(self):
        assert max_min_rates({}, 10.0) == {}


class TestParallelTransferSchedule:
    def test_single_channel_is_serial(self):
        schedule = ParallelTransferSchedule()
        schedule.enqueue("m1", "a", setup=1.0, size_bytes=100, bandwidth=100.0)
        schedule.enqueue("m1", "b", setup=1.0, size_bytes=100, bandwidth=100.0)
        timings = schedule.solve()
        assert timings["a"].finish == pytest.approx(2.0)
        assert timings["b"].start == pytest.approx(2.0)
        assert timings["b"].finish == pytest.approx(4.0)

    def test_independent_channels_overlap(self):
        schedule = ParallelTransferSchedule()
        schedule.enqueue("m1", "a", setup=0.0, size_bytes=100, bandwidth=10.0)
        schedule.enqueue("m2", "b", setup=0.0, size_bytes=100, bandwidth=10.0)
        timings = schedule.solve()
        assert timings["a"].finish == pytest.approx(10.0)
        assert timings["b"].finish == pytest.approx(10.0)

    def test_shared_downlink_halves_concurrent_rate(self):
        schedule = ParallelTransferSchedule(downlink_bandwidth=10.0)
        schedule.enqueue("m1", "a", setup=0.0, size_bytes=100, bandwidth=10.0)
        schedule.enqueue("m2", "b", setup=0.0, size_bytes=100, bandwidth=10.0)
        timings = schedule.solve()
        # Both run at 5 B/s while concurrent.
        assert timings["a"].finish == pytest.approx(20.0)
        assert timings["b"].finish == pytest.approx(20.0)

    def test_downlink_slack_speeds_up_unfinished_stream(self):
        schedule = ParallelTransferSchedule(downlink_bandwidth=10.0)
        schedule.enqueue("m1", "short", setup=0.0, size_bytes=50, bandwidth=10.0)
        schedule.enqueue("m2", "long", setup=0.0, size_bytes=150, bandwidth=10.0)
        timings = schedule.solve()
        # Shared until t=10 (50 B each done), then "long" runs alone at 10.
        assert timings["short"].finish == pytest.approx(10.0)
        assert timings["long"].finish == pytest.approx(20.0)

    def test_setup_phase_consumes_no_downlink(self):
        schedule = ParallelTransferSchedule(downlink_bandwidth=10.0)
        schedule.enqueue("m1", "a", setup=5.0, size_bytes=100, bandwidth=10.0)
        schedule.enqueue("m2", "b", setup=0.0, size_bytes=50, bandwidth=10.0)
        timings = schedule.solve()
        # b finishes its 50 bytes alone at full rate before a's setup ends.
        assert timings["b"].finish == pytest.approx(5.0)
        assert timings["a"].finish == pytest.approx(15.0)

    def test_start_time_offsets_everything(self):
        schedule = ParallelTransferSchedule()
        schedule.enqueue("m1", "a", setup=1.0, size_bytes=10, bandwidth=10.0)
        timings = schedule.solve(start_time=100.0)
        assert timings["a"].start == pytest.approx(100.0)
        assert timings["a"].finish == pytest.approx(102.0)


# -- per-mirror bandwidth ------------------------------------------------------


class TestPerMirrorBandwidth:
    def test_spec_bandwidth_reaches_host_and_mirror(self):
        slow = MirrorSpec("slow.example", Continent.EUROPE,
                          bandwidth=512 * 1024)
        scenario = build_scenario(
            packages=_mini_packages(),
            mirror_specs=(
                slow,
                MirrorSpec("fast.example", Continent.EUROPE),
            ),
            refresh=False, with_monitor=False,
        )
        assert scenario.mirrors["slow.example"].bandwidth == 512 * 1024
        assert scenario.network.host("slow.example").bandwidth == 512 * 1024
        assert (scenario.network.host("fast.example").bandwidth
                == DEFAULT_BANDWIDTH_BYTES_PER_S)

    def test_mirror_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            from repro.mirrors.mirror import Mirror
            from repro.mirrors.repository import OriginalRepository
            from repro.crypto.rsa import generate_keypair
            origin = OriginalRepository(generate_keypair(1024, seed=1))
            Mirror("m", origin, bandwidth=0)

    def test_bytes_served_accounted(self):
        scenario = build_scenario(packages=_mini_packages(),
                                  with_monitor=False)
        total = sum(m.bytes_served for m in scenario.mirrors.values())
        assert total > 0


# -- sharded cache -------------------------------------------------------------


class TestShardedCache:
    def test_round_trip_across_shards(self):
        cache = PackageCache(shards=4)
        names = [f"pkg-{i}" for i in range(32)]
        for name in names:
            cache.put_original("repo-1", name, name.encode())
            cache.put_sanitized("repo-1", name, name.encode() * 2)
        for name in names:
            assert cache.get_original("repo-1", name) == name.encode()
            assert cache.get_sanitized("repo-1", name) == name.encode() * 2
        used = {cache.shard_index("repo-1", name) for name in names}
        assert len(used) > 1  # blobs really spread over shards

    def test_shard_assignment_is_stable(self):
        cache = PackageCache(shards=8)
        assert (cache.shard_index("repo-1", "musl")
                == cache.shard_index("repo-1", "musl"))
        other = PackageCache(shards=8)
        assert (cache.shard_index("repo-1", "musl")
                == other.shard_index("repo-1", "musl"))

    def test_stats_track_hits_and_misses(self):
        cache = PackageCache(shards=2)
        cache.put_original("r", "a", b"x")
        assert cache.get_original("r", "a") == b"x"
        assert cache.get_original("r", "missing") is None
        stats = cache.shard_stats()
        assert sum(s.writes for s in stats) == 1
        assert sum(s.hits for s in stats) == 1
        assert sum(s.misses for s in stats) == 1

    def test_root_disk_still_holds_sealed_state(self):
        scenario = build_scenario(packages=_mini_packages(),
                                  with_monitor=False)
        assert scenario.tsr.cache.disk.isfile(SEALED_STATE_PATH)

    def test_invalidate_and_tamper_route_to_shard(self):
        cache = PackageCache(shards=4)
        cache.put_sanitized("r", "a", b"good")
        cache.tamper_sanitized("r", "a", b"evil")
        assert cache.get_sanitized("r", "a") == b"evil"
        cache.invalidate("r", "a")
        assert cache.get_sanitized("r", "a") is None

    def test_single_shard_still_works(self):
        cache = PackageCache(shards=1)
        cache.put_original("r", "a", b"x")
        assert cache.get_original("r", "a") == b"x"

    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            PackageCache(shards=0)


# -- pipelined refresh: equivalence --------------------------------------------


class TestPipelineEquivalence:
    def test_same_verdicts_and_identical_index(self):
        sequential, pipelined = _two_scenarios()
        seq = sequential.tsr.refresh(sequential.repo_id)
        pipe = pipelined.tsr.refresh(pipelined.repo_id, pipelined=True)

        assert ({r.package.name for r in seq.results}
                == {r.package.name for r in pipe.results})
        assert dict(seq.rejected) == dict(pipe.rejected)
        assert seq.serial == pipe.serial
        # Deterministic keys -> the signed sanitized indexes agree entry by
        # entry, i.e. the sanitized blobs are byte-identical across modes.
        seq_index = RepositoryIndex.from_bytes(
            sequential.tsr.get_index_bytes(sequential.repo_id))
        pipe_index = RepositoryIndex.from_bytes(
            pipelined.tsr.get_index_bytes(pipelined.repo_id))
        assert set(seq_index.entries) == set(pipe_index.entries)
        for name, entry in seq_index.entries.items():
            assert pipe_index.entries[name].sha256 == entry.sha256

    def test_account_package_waits_for_catalog_barrier(self):
        _, pipelined = _two_scenarios()
        report = pipelined.tsr.refresh(pipelined.repo_id, pipelined=True)
        # nginx creates accounts -> deferred; musl/zlib sanitize early.
        assert report.sanitized_early == 2
        assert report.sanitized == 3

    def test_served_packages_verify_after_pipelined_refresh(self):
        _, pipelined = _two_scenarios()
        pipelined.tsr.refresh(pipelined.repo_id, pipelined=True)
        blob = pipelined.tsr.serve_package(pipelined.repo_id, "nginx")
        parsed = ApkPackage.parse(blob)
        assert parsed.verify([pipelined.tsr_public_key])

    def test_pipelined_refresh_records_sanitize_cost(self):
        """A later re-sanitize of an evicted blob is charged the cost the
        refresh measured, so the refresh must record one per package."""
        _, pipelined = _two_scenarios()
        tsr = pipelined.tsr
        report = tsr.refresh(pipelined.repo_id, pipelined=True)
        assert report.sanitized == 3
        for result in report.results:
            name = result.package.name
            assert tsr._sanitize_cost[(pipelined.repo_id, name)] > 0.0
            assert tsr._estimate_sanitize_cost(pipelined.repo_id, name,
                                               1) > 0.0
        assert tsr._sanitize_rate_bytes > 0

    def test_incremental_pipelined_refresh_uses_cache(self):
        _, scenario = _two_scenarios()
        scenario.tsr.refresh(scenario.repo_id, pipelined=True)
        scenario.origin.publish(ApkPackage(
            name="musl", version="1.1.24-r3",
            files=[PackageFile("/lib/ld-musl.so", b"\x7fELF musl r3")],
        ))
        scenario.sync_mirrors()
        report = scenario.tsr.refresh(scenario.repo_id, pipelined=True)
        assert report.changed_packages == ["musl"]
        assert report.sanitized == 1

    def test_precatalog_guard_refuses_account_packages(self):
        _, scenario = _two_scenarios()
        quorum_blob = None
        tsr = scenario.tsr
        mirrors = tsr._policy_mirrors(scenario.repo_id)
        quorum = tsr._read_quorum(scenario.repo_id, mirrors)
        blob = tsr._download_package(tsr.mirrors_by_rtt(mirrors), "nginx",
                                     quorum["expected"]["nginx"])
        with pytest.raises(PolicyError):
            tsr._enclave.ecall("sanitize_package_precatalog",
                               scenario.repo_id, blob)

    def test_phased_refresh_sorts_mirrors_once(self, monkeypatch):
        # The RTT order is resolved once per repository (RepoConfig), not
        # re-sorted for every package download.
        scenario, _ = _two_scenarios()
        tsr = scenario.tsr
        sort = tsr.mirrors_by_rtt
        calls = []
        monkeypatch.setattr(tsr, "mirrors_by_rtt",
                            lambda mirrors: calls.append(1) or sort(mirrors))
        report = tsr.refresh(scenario.repo_id)
        assert len(report.changed_packages) > 1
        assert len(calls) <= 1


# -- pipelined refresh: schedule properties ------------------------------------


class TestPipelineSchedule:
    def test_overlap_beats_sequential_wall_clock(self):
        workload = generate_workload(scale=0.004, seed=5, with_content=True)
        sequential = build_scenario(workload=workload, key_bits=1024,
                                    refresh=False, with_monitor=False)
        seq = sequential.tsr.refresh(sequential.repo_id)
        pipelined = build_scenario(workload=workload, key_bits=1024,
                                   refresh=False, with_monitor=False)
        pipe = pipelined.tsr.refresh(pipelined.repo_id, pipelined=True)

        assert pipe.total_elapsed < seq.total_elapsed
        # Resource-seconds strictly exceed the wall-clock: overlap happened.
        assert (pipe.download_elapsed + pipe.sanitize_elapsed
                > pipe.total_elapsed - pipe.quorum_elapsed)
        assert pipe.overlap_saved > 0.0
        assert pipe.pipelined and not seq.pipelined

    def test_downloads_spread_over_mirrors(self):
        _, pipelined = _two_scenarios()
        report = pipelined.tsr.refresh(pipelined.repo_id, pipelined=True)
        assert set(report.mirror_assignments) == {"musl", "zlib", "nginx",
                                                  "badpkg"}
        assert len(set(report.mirror_assignments.values())) > 1

    def test_max_streams_caps_fanout(self):
        _, pipelined = _two_scenarios()
        report = pipelined.tsr.refresh(pipelined.repo_id, pipelined=True,
                                       max_streams=1)
        assert len(set(report.mirror_assignments.values())) == 1

    def test_wall_clock_advances_by_wall_elapsed(self):
        _, pipelined = _two_scenarios()
        before = pipelined.clock.now()
        report = pipelined.tsr.refresh(pipelined.repo_id, pipelined=True)
        assert pipelined.clock.now() - before == pytest.approx(
            report.wall_elapsed)


# -- pipelined refresh: adversarial mirrors ------------------------------------


class TestPipelineFaultTolerance:
    def test_corrupt_mirror_detected_and_retried(self):
        scenario = build_scenario(
            packages=_mini_packages(),
            mirror_specs=(
                MirrorSpec("mirror-eu-1.example", Continent.EUROPE),
                MirrorSpec("mirror-eu-2.example", Continent.EUROPE,
                           behavior=MirrorBehavior.CORRUPT),
                MirrorSpec("mirror-na-1.example", Continent.NORTH_AMERICA),
            ),
            refresh=False, with_monitor=False,
        )
        report = scenario.tsr.refresh(scenario.repo_id, pipelined=True)
        assert report.sanitized == 3
        assert dict(report.rejected).keys() == {"badpkg"}
        # Nothing ends up assigned to the corrupt mirror.
        assert "mirror-eu-2.example" not in set(
            report.mirror_assignments.values())

    def test_down_mirror_falls_back(self):
        scenario = build_scenario(packages=_mini_packages(),
                                  refresh=False, with_monitor=False)
        scenario.network.set_down("mirror-eu-1.example")
        report = scenario.tsr.refresh(scenario.repo_id, pipelined=True)
        assert report.sanitized == 3
        assert "mirror-eu-1.example" not in set(
            report.mirror_assignments.values())

    def test_majority_corrupt_mirrors_retried_until_honest(self):
        scenario = build_scenario(
            packages=_mini_packages(),
            mirror_specs=(
                MirrorSpec("corrupt-1", Continent.EUROPE,
                           behavior=MirrorBehavior.CORRUPT),
                MirrorSpec("corrupt-2", Continent.EUROPE,
                           behavior=MirrorBehavior.CORRUPT),
                MirrorSpec("honest", Continent.EUROPE),
            ),
            refresh=False, with_monitor=False,
        )
        report = scenario.tsr.refresh(scenario.repo_id, pipelined=True)
        assert report.sanitized == 3
        # Every package ends on the only honest mirror, no matter how many
        # retry rounds it took.
        assert set(report.mirror_assignments.values()) == {"honest"}

    def test_all_mirrors_corrupt_raises(self):
        scenario = build_scenario(
            packages=_mini_packages(),
            mirror_specs=(
                MirrorSpec("corrupt-1", Continent.EUROPE,
                           behavior=MirrorBehavior.CORRUPT),
                MirrorSpec("corrupt-2", Continent.EUROPE,
                           behavior=MirrorBehavior.CORRUPT),
            ),
            refresh=False, with_monitor=False,
        )
        with pytest.raises(NetworkError):
            scenario.tsr.refresh(scenario.repo_id, pipelined=True)

    def test_retries_reinserted_into_live_schedule(self):
        """Retries ride the live schedule on the earliest-free channel.

        With a down mirror holding two queued packages, the channel stalls
        for one timeout per failed probe (detections at ~5 s and ~10 s).
        The first retry must be rescheduled onto an idle honest channel
        and finish while the down channel is *still* stalling — the
        retired serial fallback only started retrying after the whole
        parallel phase (>= 10 s) had drained.
        """
        scenario = build_scenario(packages=_mini_packages(),
                                  refresh=False, with_monitor=False)
        scenario.network.set_down("mirror-eu-2.example")
        tsr = scenario.tsr
        mirrors = tsr._policy_mirrors(scenario.repo_id)
        quorum = tsr._read_quorum(scenario.repo_id, mirrors)
        ordered = tsr.mirrors_by_rtt(mirrors)
        names = list(quorum["changed"])
        scheduler = MirrorDownloadScheduler(tsr)
        batch = scheduler.add_batch(names, quorum["expected"], ordered,
                                    fanout=ordered)
        scheduler.resolve()
        fetched, durations, finishes, assignments = (
            batch.fetched, batch.durations, batch.finishes,
            batch.assignments)
        timeout = scenario.network.timeout
        assert set(fetched) == set(names)
        assert "mirror-eu-2.example" not in set(assignments.values())
        retried = [name for name in names if finishes[name] >= timeout]
        assert len(retried) == 2
        # Overlap: one retry completed during the second stall, i.e.
        # before the failed channel's queue drained at 2 * timeout.
        assert min(finishes[name] for name in retried) < 2 * timeout
        assert max(finishes.values()) < 2 * timeout + 0.5
        # Durations account the stalled attempt plus the retry transfer.
        for name in retried:
            assert durations[name] > timeout


# -- fleet refresh -------------------------------------------------------------


class TestFleetRefresh:
    def test_fleet_refresh_drives_clients(self):
        workload = generate_workload(scale=0.004, seed=5, with_content=True)
        scenario = build_scenario(workload=workload, key_bits=1024,
                                  with_monitor=False)
        fleet = fleet_refresh(scenario, clients=3, installs_per_client=1)
        assert fleet.clients == 3
        assert fleet.installs >= 1
        assert len(fleet.client_elapsed) == 3
        assert fleet.refresh.pipelined
        assert fleet.scheduled
        assert fleet.wall_elapsed >= fleet.slowest_client
        assert fleet.updated_packages  # an update batch was published

    def test_fleet_refresh_validates_clients(self):
        workload = generate_workload(scale=0.004, seed=5, with_content=True)
        scenario = build_scenario(workload=workload, key_bits=1024,
                                  with_monitor=False)
        with pytest.raises(ValueError):
            fleet_refresh(scenario, clients=0)

    def test_scheduled_fleet_overlaps_clients(self):
        """Same fleet, serial vs scheduled: the shared schedule must beat
        per-client serialization on fan-out wall-clock while showing
        contention (resource-seconds exceed the makespan)."""
        workload = generate_workload(scale=0.004, seed=5, with_content=True)
        a = build_scenario(workload=workload, key_bits=1024,
                           with_monitor=False)
        serial = fleet_refresh(a, clients=4, installs_per_client=1,
                               scheduled=False)
        b = build_scenario(workload=workload, key_bits=1024,
                           with_monitor=False)
        sched = fleet_refresh(b, clients=4, installs_per_client=1,
                              scheduled=True)
        assert serial.installs == sched.installs
        assert not serial.scheduled and sched.scheduled
        # Fan-out no longer serializes per client...
        assert sched.fanout_elapsed < serial.fanout_elapsed
        # ...but clients do contend for the TSR uplink: summed per-client
        # durations exceed the shared-schedule makespan.
        assert sum(sched.client_elapsed) > sched.fanout_elapsed
        assert sched.slowest_client <= sched.fanout_elapsed + 1e-9

    def test_scheduled_fleet_reproducible(self):
        workload = generate_workload(scale=0.004, seed=5, with_content=True)
        runs = []
        for _ in range(2):
            scenario = build_scenario(workload=workload, key_bits=1024,
                                      with_monitor=False)
            runs.append(fleet_refresh(scenario, clients=3,
                                      installs_per_client=1, seed=7))
        assert runs[0].installs == runs[1].installs
        assert runs[0].client_elapsed == runs[1].client_elapsed
        # (wall_elapsed also folds in *really measured* sanitize time,
        # which varies run to run by design — see EXPERIMENTS.md §1 — so
        # only the network-scheduled parts are asserted identical.)
        assert runs[0].fanout_elapsed == runs[1].fanout_elapsed

    def test_scheduled_fleet_timings_reflect_contention(self):
        """With many clients pulling from one TSR uplink, per-client time
        must grow with fleet size (shared-downlink contention), not stay
        flat as it would if clients simply serialized."""
        workload = generate_workload(scale=0.004, seed=5, with_content=True)
        small = build_scenario(workload=workload, key_bits=1024,
                               with_monitor=False)
        few = fleet_refresh(small, clients=2, installs_per_client=1)
        big = build_scenario(workload=workload, key_bits=1024,
                             with_monitor=False)
        many = fleet_refresh(big, clients=12, installs_per_client=1)
        assert many.slowest_client > few.slowest_client

    def test_fleet_client_nic_caps_bind(self):
        """Layered capacities: low-end client NICs must slow the fan-out
        even when the shared TSR uplink has headroom."""
        workload = generate_workload(scale=0.004, seed=5, with_content=True)
        fast = build_scenario(workload=workload, key_bits=1024,
                              with_monitor=False)
        unconstrained = fleet_refresh(fast, clients=2, installs_per_client=1)
        slow = build_scenario(workload=workload, key_bits=1024,
                              with_monitor=False)
        constrained = fleet_refresh(slow, clients=2, installs_per_client=1,
                                    client_downlink=64 * 1024)
        assert constrained.installs == unconstrained.installs
        # Two clients on a 3 MB/s uplink would get ~1.5 MB/s each; a
        # 64 KB/s NIC pins them far below that.
        assert constrained.fanout_elapsed > 2 * unconstrained.fanout_elapsed
        # The NIC value is recorded on the client hosts themselves.
        host = slow.network.host("fleet-11-000")
        assert host.downlink_bandwidth == 64 * 1024

    def test_fleet_heterogeneous_nics_stratify_clients(self):
        """A cycled client_downlink sequence gives per-client NICs; the
        slow-NIC client must finish after the fast-NIC one."""
        workload = generate_workload(scale=0.004, seed=5, with_content=True)
        scenario = build_scenario(workload=workload, key_bits=1024,
                                  with_monitor=False)
        fleet = fleet_refresh(scenario, clients=2, installs_per_client=1,
                              client_downlink=[32 * 1024, 1024 * 1024])
        slow_nic, fast_nic = fleet.client_elapsed
        assert slow_nic > fast_nic
