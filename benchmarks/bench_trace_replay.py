"""Multi-round trace replay — serial vs plan-wide interleaved (EXPERIMENTS §7).

The paper's missing long-horizon experiment: a 20-round publish → mirror
sync → TSR refresh → fleet pull trace over a 4-tenant deployment with a
32-client fleet, replayed twice on twin scenarios:

* **serial** — today's composition: every refresh round and every fleet
  wave runs to completion before the next event may start;
* **interleaved** — one plan-wide timeline: all transfers share one
  :class:`ParallelTransferSchedule` (the TSR machine's NIC), refresh
  rounds extend one resumable plan, and pull waves are pinned at their
  trace instants.

Both modes produce identical refresh verdicts and byte-identical signed
indexes (pinned by ``tests/test_trace_replay.py``); this bench measures
what composition buys: simulated wall-clock (the headline: interleaved
>= 1.3x), per-client staleness, and update-availability latency.  A
second ablation replays a cache-pressured trace under plain LRU vs
scan-resistant LRU-2 and compares the serving hit rate.  CI runs this
emitting ``BENCH_trace_replay.json``.
"""

import time

from repro.archive.apk import ApkPackage, PackageFile
from repro.bench.report import PaperTable, record_table
from repro.mirrors.builder import MirrorSpec
from repro.simnet.latency import Continent
from repro.util.stats import human_bytes, human_duration
from repro.workload.generator import generate_trace
from repro.workload.replay import replay_trace
from repro.workload.scenario import (
    build_multi_tenant_scenario,
    multi_tenant_refresh,
)

ROUNDS = 20
TENANTS = 4
CLIENTS = 32
INTERVAL = 0.4
OVERLAP = 0.6
PACKAGES = 16
FILES_PER_PACKAGE = 24

#: Cross-continent mirror set (the paper's Fig. 13 shape): quorum reads
#: carry real RTT, which the serial composition pays once per round and
#: the interleaved plan overlaps with in-flight pulls.
MIRROR_SPECS = (
    MirrorSpec("mirror-eu-1.example", Continent.EUROPE),
    MirrorSpec("mirror-na-1.example", Continent.NORTH_AMERICA),
    MirrorSpec("mirror-as-1.example", Continent.ASIA),
)
FROZEN = ("mirror-eu-1.example",)

#: Eviction ablation: a budget that pressures the cache without
#: thrashing it (calibrated so LRU-2's protected queue separates the
#: served core from the refresh write scan).  The eviction trace is
#: *drained* with a wide margin (every round completes well before its
#: pull wave even on a slow host), so which publication each wave sees —
#: and therefore the serve sequence and hit/fallback split — is
#: deterministic despite sanitize durations being really measured.
EVICTION_BUDGET = 90_000
EVICTION_ROUNDS = 12
EVICTION_CLIENTS = 8


def _population(count=PACKAGES, files=FILES_PER_PACKAGE, reps=4000):
    """Multi-file packages: per-file signing makes enclave time real."""
    packages = []
    for i in range(count):
        scripts = {}
        if i % 3 == 0:
            scripts = {".pre-install": f"addgroup -S grp{i}\n"
                                       f"adduser -S -G grp{i} svc{i}\n"}
        pkg_files = [PackageFile(f"/usr/bin/pkg{i}",
                                 (b"\x7fELF" + bytes([i])) * reps)]
        pkg_files += [PackageFile(f"/usr/lib/pkg{i}/f{j}",
                                  bytes([i, j]) * 400)
                      for j in range(files - 1)]
        packages.append(ApkPackage(
            name=f"pkg-{i:02d}", version="1.0-r0", scripts=scripts,
            files=pkg_files,
        ))
    return packages


def _scenario(**cache_kwargs):
    scenario = build_multi_tenant_scenario(
        tenants=TENANTS, overlap=OVERLAP, packages=_population(),
        mirror_specs=MIRROR_SPECS, **cache_kwargs)
    multi_tenant_refresh(scenario)  # bootstrap publication at t=0
    return scenario


def _trace(rounds=ROUNDS, interval=INTERVAL):
    return generate_trace(
        rounds=rounds, interval=interval, publish_fraction=0.25, seed=5,
        mirror_names=[spec.name for spec in MIRROR_SPECS],
        frozen_mirrors=FROZEN,
    )


def _assert_consistent(report):
    """The acceptance bar: monotonically consistent per-client metrics."""
    publishes = report.publishes
    assert all(b[0] >= a[0] and b[1] > a[1]
               for a, b in zip(publishes, publishes[1:]))
    for timeline in report.timelines.values():
        times = [t for t, _ in timeline.transitions]
        serials = [s for _, s in timeline.transitions]
        assert times == sorted(times)
        assert serials == sorted(serials)
        assert 0.0 <= timeline.staleness <= report.horizon
        assert all(latency is None or latency >= 0.0
                   for latency in timeline.availability.values())


def test_trace_replay_ablation(benchmark, maybe_profile):
    trace = _trace()
    host_walls = {}

    def sweep():
        results = {}
        for mode in ("serial", "interleaved"):
            scenario = _scenario()
            # This ablation isolates refresh *scheduling* (serial vs
            # plan-wide interleaved) on identical enclave work; the
            # serving-debt policy would add re-sanitize jobs correlated
            # with each mode's pin staleness, so it stays off here
            # (bench_replica_fanout measures that coupling).
            scenario.tsr.resanitize_serves = False
            begin = time.perf_counter()
            results[mode] = replay_trace(scenario, trace, clients=CLIENTS,
                                         mode=mode)
            host_walls[mode] = time.perf_counter() - begin
        return results

    begin = time.perf_counter()
    results = benchmark.pedantic(maybe_profile("trace replay ablation (serial + interleaved)", sweep),
                                 rounds=1, iterations=1)
    benchmark.extra_info["host_time_s"] = round(time.perf_counter() - begin, 3)
    for mode, wall in host_walls.items():
        benchmark.extra_info[f"host_time_{mode}_s"] = round(wall, 3)
    serial, interleaved = results["serial"], results["interleaved"]
    speedup = serial.wall_elapsed / interleaved.wall_elapsed

    table = PaperTable(
        experiment="Trace replay",
        title=f"{ROUNDS}-round / {TENANTS}-tenant / {CLIENTS}-client trace: "
              "serial composition vs plan-wide interleaving",
        columns=["mode", "wall", "staleness mean", "staleness max",
                 "avail mean", "avail max", "installs", "prescans",
                 "wire/client/round"],
    )
    for mode, report in results.items():
        table.add_row(
            mode,
            human_duration(report.wall_elapsed),
            human_duration(report.staleness_mean),
            human_duration(report.staleness_max),
            human_duration(report.availability_mean),
            human_duration(report.availability_max),
            report.installs,
            report.prescans,
            human_bytes(report.bytes_per_client_per_round),
        )
    table.note(f"interleaved speedup: {speedup:.2f}x simulated wall-clock "
               "(same published bytes, same refresh verdicts; one frozen "
               "mirror forces quorum widening + optimistic pre-scan every "
               "round)")
    record_table(table)

    for report in results.values():
        assert report.rounds == ROUNDS
        assert report.installs > 0
        _assert_consistent(report)
    assert serial.installs == interleaved.installs
    # Wire accounting engaged in both modes (modes may pull *different*
    # bytes: serial's delayed waves can see newer publications).
    assert serial.client_wire_bytes > 0
    assert interleaved.client_wire_bytes > 0
    # The headline: plan-wide interleaving >= 1.3x over serial composition.
    assert speedup >= 1.3, f"interleaved speedup only {speedup:.2f}x"
    # Interleaving also shortens the update-availability window.
    assert interleaved.availability_mean <= serial.availability_mean


def test_eviction_policy_ablation(benchmark, maybe_profile):
    trace = generate_trace(rounds=EVICTION_ROUNDS, interval=3.0,
                           pull_lag=2.5, publish_fraction=0.25, seed=5,
                           installs_per_client=2)

    def sweep():
        results = {}
        for policy in ("lru", "lru2"):
            scenario = build_multi_tenant_scenario(
                tenants=3, overlap=OVERLAP, packages=_population(),
                cache_budget_bytes=EVICTION_BUDGET, cache_shards=2,
                cache_policy=policy)
            multi_tenant_refresh(scenario)
            report = replay_trace(scenario, trace,
                                  clients=EVICTION_CLIENTS,
                                  mode="interleaved")
            results[policy] = (scenario, report)
        return results

    begin = time.perf_counter()
    results = benchmark.pedantic(maybe_profile("eviction policy ablation (lru + lru2)", sweep),
                                 rounds=1, iterations=1)
    benchmark.extra_info["host_time_s"] = round(time.perf_counter() - begin, 3)

    table = PaperTable(
        experiment="Trace replay eviction",
        title=f"{EVICTION_ROUNDS}-round replay under a "
              f"{EVICTION_BUDGET}-byte shard budget: LRU vs LRU-2",
        columns=["policy", "serve hits", "serve fallbacks", "hit rate",
                 "evictions", "promotions", "evicted re-downloads"],
    )
    rates = {}
    for policy, (scenario, report) in results.items():
        tsr = scenario.tsr
        hits, fallbacks = tsr.serve_cache_hits, tsr.serve_fallbacks
        rates[policy] = hits / max(1, hits + fallbacks)
        stats = tsr.cache.shard_stats()
        table.add_row(
            policy, hits, fallbacks, f"{rates[policy]:.2f}",
            sum(s.evictions for s in stats),
            sum(s.promotions for s in stats),
            report.evicted_redownloads,
        )
    table.note("identical trace, identical bytes served; LRU-2 promotes "
               "the repeatedly served core to the protected queue, so the "
               "refresh rounds' one-touch write scan evicts probation "
               "instead of the blobs clients are about to pull")
    record_table(table)

    lru_scenario, _ = results["lru"]
    assert sum(s.evictions for s in lru_scenario.tsr.cache.shard_stats()) \
        > 0, "budget too generous: no eviction pressure"
    # Scan resistance: the protected core keeps serving from cache.
    assert rates["lru2"] > rates["lru"]


# -- streaming memory scaling ---------------------------------------------------

#: The O(active)-memory scaling row: a rotating fleet where every client
#: pulls exactly once, at the largest scale the materialized path still
#: runs comfortably on this box.  Small packages and 2 tenants on
#: purpose — the row isolates what *retention* costs (every pulled
#: node's fs/IMA/TPM graph in materialized mode vs the active wave in
#: streaming mode), not content volume.
STREAM_CLIENTS = 1600
STREAM_WAVE = 40
STREAM_ROUNDS = 40
#: The acceptance bar: streaming holds >= 10x less peak memory than the
#: materialized path on the same trace, with identical discrete results.
STREAM_MEMORY_RATIO = 10.0
#: Memory-regression cap for the streaming path itself (absolute):
#: measured ~5 MB peak, capped at 4x that so only a real O(active)
#: regression trips it.
STREAM_PEAK_CAP_BYTES = 20_000_000


def _stream_scenario():
    scenario = build_multi_tenant_scenario(
        tenants=2, overlap=OVERLAP,
        packages=_population(count=8, files=8, reps=200),
        mirror_specs=MIRROR_SPECS)
    multi_tenant_refresh(scenario)
    return scenario


def _stream_trace():
    # Wide margins (interval >> refresh duration, lag < interval) drain
    # every wave and refresh round before the next event, so served
    # serials — and therefore every byte count — are deterministic even
    # though sanitize durations are really measured (same calibration as
    # the eviction ablation above).
    return generate_trace(
        rounds=STREAM_ROUNDS, interval=3.0, pull_lag=2.5,
        publish_fraction=0.25, seed=5,
        mirror_names=[spec.name for spec in MIRROR_SPECS],
        frozen_mirrors=FROZEN,
        fleet_size=STREAM_CLIENTS, clients_per_wave=STREAM_WAVE,
    )


def test_streaming_memory_scaling(benchmark, maybe_profile):
    """Streaming vs materialized replay of one rotating-fleet trace:
    identical discrete results, >= 10x less peak memory."""
    import tracemalloc

    # Warm pass: fills the process-wide content-keyed memos (keypairs,
    # signature verifies, deterministic gzip).  Both modes touch
    # byte-identical content, so one streaming pass warms them for both
    # measured runs — without it, whichever mode runs first would carry
    # the memo allocations in its peak.
    replay_trace(_stream_scenario(), _stream_trace(), clients=STREAM_CLIENTS,
                 mode="streaming", shared_tpm_seed=2020)

    peaks = {}
    hosts = {}

    def sweep():
        results = {}
        for mode in ("streaming", "interleaved"):
            scenario = _stream_scenario()
            trace = _stream_trace()
            tracemalloc.start()
            begin = time.perf_counter()
            results[mode] = replay_trace(
                scenario, trace, clients=STREAM_CLIENTS, mode=mode,
                shared_tpm_seed=2020)
            hosts[mode] = time.perf_counter() - begin
            peaks[mode] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return results

    begin = time.perf_counter()
    results = benchmark.pedantic(
        maybe_profile("streaming memory scaling (streaming + interleaved)",
                      sweep),
        rounds=1, iterations=1)
    benchmark.extra_info["host_time_s"] = round(time.perf_counter() - begin, 3)
    streaming = results["streaming"]
    interleaved = results["interleaved"]
    ratio = peaks["interleaved"] / peaks["streaming"]
    for mode in results:
        benchmark.extra_info[f"tracemalloc_peak_{mode}_bytes"] = peaks[mode]
        benchmark.extra_info[f"host_time_{mode}_s"] = round(hosts[mode], 3)
    benchmark.extra_info["memory_ratio"] = round(ratio, 2)

    table = PaperTable(
        experiment="Streaming replay memory",
        title=f"{STREAM_CLIENTS}-client rotating fleet "
              f"({STREAM_WAVE}/wave, {STREAM_ROUNDS} rounds): "
              "materialized vs streaming replay",
        columns=["mode", "peak alloc", "host time", "installs",
                 "staleness mean", "avail mean", "wire bytes"],
    )
    for mode, report in results.items():
        table.add_row(
            mode,
            human_bytes(peaks[mode]),
            human_duration(hosts[mode]),
            report.installs,
            human_duration(report.staleness_mean),
            human_duration(report.availability_mean),
            human_bytes(report.client_wire_bytes),
        )
    table.note(f"streaming holds {ratio:.1f}x less peak memory (tracemalloc, "
               f"replay only): the materialized path retains every pulled "
               f"node's graph and timeline; streaming retires clients after "
               f"their final wave and holds only the "
               f"{streaming.streaming.peak_live_channels}-channel active "
               "window")
    record_table(table)

    # Identical discrete invariants — the modes replay the *same* trace.
    assert streaming.installs == interleaved.installs
    assert streaming.client_wire_bytes == interleaved.client_wire_bytes
    assert streaming.downloaded_bytes == interleaved.downloaded_bytes
    assert streaming.publishes == interleaved.publishes
    # Distributional metrics agree to float re-association.
    assert abs(streaming.staleness_mean - interleaved.staleness_mean) \
        <= 1e-6 * max(1.0, interleaved.staleness_mean)
    # O(active) memory: the live window never exceeds wave + mirrors.
    assert streaming.streaming.peak_live_channels \
        <= STREAM_WAVE + len(MIRROR_SPECS) + 2
    assert streaming.streaming.clients_booted == STREAM_CLIENTS
    # The acceptance bar, measured not eyeballed.
    assert ratio >= STREAM_MEMORY_RATIO, (
        f"streaming/materialized peak-memory ratio only {ratio:.2f}x "
        f"({peaks['interleaved']} / {peaks['streaming']} bytes)"
    )
    # Memory regression guard on the streaming path itself.
    assert peaks["streaming"] < STREAM_PEAK_CAP_BYTES, (
        f"streaming peak {peaks['streaming']} bytes exceeds cap "
        f"{STREAM_PEAK_CAP_BYTES}"
    )
