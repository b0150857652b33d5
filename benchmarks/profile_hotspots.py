"""Standalone hotspot profiler for the host-time critical paths.

Runs the two workloads the raw-speed pass optimizes — a multi-round
trace replay and a fleet-shaped solver solve — under cProfile at modest
scales, and prints the top-20 functions by cumulative time.  This is the
quick way to answer "where does host time go now?" without booting the
full benchmark suite (which has the same view behind ``--profile``):

    PYTHONPATH=src python benchmarks/profile_hotspots.py            # all
    PYTHONPATH=src python benchmarks/profile_hotspots.py replay
    PYTHONPATH=src python benchmarks/profile_hotspots.py replay-streaming
    PYTHONPATH=src python benchmarks/profile_hotspots.py serve
    PYTHONPATH=src python benchmarks/profile_hotspots.py solver

Scales are deliberately small (6 rounds / 2 tenants / 8 clients;
10k channels; 480-client rotation for the streaming target) so a
profile run takes seconds; the *shape* of the profile — which layers
dominate — matches the full benches.  The streaming target also prints
the tracemalloc peak next to the CPU profile, since O(active) memory is
that path's contract.
"""

from __future__ import annotations

import cProfile
import pstats
import random
import sys
import time


def _print_stats(label: str, profiler: cProfile.Profile,
                 wall: float) -> None:
    print()
    print("=" * 74)
    print(f"{label}  (host wall: {wall:.2f} s; top 20 by cumulative time)")
    print("=" * 74)
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)


def profile_replay() -> None:
    from repro.archive.apk import ApkPackage, PackageFile
    from repro.mirrors.builder import MirrorSpec
    from repro.simnet.latency import Continent
    from repro.workload.generator import generate_trace
    from repro.workload.replay import replay_trace
    from repro.workload.scenario import (
        build_multi_tenant_scenario,
        multi_tenant_refresh,
    )

    packages = []
    for i in range(8):
        files = [PackageFile(f"/usr/bin/pkg{i}",
                             (b"\x7fELF" + bytes([i])) * 2000)]
        files += [PackageFile(f"/usr/lib/pkg{i}/f{j}", bytes([i, j]) * 300)
                  for j in range(11)]
        packages.append(ApkPackage(name=f"pkg-{i:02d}", version="1.0-r0",
                                   files=files))
    scenario = build_multi_tenant_scenario(
        tenants=2, overlap=0.6, packages=packages,
        mirror_specs=(MirrorSpec("mirror-eu-1.example", Continent.EUROPE),
                      MirrorSpec("mirror-na-1.example",
                                 Continent.NORTH_AMERICA)))
    multi_tenant_refresh(scenario)
    trace = generate_trace(rounds=6, interval=0.4, publish_fraction=0.25,
                           seed=5)

    profiler = cProfile.Profile()
    begin = time.perf_counter()
    profiler.enable()
    replay_trace(scenario, trace, clients=8, mode="interleaved")
    profiler.disable()
    _print_stats("trace replay (6 rounds / 2 tenants / 8 clients, "
                 "interleaved)", profiler, time.perf_counter() - begin)


def profile_replay_streaming() -> None:
    """CPU + memory hotspots of the streaming replay path: a rotating
    fleet large enough that lazy boot, channel retirement, and the
    online metric folds all carry real weight in the profile."""
    import tracemalloc

    from repro.archive.apk import ApkPackage, PackageFile
    from repro.mirrors.builder import MirrorSpec
    from repro.simnet.latency import Continent
    from repro.workload.generator import generate_trace
    from repro.workload.replay import replay_trace
    from repro.workload.scenario import (
        build_multi_tenant_scenario,
        multi_tenant_refresh,
    )

    packages = []
    for i in range(8):
        files = [PackageFile(f"/usr/bin/pkg{i}",
                             (b"\x7fELF" + bytes([i])) * 200)]
        files += [PackageFile(f"/usr/lib/pkg{i}/f{j}", bytes([i, j]) * 300)
                  for j in range(7)]
        packages.append(ApkPackage(name=f"pkg-{i:02d}", version="1.0-r0",
                                   files=files))
    mirror_specs = (MirrorSpec("mirror-eu-1.example", Continent.EUROPE),
                    MirrorSpec("mirror-na-1.example",
                               Continent.NORTH_AMERICA))
    scenario = build_multi_tenant_scenario(
        tenants=2, overlap=0.6, packages=packages,
        mirror_specs=mirror_specs)
    multi_tenant_refresh(scenario)
    trace = generate_trace(
        rounds=24, interval=3.0, pull_lag=2.5, publish_fraction=0.25,
        seed=5, mirror_names=[spec.name for spec in mirror_specs],
        fleet_size=480, clients_per_wave=20, streaming=True)

    profiler = cProfile.Profile()
    tracemalloc.start()
    begin = time.perf_counter()
    profiler.enable()
    report = replay_trace(scenario, trace, clients=480, mode="streaming",
                          shared_tpm_seed=2020)
    profiler.disable()
    wall = time.perf_counter() - begin
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    _print_stats("streaming trace replay (480-client rotation, 20/wave, "
                 "24 rounds)", profiler, wall)
    print(f"tracemalloc peak: {peak / 1e6:.2f} MB "
          f"(peak live channels: {report.streaming.peak_live_channels}, "
          f"clients booted: {report.streaming.clients_booted})")


def profile_serve() -> None:
    """Hotspots of the replica-backed serving tier: a pull-heavy replay
    (rotating fleet, waves pinned at the refresh instant) against 4 edge
    replicas, so sync envelope verification, freshness checks, and the
    publication-backed serve paths all show up with real weight."""
    from repro.archive.apk import ApkPackage, PackageFile
    from repro.core.replica import ReplicaTSR
    from repro.mirrors.builder import MirrorSpec
    from repro.simnet.latency import Continent
    from repro.workload.generator import Trace, TraceEvent
    from repro.workload.replay import replay_trace
    from repro.workload.scenario import (
        build_multi_tenant_scenario,
        multi_tenant_refresh,
    )

    packages = []
    for i in range(8):
        files = [PackageFile(f"/usr/bin/pkg{i}",
                             (b"\x7fELF" + bytes([i])) * 300)]
        files += [PackageFile(f"/usr/lib/pkg{i}/f{j}", bytes([i, j]) * 300)
                  for j in range(11)]
        packages.append(ApkPackage(name=f"pkg-{i:02d}", version="1.0-r0",
                                   files=files))
    scenario = build_multi_tenant_scenario(
        tenants=2, overlap=0.6, packages=packages,
        mirror_specs=(MirrorSpec("mirror-eu-1.example", Continent.EUROPE),
                      MirrorSpec("mirror-eu-2.example", Continent.EUROPE)))
    multi_tenant_refresh(scenario)
    rounds, wave = 8, 24
    events = []
    for r in range(rounds):
        at = r * 3.0
        events.append(TraceEvent(at=at, kind="publish", fraction=0.35,
                                 seed=r))
        events.append(TraceEvent(at=at + 0.2, kind="mirror_sync"))
        events.append(TraceEvent(at=at + 0.4, kind="refresh"))
        events.append(TraceEvent(at=at + 0.4, kind="fleet_pull",
                                 clients=tuple(range(r * wave,
                                                     (r + 1) * wave)),
                                 installs_per_client=3, seed=1000 + r))
    trace = Trace(events=events, horizon=rounds * 3.0, seed=5)
    replicas = [ReplicaTSR(f"replica-{i:02d}.example", scenario.tsr,
                           sync_cadence=1.0) for i in range(4)]

    profiler = cProfile.Profile()
    begin = time.perf_counter()
    profiler.enable()
    replay_trace(scenario, trace, clients=rounds * wave,
                 mode="interleaved", delta_updates=True, replicas=replicas,
                 shared_tpm_seed=2020)
    profiler.disable()
    _print_stats(f"replica serving ({rounds * wave}-client rotation, "
                 f"{wave}/wave, {rounds} rounds, 4 replicas)", profiler,
                 time.perf_counter() - begin)


def profile_solver() -> None:
    from repro.simnet.schedule import ParallelTransferSchedule

    rng = random.Random(7)
    schedule = ParallelTransferSchedule(
        downlink_bandwidth=100 * 1024 * 1024)
    for c in range(10_000):
        channel = f"client-{c:05d}"
        schedule.limit_channel(channel,
                               rng.choice((1, 2, 4, 8)) * 1024 * 1024)
        for i in range(3):
            schedule.enqueue(channel, (channel, i),
                             setup=0.03 + rng.random() * 0.02,
                             size_bytes=rng.randint(20_000, 600_000),
                             bandwidth=3 * 1024 * 1024)

    profiler = cProfile.Profile()
    begin = time.perf_counter()
    profiler.enable()
    schedule.solve()
    profiler.disable()
    _print_stats("schedule solve (10k channels x 3 items)", profiler,
                 time.perf_counter() - begin)


def main(argv: list[str]) -> int:
    targets = {"replay": (profile_replay,),
               "replay-streaming": (profile_replay_streaming,),
               "serve": (profile_serve,),
               "solver": (profile_solver,),
               "all": (profile_replay, profile_replay_streaming,
                       profile_serve, profile_solver)}
    choice = argv[1] if len(argv) > 1 else "all"
    if choice not in targets:
        print(f"usage: {argv[0]} "
              "[replay|replay-streaming|serve|solver|all]",
              file=sys.stderr)
        return 2
    for fn in targets[choice]:
        fn()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
