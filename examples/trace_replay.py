#!/usr/bin/env python3
"""Multi-round trace replay: staleness the paper only sketches.

A two-tenant TSR deployment lives through four upstream release rounds:
each round publishes an update batch, the mirrors sync, the TSR runs an
orchestrated refresh, and a six-client fleet pulls.  The whole trace is
replayed twice — serially (each step completes before the next starts)
and as one plan-wide interleaved schedule — and the replay reports what
neither a single-round bench can show: how long every client kept
running an index older than the newest upstream publish, and how long
each publish took to reach the fleet.  A third run streams the same
plan-wide schedule (``mode="streaming"``): same timings, with the
metrics folded online instead of kept per client.

Run:  python examples/trace_replay.py
"""

from repro.archive.apk import ApkPackage, PackageFile
from repro.mirrors.builder import MirrorSpec
from repro.simnet.latency import Continent
from repro.workload.generator import generate_trace
from repro.workload.replay import replay_trace
from repro.workload.scenario import (
    build_multi_tenant_scenario,
    multi_tenant_refresh,
)

# Cross-continent mirrors: quorum reads cost real RTT, and the frozen
# EU mirror forces the quorum to widen (and the orchestrator to
# pre-scan cached blobs) every round.
MIRROR_SPECS = (
    MirrorSpec("mirror-eu-1.example", Continent.EUROPE),
    MirrorSpec("mirror-na-1.example", Continent.NORTH_AMERICA),
    MirrorSpec("mirror-as-1.example", Continent.ASIA),
)


def population(count=10, files=12):
    packages = []
    for i in range(count):
        scripts = {}
        if i % 3 == 0:
            scripts = {".pre-install": f"addgroup -S grp{i}\n"
                                       f"adduser -S -G grp{i} svc{i}\n"}
        pkg_files = [PackageFile(f"/usr/bin/pkg{i}",
                                 (b"\x7fELF" + bytes([i])) * 4000)]
        pkg_files += [PackageFile(f"/usr/lib/pkg{i}/f{j}",
                                  bytes([i, j]) * 300)
                      for j in range(files - 1)]
        packages.append(ApkPackage(
            name=f"pkg-{i:02d}", version="1.0-r0", scripts=scripts,
            files=pkg_files,
        ))
    return packages


def main():
    trace = generate_trace(rounds=4, interval=0.3, publish_fraction=0.3,
                           seed=42,
                           mirror_names=[s.name for s in MIRROR_SPECS],
                           frozen_mirrors=("mirror-eu-1.example",))
    print(f"trace: {trace.rounds()} rounds, {len(trace.events)} events, "
          f"horizon {trace.horizon:.1f}s\n")

    reports = {}
    for mode in ("serial", "interleaved", "streaming"):
        scenario = build_multi_tenant_scenario(tenants=2, overlap=0.5,
                                               packages=population(),
                                               mirror_specs=MIRROR_SPECS)
        multi_tenant_refresh(scenario)  # bootstrap: publish the catalog
        reports[mode] = replay_trace(scenario, trace, clients=6, mode=mode)

    for mode, report in reports.items():
        print(f"{mode}: wall {report.wall_elapsed:.2f}s, "
              f"{report.installs} installs, "
              f"staleness mean {report.staleness_mean:.2f}s "
              f"(max {report.staleness_max:.2f}s), "
              f"availability mean {report.availability_mean:.2f}s")

    interleaved = reports["interleaved"]
    print("\nper-client staleness (interleaved):")
    for name, timeline in sorted(interleaved.timelines.items()):
        pulls = len(timeline.transitions)
        print(f"  {name} [{timeline.repo_id}]: {timeline.staleness:.2f}s "
              f"stale over {pulls} pulls")

    speedup = (reports["serial"].wall_elapsed
               / interleaved.wall_elapsed)
    print(f"\nplan-wide interleaving: {speedup:.2f}x vs serial composition")
    print("trace replay complete.")


if __name__ == "__main__":
    main()
