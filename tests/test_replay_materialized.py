"""The materialized side of the plan engine (``mode="interleaved"``).

Interleaved and streaming replays run the same ``ScheduleStream`` loop;
interleaved additionally keeps every client's node and timeline and every
round's refresh report, even when the trace rotates pull waves over the
fleet (streaming retires rotated-out clients instead).  Consumers that
probe the fleet afterwards, or count it via ``scenario.nodes``, rely on
this contract.
"""

from repro.archive.apk import ApkPackage, PackageFile
from repro.workload.generator import generate_trace
from repro.workload.replay import (
    availability_latencies,
    replay_trace,
    staleness_seconds,
)
from repro.workload.scenario import build_scenario, multi_tenant_refresh

ROTATION = dict(rounds=8, interval=3.0, publish_fraction=0.2, seed=5,
                fleet_size=12, clients_per_wave=3)


def _scenario():
    packages = [
        ApkPackage(name=f"pkg-{i:02d}", version="1.0-r0",
                   files=[PackageFile(f"/usr/bin/pkg{i}",
                                      (b"\x7fELF" + bytes([i])) * 1500)])
        for i in range(8)
    ]
    scenario = build_scenario(packages=packages, refresh=False,
                              with_monitor=False)
    multi_tenant_refresh(scenario)  # bootstrap publication
    return scenario


def test_interleaved_rotating_fleet_keeps_every_node_and_timeline():
    scenario = _scenario()
    report = replay_trace(scenario, generate_trace(**ROTATION),
                          clients=12, mode="interleaved")

    assert report.streaming is None
    assert report.failed_pulls == 0
    names = {f"replay-5-{i:03d}" for i in range(12)}
    # Every node survives the replay, rotated out or not.
    assert names <= set(scenario.nodes)
    assert set(report.timelines) == names
    # Eight waves of three clients: every landing is kept, in order.
    landings = [t.transitions for t in report.timelines.values()]
    assert sum(len(t) for t in landings) == 8 * 3
    assert all(t == sorted(t) for t in landings)
    # Per-client metrics are the exact ones, not folded approximations.
    for timeline in report.timelines.values():
        assert timeline.staleness == staleness_seconds(
            report.publishes, timeline.transitions, report.horizon)
        assert timeline.availability == availability_latencies(
            report.publishes, timeline.transitions)
    # Every round's report is kept, with its enclave timeline.
    assert len(report.refresh_rounds) == report.rounds == 8
    assert any(r.enclave_timeline for r in report.refresh_rounds)

