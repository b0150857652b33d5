"""The benchmark's three workloads, each one measured instance per process.

An instance is built from a seed in four steps, each timed apart:

* ``inputs`` — the benchmark's own catalog search (``catalog.py``), timed
  but not part of any metric;
* ``setup`` — the program's set-up (``setup_s``): keys and deployment and,
  for the replay workloads, the bootstrap publication every client pulls
  first;
* ``run`` — the measured run (``host_s``): for ``repo-init`` the first
  refresh, its publication and the probe wave that pulls it; one trace
  replay for ``steady-update`` and ``fleet-fanout``;
* ``check`` — correctness probes, outside the measured run.

Everything here goes through the program's public API and reads public
report fields.  Two observers record what the replay engine does not keep
in its report: the per-round ``MultiTenantRefreshReport`` returned by
``RefreshOrchestrator.run`` and each ``Publication`` returned by
``TrustedSoftwareRepository.record_publication``.  They only append the
returned object to a list.
"""

from __future__ import annotations

import base64
import hashlib
import pickle
import random
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.attest.monitor import MonitoringSystem, baseline_whitelist
from repro.core.orchestrator import RefreshOrchestrator
from repro.core.replica import ReplicaTSR
from repro.core.service import TrustedSoftwareRepository
from repro.crypto.hashes import sha256_bytes
from repro.ima.subsystem import AppraisalMode, verify_ima_signature
from repro.mirrors.builder import MirrorSpec
from repro.simnet.latency import Continent
from repro.simnet.network import ScheduledFetchSession
from repro.util.errors import (
    FileSystemError,
    NetworkError,
    PackageManagerError,
)
from repro.util.stats import QuantileSketch, percentile
from repro.workload import (
    Trace,
    TraceEvent,
    build_multi_tenant_scenario,
    build_scenario,
    generate_trace,
    multi_tenant_refresh,
    replay_trace,
    run_pull_wave,
)
from repro.workload.scenario import FleetClient

from catalog import isolated_catalog

#: Probe nodes per tenant and packages each installs in the correctness
#: check that ends every instance.
PROBES_PER_TENANT = 1
PROBE_INSTALLS = 3
#: Probe nodes share one memoized TPM attestation keypair (the monitor
#: enrolls each by name), so no per-node prime search runs.
PROBE_TPM_SEED = 4040


@dataclass
class Observed:
    """What the two observers saw during the measured run."""

    rounds: list = field(default_factory=list)
    publications: list = field(default_factory=list)
    active: bool = False


def install_observers() -> Observed:
    observed = Observed()
    run = RefreshOrchestrator.run
    record = TrustedSoftwareRepository.record_publication

    def observed_run(self, *args, **kwargs):
        report = run(self, *args, **kwargs)
        if observed.active:
            observed.rounds.append(report)
        return report

    def observed_record(self, repo_id, *args, **kwargs):
        publication = record(self, repo_id, *args, **kwargs)
        if observed.active:
            observed.publications.append((repo_id, publication))
        return publication

    RefreshOrchestrator.run = observed_run
    TrustedSoftwareRepository.record_publication = observed_record
    return observed


# -- workload definitions -------------------------------------------------------

EU_MIRRORS = (
    MirrorSpec("mirror-eu-1.example", Continent.EUROPE),
    MirrorSpec("mirror-eu-2.example", Continent.EUROPE),
    MirrorSpec("mirror-eu-3.example", Continent.EUROPE),
)
WORLD_MIRRORS = (
    MirrorSpec("mirror-eu-1.example", Continent.EUROPE),
    MirrorSpec("mirror-na-1.example", Continent.NORTH_AMERICA),
    MirrorSpec("mirror-as-1.example", Continent.ASIA),
)
FROZEN = ("mirror-eu-1.example",)


@dataclass
class Instance:
    """One workload instance: its deployment plus the measured outcome."""

    seed: int
    scenario: object = None
    trace: object = None
    replicas: list = field(default_factory=list)
    #: Upstream publish instants of the measured run, sorted.
    publish_at: list = field(default_factory=list)
    #: Client pulls the trace schedules.
    scheduled_pulls: int = 0
    report: object = None
    #: repo-init only: the refresh report and probe-wave measurements.
    refresh: object = None
    probe: dict = field(default_factory=dict)


class RepoInit:
    """The first refresh of a generated Alpine-like repository with the
    paper's RSA-2048 TSR key and SGX on (Table 3, Fig. 8/9/12)."""

    name = "repo-init"
    packages = 32
    #: The paper-shaped catalog: shape targets up to this quantile of the
    #: generator's distributions (past it, single packages swing the total).
    top_quantile = 0.93
    probe_clients = 6

    def inputs(self, seed: int):
        return isolated_catalog(seed=seed, count=self.packages,
                                top_quantile=self.top_quantile)

    def setup(self, seed: int, catalog) -> Instance:
        scenario = build_scenario(workload=catalog, tsr_key_bits=2048,
                                  refresh=False, with_monitor=False)
        return Instance(seed, scenario=scenario, publish_at=[0.0])

    def run(self, inst: Instance) -> None:
        """Refresh, publish, then a probe wave of integrity-enforced nodes
        pulls the publication the instant it is servable: index landings
        give ``avail_*``, full pulls ``pull_*``.  Probes open what they
        installed, so IMA appraisal checks every TSR signature."""
        scenario = inst.scenario
        inst.refresh = scenario.refresh()
        start = scenario.clock.now()
        scenario.tsr.record_publication(scenario.repo_id, start)
        uplink = scenario.network.host(scenario.tsr.hostname).bandwidth
        index_session = ScheduledFetchSession(scenario.network,
                                              shared_bandwidth=uplink,
                                              start_time=start)
        clients = []
        for i in range(self.probe_clients):
            node, manager = scenario.new_node(
                f"probe-{i:03d}", appraisal=AppraisalMode.ENFORCE,
                session=index_session, tpm_attestation_seed=PROBE_TPM_SEED)
            clients.append(FleetClient(node.name, scenario.repo_id, node,
                                       manager))
        for client in clients:
            client.manager.update()
        index_session.solve()
        landed = [index_session.channel_finish(c.name) for c in clients]
        pull_session = ScheduledFetchSession(scenario.network,
                                             shared_bandwidth=uplink,
                                             start_time=start)
        for client in clients:
            client.manager.client.use_session(pull_session)
        # Each probe installs every package it can: the first full pull.
        wave = run_pull_wave(clients, random.Random(inst.seed),
                             len(scenario.population))
        pull_session.solve()
        opened = denied = 0
        for client in clients:
            for package in client.node.pkgdb.all():
                try:
                    client.manager.exercise(package.name)
                    opened += 1
                except FileSystemError:
                    denied += 1
        inst.probe = {
            "avail": landed,
            "pull": [pull_session.channel_finish(c.name) - start
                     for c in clients],
            "wire_bytes": pull_session.total_wire_bytes,
            "installs": wave.installs,
            "installed": [len(c.node.pkgdb.all()) for c in clients],
            "opened": opened,
            "denied": denied,
        }
        scenario.clock.advance(pull_session.makespan - start)

    def refresh_reports(self, inst: Instance, observed: Observed) -> list:
        return [inst.refresh]


class _Replay:
    """Shared set-up of the two trace-replay workloads."""

    tenants = 2
    overlap = 0.5
    #: Each publish re-releases a random few packages of a small catalog,
    #: so with the generator's heavy tails the work of a round would hang
    #: on which packages the dice pick.  The replays use typical packages:
    #: shape targets between these quantiles of the generator's
    #: distributions (6-13 files, 7-24 kB payloads).
    low_quantile, top_quantile = 0.45, 0.65

    def refresh_reports(self, inst: Instance, observed: Observed) -> list:
        return [report for plan in observed.rounds
                for report in plan.reports.values()]

    def inputs(self, seed: int):
        return isolated_catalog(seed=seed, count=self.packages,
                                unsupported=False,
                                low_quantile=self.low_quantile,
                                top_quantile=self.top_quantile)

    def _scenario(self, catalog, mirrors):
        scenario = build_multi_tenant_scenario(
            tenants=self.tenants, overlap=self.overlap, workload=catalog,
            mirror_specs=mirrors)
        multi_tenant_refresh(scenario)  # the bootstrap publication
        return scenario


class SteadyUpdate(_Replay):
    """Interleaved multi-round replay: overlapping tenants, cross-continent
    mirrors with one frozen, a persistent delta-updating fleet pulling in
    staggered waves; every refresh drains before the next publish.  The
    fleet shares one attestation keypair, as replay metrics never read it,
    so client prime searches do not swamp the measured host time."""

    name = "steady-update"
    tenants = 4
    packages = 24
    rounds = 8
    interval = 4.0
    publish_fraction = 0.3
    clients = 48
    waves_per_round = 6
    installs_per_client = 1

    def setup(self, seed: int, catalog) -> Instance:
        scenario = self._scenario(catalog, WORLD_MIRRORS)
        honest = tuple(spec.name for spec in WORLD_MIRRORS
                       if spec.name not in FROZEN)
        per_wave = self.clients // self.waves_per_round
        events = []
        for r in range(self.rounds):
            at = r * self.interval
            events.append(TraceEvent(at=at, kind="publish",
                                     fraction=self.publish_fraction,
                                     seed=seed * 1000 + r))
            events.append(TraceEvent(at=at + 0.2, kind="mirror_sync",
                                     mirrors=honest))
            events.append(TraceEvent(at=at + 0.4, kind="refresh"))
            for w in range(self.waves_per_round):
                events.append(TraceEvent(
                    at=at + 0.5 + w * (self.interval - 0.5)
                    / self.waves_per_round,
                    kind="fleet_pull",
                    clients=tuple(range(w * per_wave, (w + 1) * per_wave)),
                    installs_per_client=self.installs_per_client,
                    seed=seed * 1000 + r * 100 + w))
        trace = Trace(events=events, horizon=self.rounds * self.interval,
                      seed=seed)
        return Instance(seed, scenario=scenario, trace=trace,
                        publish_at=[r * self.interval
                                    for r in range(self.rounds)],
                        scheduled_pulls=self.rounds * self.clients)

    def run(self, inst: Instance) -> None:
        inst.report = replay_trace(inst.scenario, inst.trace,
                                   clients=self.clients, mode="interleaved",
                                   delta_updates=True, shared_tpm_seed=2020)


class FleetFanout(_Replay):
    """Streaming replay of a rotating cold fleet doing full pulls through
    edge replicas, with small refreshes over a small same-continent
    catalog and one shared attestation key."""

    name = "fleet-fanout"
    packages = 24
    rounds = 10
    interval = 3.0
    publish_fraction = 0.1
    wave = 128
    replicas = 4
    installs_per_client = 2

    def setup(self, seed: int, catalog) -> Instance:
        scenario = self._scenario(catalog, EU_MIRRORS)
        replicas = [ReplicaTSR(f"replica-{i:02d}.example", scenario.tsr,
                               sync_cadence=1.0)
                    for i in range(self.replicas)]
        trace = generate_trace(
            rounds=self.rounds, interval=self.interval, pull_lag=2.0,
            publish_fraction=self.publish_fraction, seed=seed,
            installs_per_client=self.installs_per_client,
            fleet_size=self.rounds * self.wave, clients_per_wave=self.wave,
            streaming=True)
        return Instance(seed, scenario=scenario, trace=trace,
                        replicas=replicas,
                        publish_at=[r * self.interval
                                    for r in range(self.rounds)],
                        scheduled_pulls=self.rounds * self.wave)

    def run(self, inst: Instance) -> None:
        inst.report = replay_trace(
            inst.scenario, inst.trace, clients=self.rounds * self.wave,
            mode="streaming", delta_updates=True, replicas=inst.replicas,
            shared_tpm_seed=2020)


WORKLOADS = {w.name: w for w in (RepoInit(), SteadyUpdate(), FleetFanout())}


# -- metrics ----------------------------------------------------------------------

def _due(publish_at: list, at: float) -> float:
    """The upstream publish a refresh starting at ``at`` answers."""
    return publish_at[max(0, bisect_right(publish_at, at + 1e-9) - 1)]


def _sketch(values=(), sketch: QuantileSketch | None = None) -> str:
    """A quantile sketch, pickled for the parent process to merge."""
    if sketch is None:
        sketch = QuantileSketch()
        sketch.extend(values)
    return base64.b64encode(pickle.dumps(sketch)).decode()


def metrics(workload, inst: Instance, observed: Observed) -> tuple[dict, dict]:
    """Per-instance ``(pooled, per_layer)``.

    ``pooled`` holds what ``run.py`` pools over a run's instances: sums
    for the ratio metrics and quantile sketches of the latency samples
    (lags and availability in seconds, pulls in seconds, per-package size
    overheads in percent)."""
    scenario = inst.scenario
    epc = scenario.tsr.epc_model
    reports = workload.refresh_reports(inst, observed)
    results = [r for report in reports for r in report.results]
    native = [r.timings.total for r in results]
    enclave = [epc.simulated_duration(r.timings.total, r.working_set_bytes)
               if epc is not None else r.timings.total for r in results]
    sanitize_sim = sum(report.sanitize_elapsed for report in reports)
    if observed.rounds:  # per (round, tenant) of the replay
        lags = [plan.finished_at - _due(inst.publish_at, plan.origin)
                for plan in observed.rounds for _ in plan.reports]
    else:  # repo-init: the catalog was published upstream at 0
        lags = [publication.available_at
                for _, publication in observed.publications]
    pooled = {
        "sanitized": len(results),
        "sanitize_sim_s": sanitize_sim,
        "lag": _sketch(lags),
        "overhead": _sketch(size_overheads(scenario)),
        **catalog_bytes(scenario),
    }
    report = inst.report
    if report is None:  # repo-init: the probe wave
        probe = inst.probe
        pooled["avail"] = _sketch(probe["avail"])  # the publish was at 0
        pooled["pull"] = _sketch(probe["pull"])
        pooled["wire_bytes"] = probe["wire_bytes"]
        pooled["pulls"] = len(probe["pull"])
    else:
        if report.streaming is not None:
            pooled["avail"] = _sketch(
                sketch=report.streaming.availability_sketch)
        else:
            pooled["avail"] = _sketch(
                v for t in report.timelines.values()
                for v in t.availability.values() if v is not None)
        pooled["pull"] = _sketch(sketch=report.pull_latency)
        pooled["wire_bytes"] = report.client_wire_bytes
        pooled["pulls"] = inst.scheduled_pulls

    layer = {}
    for phase in ("verify", "archive", "scripts", "sign"):
        layer[f"core.sanitizer.{phase}_sim_s"] = sum(
            getattr(r.timings, phase) for r in results)
    layer["core.sanitizer.pkg_p50_ms"] = 1000 * percentile(enclave, 50)
    layer["core.sanitizer.pkg_p90_ms"] = 1000 * percentile(enclave, 90)
    layer["core.sanitizer.rejected"] = sum(len(r.rejected) for r in reports)
    layer["sgx.epc_overhead_sim_s"] = sum(enclave) - sum(native)
    layer["core.quorum.sim_s"] = sum(r.quorum_elapsed for r in reports)
    layer["core.pipeline.download_sim_s"] = sum(r.download_elapsed
                                                for r in reports)
    layer["core.pipeline.downloaded_mb"] = sum(r.downloaded_bytes
                                               for r in reports) / 1e6
    layer["core.pipeline.deduped"] = sum(r.deduped_downloads for r in reports)
    if observed.rounds:
        busy = sum(finish - start for plan in observed.rounds
                   for _, _, start, finish in plan.enclave_timeline)
        wall = sum(plan.wall_elapsed for plan in observed.rounds)
        prescans = sum(plan.prescans for plan in observed.rounds)
    else:  # repo-init's sequential refresh: the enclave runs every sanitize
        busy = sanitize_sim
        wall = sum(r.total_elapsed for r in reports)
        prescans = 0
    layer["core.orchestrator.enclave_busy_sim_s"] = busy
    layer["core.orchestrator.enclave_util"] = busy / wall if wall else 0.0
    layer["core.orchestrator.prescans"] = prescans
    layer["core.service.serve_fallbacks"] = scenario.tsr.serve_fallbacks
    layer["core.service.resanitize_wait_sim_s"] = sum(
        r.resanitize_wait_s for r in reports)
    delta = report.delta_stats if report is not None else {}
    index_full = sum(delta.get("index_full", {}).values())
    package_full = sum(delta.get("package_full", {}).values())
    index_deltas = delta.get("index_deltas", 0)
    package_deltas = delta.get("package_deltas", 0)
    layer["core.delta.index_delta_ratio"] = (
        index_deltas / (index_deltas + index_full)
        if index_deltas + index_full else 0.0)
    layer["core.delta.package_delta_ratio"] = (
        package_deltas / (package_deltas + package_full)
        if package_deltas + package_full else 0.0)
    layer["core.delta.fallbacks"] = index_full + package_full
    layer["core.replica.sync_kb"] = (
        report.replica_sync_bytes / 1000 if report is not None else 0.0)
    layer["core.replica.refusals"] = (
        report.replica_refusals if report is not None else 0)
    layer["simnet.peak_live_channels"] = (
        report.streaming.peak_live_channels
        if report is not None and report.streaming is not None else 0)
    return pooled, layer


def _newest_entries(scenario) -> dict[str, int]:
    """Package name -> sanitized size in the tenants' newest publications."""
    entries = {}
    for repo_id in scenario.tenants:
        publication = scenario.tsr.publications(repo_id)[-1]
        entries.update((name, size)
                       for name, (size, _) in publication.entries.items())
    return entries


def size_overheads(scenario) -> list[float]:
    """Per-package size growth (%) of the sanitized package over the
    original, across the tenants' newest publications (Fig. 9)."""
    return [100.0 * (size - len(scenario.origin.package_blob(name)))
            / len(scenario.origin.package_blob(name))
            for name, size in _newest_entries(scenario).items()]


def catalog_bytes(scenario) -> dict[str, int]:
    """Sanitized and original bytes of the tenants' newest publications."""
    entries = _newest_entries(scenario)
    return {"sanitized_bytes": sum(entries.values()),
            "original_bytes": sum(len(scenario.origin.package_blob(name))
                                  for name in entries)}


def paper_view(workload, inst: Instance, observed: Observed) -> dict:
    """The Fig. 8 / Table 4 phase split and the Fig. 12 SGX ratio."""
    results = [r for report in workload.refresh_reports(inst, observed)
               for r in report.results]
    epc = inst.scenario.tsr.epc_model
    split = {phase: sum(getattr(r.timings, phase) for r in results)
             for phase in ("verify", "archive", "scripts", "sign")}
    native = [r.timings.total for r in results]
    ratios = sorted(epc.simulated_duration(r.timings.total,
                                           r.working_set_bytes)
                    / r.timings.total for r in results if r.timings.total)
    total_native = sum(native)
    total_enclave = sum(epc.simulated_duration(r.timings.total,
                                               r.working_set_bytes)
                        for r in results)
    return {"phase_split": split,
            "sgx_ratio_p50": percentile(ratios, 50) if ratios else 0.0,
            "sgx_ratio_total": (total_enclave / total_native
                                if total_native else 0.0)}


# -- correctness ---------------------------------------------------------------------

def check(inst: Instance) -> tuple[int, int, list[str]]:
    """Return ``(attempted, failed, problems)`` for the instance.

    Counts the measured run's pulls and installs, then boots probe nodes
    that install from every tenant's newest publication (requests pinned
    at its ``available_at``).  A monitor built from the golden-image
    whitelist and the tenants' attested keys (never the distribution key)
    must find each probe trusted, and every file a probe installed must
    carry a valid TSR IMA signature.
    """
    scenario = inst.scenario
    problems: list[str] = []
    attempted = failed = 0
    report = inst.report
    if report is not None:
        installs = report.installs + report.failed_installs
        attempted += inst.scheduled_pulls + installs
        failed += report.failed_pulls + report.failed_installs
        if report.failed_pulls or report.failed_installs:
            problems.append(f"{report.failed_pulls} failed pulls, "
                            f"{report.failed_installs} failed installs")
        for name, timeline in report.timelines.items():
            serials = [serial for _, serial in timeline.transitions]
            if any(b < a for a, b in zip(serials, serials[1:])):
                failed += 1
                problems.append(f"client {name} serial went backwards")
    else:
        probe = inst.probe
        attempted += len(probe["pull"]) + probe["installs"] + probe["opened"] \
            + probe["denied"]
        failed += probe["denied"]
        if probe["denied"]:
            problems.append(f"IMA appraisal denied {probe['denied']} "
                            "probe package opens")
        if not probe["installed"] or min(probe["installed"]) == 0 \
                or len(set(probe["installed"])) > 1:
            failed += 1
            problems.append("probes did not all install the full catalog: "
                            f"{probe['installed']}")

    monitor = MonitoringSystem(
        whitelist=baseline_whitelist(
            init_config_files=scenario.policy.init_config_files),
        trusted_signing_keys=list(scenario.tenant_keys.values()))
    rng = random.Random(inst.seed)
    for repo_id in scenario.tenants:
        key = scenario.tenant_keys[repo_id]
        for _ in range(PROBES_PER_TENANT):
            node, manager = scenario.new_node(
                f"check-{len(scenario.nodes):04d}", repo_id=repo_id,
                appraisal=AppraisalMode.ENFORCE,
                tpm_attestation_seed=PROBE_TPM_SEED)
            monitor.enroll_node(node.name, node.tpm.attestation_public_key)
            manager.client.as_of = scenario.tsr.publications(repo_id)[-1] \
                .available_at
            attempted += 1
            try:
                index = manager.update()
            except NetworkError as exc:
                failed += 1
                problems.append(f"probe pull from {repo_id}: {exc}")
                continue
            names = sorted(index.package_names())
            rng.shuffle(names)
            installed = 0
            for name in names:
                if installed == PROBE_INSTALLS:
                    break
                try:
                    manager.resolve_install_order(name)
                except PackageManagerError:
                    continue  # depends on a package the TSR refused
                attempted += 1
                try:
                    manager.install(name)
                    manager.exercise(name)
                except (PackageManagerError, NetworkError,
                        FileSystemError) as exc:
                    failed += 1
                    problems.append(f"probe install {name}: {exc}")
                    continue
                installed += 1
            attempted += 1
            verdict = monitor.verify_node(node)
            if not verdict.trusted:
                failed += 1
                problems.append(f"probe {node.name} flagged: "
                                f"{verdict.violations[:2]}")
            for package in node.pkgdb.all():
                for path in package.files:
                    if not node.fs.exists(path):
                        continue  # removed by the package's own script
                    signature = node.fs.get_xattr(path, "security.ima")
                    digest = sha256_bytes(node.fs.read_file(path))
                    if signature is None or not verify_ima_signature(
                            digest, signature, [key]):
                        failed += 1
                        problems.append(f"{node.name}:{path} lacks a valid "
                                        "TSR IMA signature")
    return attempted, failed, problems


def fingerprint(inst: Instance, observed: Observed) -> str:
    """Digest of the discrete outcomes: signed index bytes of every
    publication, installs, per-client serial transitions and the client
    wire bytes per wave."""
    digest = hashlib.sha256()
    for repo_id, publication in observed.publications:
        digest.update(repo_id.encode())
        digest.update(publication.index_bytes)
    report = inst.report
    if report is None:
        digest.update(repr((inst.probe["installs"],
                            inst.probe["wire_bytes"])).encode())
    else:
        digest.update(repr((report.installs, report.pull_wire_bytes)).encode())
        for name in sorted(report.timelines):
            digest.update(repr((name, [serial for _, serial in
                                       report.timelines[name].transitions]))
                          .encode())
    return digest.hexdigest()[:16]
