"""Multi-round trace replay: publish → refresh → fleet pull as one plan.

The paper evaluates TSR refresh latency for a *single* update round; its
freshness story — clients keep running stale measurements until the next
signed index lands — is only sketched.  This module replays a timestamped
:class:`~repro.workload.generator.Trace` (upstream publishes, mirror syncs
with lag or freeze, TSR refreshes, client fleet pulls) over one long-lived
deployment and measures what the paper leaves open: per-client
**staleness** (time running an index older than the newest upstream
publish) and end-to-end **update availability** latency, over dozens of
rounds.

Three modes on two engines:

* ``mode="serial"`` — the ablation baseline, on its own engine: every
  event runs to completion before the next may start
  (``multi_tenant_refresh()`` then a fleet fan-out, repeated), each
  refresh round and pull wave on a fresh schedule, with a barrier
  carrying the finish frontier across events.  Rounds arriving faster
  than they drain pile up.
* ``mode="interleaved"`` and ``mode="streaming"`` — the plan engine: the
  plan-wide timeline.  *Every* transfer of the whole trace — quorum
  index reads, mirror package downloads, and all clients' pull fetches —
  is a stream of **one**
  :class:`~repro.simnet.schedule.ParallelTransferSchedule` whose shared
  capacity models the TSR machine's NIC, refresh rounds extend one
  resumable :class:`~repro.core.orchestrator.RefreshPlanState` (shared
  mirror channels, enclave frontier, cache-shard frontiers, in-flight
  transfer table), and fleet waves are pinned at their trace instants via
  :class:`~repro.simnet.network.PlanFetchSession`.  Round k+1's quorum
  widens while round k's fleet pulls still drain the uplink.  The
  schedule runs as a :class:`~repro.simnet.schedule.ScheduleStream`
  whose frontier advances to each event's instant; completions are
  drained the moment they settle and the scheduler retires drained
  download keys.  The two modes differ only in what they keep:

  - ``interleaved`` materializes: an eager fleet that is never retired,
    every client's :class:`ClientTimeline` of index landings, every
    round's refresh report and the plan's enclave timeline, with
    staleness and availability settled exactly
    (:func:`staleness_seconds`, :func:`availability_latencies`).
  - ``streaming`` holds O(active) memory: landings are folded into
    online aggregates (no per-client transition lists, no per-round
    report list, no plan timeline) and — when the trace rotates pull
    waves over a large fleet — each client's node is torn down once its
    final wave drains.  Staleness uses a lazy telescoping fold (per
    client: current serial + last landing instant; each landing charges
    ``max(0, t' - max(t_last, P(s)))`` where ``P(s)`` is the first
    publish instant with a serial newer than ``s``), which telescopes to
    exactly :func:`staleness_seconds`; availability uses a per-client
    pointer into the publish list.  Percentiles come from mergeable
    :class:`~repro.util.stats.QuantileSketch` aggregates plus per-window
    scalar curves instead of an end-of-run pass over all samples.

  Both run the very same solver on the very same enqueues, so installs,
  served serials, and published bytes match bit-for-bit; only the metric
  *representation* differs (sums exact up to float re-association,
  percentiles within the sketch's rank-error bound).

Causality across in-flight rounds is kept by *versioned publications*
(:meth:`~repro.core.service.TrustedSoftwareRepository.record_publication`):
a refresh round publishes its signed index and sanitized blobs at the
round's completion offset, and every pull wave is time-stamped
(``TsrRepositoryClient.as_of``) so a client pulling at plan time T sees
the newest publication that had **finished** by T — never the output of a
refresh still in flight, even though the Python call that computed it has
already returned.  One deployment carries all state across rounds: the
content-addressed cache dedupes incremental downloads, eviction pressure
accumulates (LRU vs scan-resistant LRU-2 — ``cache_policy``), and the
enclave's catalog grows monotonically.

Verdict/byte fidelity is pinned by the differential suite
(``tests/test_trace_replay.py``): a one-tenant, one-round trace produces
byte-identical signed indexes and served packages to the literal
``multi_tenant_refresh(); fleet_refresh()`` composition.  The replay
bench (``benchmarks/bench_trace_replay.py``) measures the serial-vs-
interleaved ablation and the staleness/availability curves
(EXPERIMENTS.md §7).
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

from repro.core.orchestrator import (
    MultiTenantRefreshReport,
    RefreshOrchestrator,
    RefreshPlanState,
)
from repro.core.pipeline import MirrorDownloadScheduler
from repro.core.replica import check_replica_freshness
from repro.simnet.network import PlanFetchSession
from repro.simnet.schedule import ParallelTransferSchedule
from repro.util.errors import PolicyError, RollbackError
from repro.util.stats import QuantileSketch, percentile
from repro.workload.generator import Trace, TraceEvent, evolve_packages
from repro.workload.scenario import ClientFleet, Scenario, run_pull_wave

REPLAY_MODES = ("interleaved", "serial", "streaming")
#: Per-round refresh counters a streaming replay folds into totals.
_ROUND_COUNTERS = ("prescans", "downloads_deduped", "evicted_redownloads",
                   "downloaded_bytes")


# -- staleness / availability metrics (pure, unit-testable) -------------------


def staleness_seconds(publishes: list[tuple[float, int]],
                      transitions: list[tuple[float, int]],
                      horizon: float) -> float:
    """Seconds a client ran an index older than the newest publish.

    ``publishes`` are upstream ``(time, serial)`` bumps; ``transitions``
    are the client's ``(time, serial)`` index landings.  Both must be
    time-sorted with nondecreasing serials.  Integration starts at the
    client's *first* transition (before that the client does not exist
    for the experiment) and ends at ``horizon``; the client is stale
    whenever its current serial is older than the newest serial published
    so far.
    """
    if not transitions:
        return 0.0
    start = transitions[0][0]
    events: list[tuple[float, int, str, int]] = []
    # Tie-break at equal instants: apply the publish first (a client
    # landing an index at the very moment a newer serial publishes is
    # already stale), then the client transition.
    for at, serial in publishes:
        events.append((at, 0, "pub", serial))
    for at, serial in transitions:
        events.append((at, 1, "client", serial))
    events.sort(key=lambda e: (e[0], e[1]))

    newest = 0
    current: int | None = None
    stale_since: float | None = None
    total = 0.0
    for at, _, kind, serial in events:
        if at > horizon:
            break
        if kind == "pub":
            newest = max(newest, serial)
            if (current is not None and current < newest
                    and stale_since is None):
                stale_since = at
        else:
            current = serial
            if stale_since is not None and current >= newest:
                total += at - stale_since
                stale_since = None
            elif (stale_since is None and current < newest
                    and at >= start):
                stale_since = at
    if stale_since is not None:
        total += max(0.0, horizon - max(stale_since, start))
    return total


def availability_latencies(publishes: list[tuple[float, int]],
                           transitions: list[tuple[float, int]],
                           ) -> dict[int, float | None]:
    """Per publish serial: how long until this client caught up.

    Returns ``serial -> seconds`` from the publish instant to the
    client's first transition with an index at least that new, or
    ``None`` when the client never caught up within the trace.
    """
    latencies: dict[int, float | None] = {}
    for published_at, serial in publishes:
        caught = next((at for at, got in transitions
                       if got >= serial and at >= published_at), None)
        latencies[serial] = (caught - published_at
                             if caught is not None else None)
    return latencies


# -- replay data model --------------------------------------------------------


@dataclass
class ClientTimeline:
    """One client's view of the trace: index landings + derived metrics."""

    name: str
    repo_id: str
    #: (plan time the signed index was authenticated, its serial).
    transitions: list[tuple[float, int]] = field(default_factory=list)
    staleness: float = 0.0
    #: publish serial -> catch-up latency (None: never caught up).
    availability: dict[int, float | None] = field(default_factory=dict)


@dataclass
class StreamingReplaySummary:
    """Online-folded metrics of a ``mode="streaming"`` replay.

    Everything here is accumulated as completions drain — per-client
    state is three scalars and a publish pointer, fleet-wide percentiles
    live in :class:`~repro.util.stats.QuantileSketch` aggregates, and
    time-resolved shapes are per-window scalar folds (window ``i``
    covers ``[i * window_seconds, (i+1) * window_seconds)``).
    """

    #: Sum / max over the fleet of per-client staleness seconds.
    staleness_sum: float
    staleness_max: float
    #: Distribution of per-client staleness totals (never-pulled clients
    #: included as zeros, so ``count`` equals the fleet size).
    staleness_sketch: QuantileSketch
    #: Catch-up latency fold over every caught-up (publish, client) pair.
    availability_sum: float
    availability_count: int
    availability_max: float
    availability_sketch: QuantileSketch
    window_seconds: float
    #: Fleet stale-seconds charged to each window (interval overlap).
    window_stale_seconds: list[float]
    #: Per window of the publish instant: [samples, sum, max] catch-up.
    window_availability: list[list[float]]
    #: Folded counters over the dropped per-round refresh reports.
    refresh_totals: dict
    #: How many fleet nodes were ever booted (lazy fleet introspection).
    clients_booted: int
    #: Peaks of the stream's live footprint, sampled at every drain.
    peak_live_channels: int
    peak_pending_items: int
    final_stream_stats: dict


@dataclass
class TraceReplayReport:
    """Everything one trace replay measured."""

    mode: str
    rounds: int
    clients: int
    #: Plan time of the last activity (transfers, enclave, disk).
    wall_elapsed: float
    #: Observation horizon staleness integrates over.
    horizon: float
    installs: int
    failed_pulls: int
    failed_installs: int
    #: Upstream (time, serial) bumps, the trace's ground truth.
    publishes: list[tuple[float, int]]
    refresh_rounds: list[MultiTenantRefreshReport]
    timelines: dict[str, ClientTimeline]
    #: Whether the fleet pulled via the delta-update path.
    delta_updates: bool = False
    #: Wire bytes the fleet fetched, per pull wave (the TSR-uplink cost
    #: of serving the fleet; refresh traffic is not included).
    pull_wire_bytes: list[int] = field(default_factory=list)
    #: Fleet-wide delta accounting (:meth:`DeltaStats.as_dict`; all zeros
    #: when ``delta_updates`` is off).
    delta_stats: dict = field(default_factory=dict)
    #: ``mode="streaming"`` only: the online-folded metric aggregates
    #: (``timelines`` and ``refresh_rounds`` are then empty — per-client
    #: and per-round records were retired as they drained).
    streaming: StreamingReplaySummary | None = None
    #: Per-pull completion latency (wave start → the client's last fetch
    #: settling), folded across every scheduled wave in every mode.
    pull_latency: QuantileSketch | None = None
    #: Edge-replica tier accounting (zero without replicas).
    replicas: int = 0
    #: Pull waves in which a replica failed its freshness check and lost
    #: the wave's traffic to the primary (counted per replica per wave).
    replica_refusals: int = 0
    #: Wire bytes the replicas pulled off the primary's uplink to sync.
    replica_sync_bytes: int = 0

    def pull_latency_quantile(self, q: float) -> float:
        """``q``-th percentile of per-client pull completion latency."""
        if self.pull_latency is None:
            return 0.0
        return self.pull_latency.quantile(q)

    @property
    def staleness_per_client(self) -> dict[str, float]:
        return {name: t.staleness for name, t in self.timelines.items()}

    @property
    def staleness_mean(self) -> float:
        if self.streaming is not None:
            return (self.streaming.staleness_sum / self.clients
                    if self.clients else 0.0)
        if not self.timelines:
            return 0.0
        return sum(t.staleness for t in self.timelines.values()) \
            / len(self.timelines)

    @property
    def staleness_max(self) -> float:
        if self.streaming is not None:
            return self.streaming.staleness_max
        return max((t.staleness for t in self.timelines.values()),
                   default=0.0)

    @property
    def availability_mean(self) -> float:
        """Mean catch-up latency over every (publish, client) pair."""
        if self.streaming is not None:
            folded = self.streaming
            return (folded.availability_sum / folded.availability_count
                    if folded.availability_count else 0.0)
        samples = [
            latency
            for timeline in self.timelines.values()
            for latency in timeline.availability.values()
            if latency is not None
        ]
        return sum(samples) / len(samples) if samples else 0.0

    @property
    def availability_max(self) -> float:
        if self.streaming is not None:
            return self.streaming.availability_max
        return max((latency
                    for timeline in self.timelines.values()
                    for latency in timeline.availability.values()
                    if latency is not None), default=0.0)

    def staleness_quantile(self, q: float) -> float:
        """``q``-th percentile of per-client staleness totals.

        Exact over the timelines in the materialized modes; within the
        sketch's rank-error bound in streaming mode.
        """
        if self.streaming is not None:
            return self.streaming.staleness_sketch.quantile(q)
        values = [t.staleness for t in self.timelines.values()]
        return percentile(values, q) if values else 0.0

    def availability_quantile(self, q: float) -> float:
        """``q``-th percentile of catch-up latency samples."""
        if self.streaming is not None:
            return self.streaming.availability_sketch.quantile(q)
        samples = [
            latency
            for timeline in self.timelines.values()
            for latency in timeline.availability.values()
            if latency is not None
        ]
        return percentile(samples, q) if samples else 0.0

    # Fleet wire-byte metrics (the delta-update ablation, EXPERIMENTS §8).

    @property
    def client_wire_bytes(self) -> int:
        """Total bytes the fleet pulled off the TSR uplink."""
        return sum(self.pull_wire_bytes)

    @property
    def bytes_per_client_per_round(self) -> float:
        """Mean uplink bytes one client costs per pull wave."""
        if not self.pull_wire_bytes or not self.clients:
            return 0.0
        return self.client_wire_bytes \
            / (self.clients * len(self.pull_wire_bytes))

    def steady_state_bytes_per_client_per_round(self,
                                                skip_waves: int = 1) -> float:
        """Same metric excluding the first ``skip_waves`` warm-up waves
        (clients hold no bases yet, so early waves pull full either way)."""
        tail = self.pull_wire_bytes[skip_waves:]
        if not tail or not self.clients:
            return 0.0
        return sum(tail) / (self.clients * len(tail))

    # Aggregates over the refresh rounds (cache behaviour across rounds).

    @property
    def deduped_downloads(self) -> int:
        if self.streaming is not None:
            return self.streaming.refresh_totals["downloads_deduped"]
        return sum(r.downloads_deduped for r in self.refresh_rounds)

    @property
    def evicted_redownloads(self) -> int:
        if self.streaming is not None:
            return self.streaming.refresh_totals["evicted_redownloads"]
        return sum(r.evicted_redownloads for r in self.refresh_rounds)

    @property
    def prescans(self) -> int:
        if self.streaming is not None:
            return self.streaming.refresh_totals["prescans"]
        return sum(r.prescans for r in self.refresh_rounds)

    @property
    def downloaded_bytes(self) -> int:
        if self.streaming is not None:
            return self.streaming.refresh_totals["downloaded_bytes"]
        return sum(r.downloaded_bytes for r in self.refresh_rounds)


# -- the engines --------------------------------------------------------------


def publish_event(scenario: Scenario, event: TraceEvent,
                  trace_seed: int) -> list[str]:
    """Apply one ``publish`` event: evolve + publish an update batch.

    The batch is sampled by an RNG derived *only* from the trace seed and
    the event seed — never from the replay's shared stream — so every
    replay mode (and any external caller reproducing the trace, e.g. the
    differential suite) publishes byte-identical releases.
    """
    rng = random.Random(f"trace-publish:{trace_seed}:{event.seed}")
    batch = evolve_packages(scenario.population, event.fraction, rng)
    scenario.origin.publish_many([(package, None) for package in batch])
    for package in batch:
        scenario.population[package.name] = package
    return [package.name for package in batch]


def _final_waves(trace: Trace, clients: int) -> array:
    """Per client index, the ordinal of its last pull wave (-1: never).

    One extra lazy pass over the trace; no events are retained.  Once a
    client's final wave drains, a rotating fleet can tear its node down.
    """
    final = array("i", [-1]) * clients
    final_all = -1
    ordinal = 0
    for event in trace.iter_events():
        if event.kind != "fleet_pull":
            continue
        if event.clients is None:
            final_all = ordinal
        else:
            for i in event.clients:
                final[i] = ordinal
        ordinal += 1
    for i in range(clients):
        final[i] = max(final[i], final_all)
    return final


def _timelines(fleet: ClientFleet) -> dict[str, ClientTimeline]:
    """An empty timeline per booted client (none for a lazy fleet)."""
    return {client.name: ClientTimeline(name=client.name,
                                        repo_id=client.repo_id)
            for client in fleet.clients}


class TraceReplay:
    """Replays one :class:`Trace` against one deployment.

    The engine owns the plan timeline: the scenario clock is advanced
    exactly once, at the end, by the replay's wall-clock.  See the module
    docstring for the three modes and their two engines.
    """

    def __init__(self, scenario: Scenario, trace: Trace, clients: int = 8,
                 mode: str = "interleaved",
                 client_downlink=None,
                 max_streams: int | None = None,
                 tenants: list[str] | None = None,
                 link_bandwidth: float | None = None,
                 delta_updates: bool = False,
                 window_seconds: float | None = None,
                 shared_tpm_seed: int | None = None,
                 replicas=None):
        if mode not in REPLAY_MODES:
            raise ValueError(
                f"unknown replay mode {mode!r} (expected {REPLAY_MODES})"
            )
        if not scenario.population:
            raise ValueError("trace replay needs a published population")
        self._scenario = scenario
        self._trace = trace
        self._mode = mode
        self._max_streams = max_streams
        self._tenants = list(tenants or scenario.tenants)
        #: The shared-NIC capacity every transfer of the plan contends
        #: for (half-duplex model: refresh downloads and client serving
        #: share the TSR machine's one NIC in every mode).
        self._capacity = (
            link_bandwidth if link_bandwidth is not None
            else scenario.network.host(scenario.tsr.hostname).bandwidth
        )
        self._clients = clients
        self._client_downlink = client_downlink
        self._delta_updates = delta_updates
        self._window_seconds = window_seconds
        #: Forwarded to :class:`ClientFleet`: one memoized attestation
        #: keypair for the whole fleet instead of a prime search per
        #: client boot.  Replay metrics never read the attestation key,
        #: so every mode produces identical reports either way — set it
        #: whenever the fleet is large.
        self._shared_tpm_seed = shared_tpm_seed
        #: Edge-replica serving tier (:class:`repro.core.replica.ReplicaTSR`
        #: instances, already registered on the scenario network).  The
        #: replay drives their sync loop — on every publication plus a
        #: cadence heartbeat before pull waves — and runs the freshness
        #: check that routes clients away from stale/frozen replicas.
        self._replicas = list(replicas) if replicas else []
        self._replica_refusals = 0
        # Pull-wave tallies, accumulated by _pull_wave.
        self._installs = 0
        self._failed_pulls = 0
        self._failed_installs = 0
        self._pull_wire_bytes: list[int] = []

    # -- replica tier plumbing -------------------------------------------------

    def _link_replicas(self, schedule: ParallelTransferSchedule):
        """Declare one independent uplink pool per replica host on the
        plan schedule (must run before a stream is opened)."""
        network = self._scenario.network
        for replica in self._replicas:
            schedule.add_link(replica.hostname,
                              network.host(replica.hostname).bandwidth)

    def _sync_replicas(self, at: float, repo_ids=None, schedule=None):
        for replica in self._replicas:
            replica.sync_from_primary(at, repo_ids=repo_ids,
                                      schedule=schedule)

    def _heartbeat_replicas(self, at: float, schedule=None):
        """Cadence sync ahead of a pull wave: a healthy replica re-syncs
        whenever its last sync is at least one cadence old, so its lag at
        wave time never exceeds its cadence (< the staleness bound).  A
        frozen replica ignores this and drifts into refusal."""
        for replica in self._replicas:
            if at - replica.synced_through >= replica.sync_cadence:
                replica.sync_from_primary(at, schedule=schedule)

    def _freshness_refusals(self, as_of: float) -> set[str]:
        """Quorum-check every replica's served index for this wave."""
        refused: set[str] = set()
        scenario = self._scenario
        for replica in self._replicas:
            for repo_id in self._tenants:
                if scenario.tsr.publication_at(repo_id, as_of) is None:
                    continue  # nothing published yet: nothing to refuse
                key = scenario.tenant_keys.get(repo_id,
                                               scenario.tsr_public_key)
                try:
                    check_replica_freshness(replica, repo_id, as_of, [key])
                except RollbackError:
                    refused.add(replica.hostname)
                    replica.refusals += 1
                    self._replica_refusals += 1
                    break
        return refused

    # -- event handling shared by both engines ------------------------------

    def _new_round_state(self) -> tuple[ParallelTransferSchedule,
                                        RefreshPlanState]:
        schedule = ParallelTransferSchedule(
            downlink_bandwidth=self._capacity)
        plan = RefreshPlanState(scheduler=MirrorDownloadScheduler(
            self._scenario.tsr, schedule=schedule,
            channel_key=lambda hostname: ("dl", hostname)))
        return schedule, plan

    def _fleet(self, session=None, lazy: bool = False) -> ClientFleet:
        return ClientFleet(
            self._scenario, self._clients,
            name_prefix=f"replay-{self._trace.seed}",
            session=session, client_downlink=self._client_downlink,
            tenants=self._tenants, delta_updates=self._delta_updates,
            lazy=lazy, shared_tpm_seed=self._shared_tpm_seed,
            replicas=self._replicas,
        )

    def _bootstrap(self, schedule=None) -> list[tuple[float, int]]:
        """Publication zero: every tenant refreshed before the trace is
        published at 0 and the replicas sync it.  Returns the publish
        list, seeded with the pre-trace population as "publish zero"."""
        tsr = self._scenario.tsr
        for repo_id in self._tenants:
            try:
                tsr.get_index_bytes(repo_id)
            except PolicyError:
                continue  # tenant not refreshed before the trace
            tsr.record_publication(repo_id, 0.0)
        self._sync_replicas(0.0, schedule=schedule)
        return [(0.0, self._scenario.origin.serial)]

    def _upstream(self, event: TraceEvent,
                  publishes: list[tuple[float, int]]):
        """A ``publish`` or ``mirror_sync`` event (instantaneous)."""
        scenario = self._scenario
        if event.kind == "publish":
            publish_event(scenario, event, self._trace.seed)
            publishes.append((event.at, scenario.origin.serial))
        elif event.kind == "mirror_sync":
            targets = (event.mirrors if event.mirrors is not None
                       else list(scenario.mirrors))
            for name in targets:
                scenario.mirrors[name].sync()

    def _refresh_round(self, event: TraceEvent, start: float,
                       plan: RefreshPlanState,
                       schedule=None) -> MultiTenantRefreshReport:
        """One orchestrated refresh round, published at its finish."""
        tsr = self._scenario.tsr
        repo_ids = list(event.tenants or self._tenants)
        report = RefreshOrchestrator(
            tsr, repo_ids, max_streams=self._max_streams,
            origin=start, plan_state=plan, advance_clock=False,
        ).run()
        for repo_id in repo_ids:
            tsr.record_publication(repo_id, report.finished_at)
        self._sync_replicas(report.finished_at, repo_ids, schedule=schedule)
        return report

    def _pull_wave(self, fleet: ClientFleet, clients: list,
                   event: TraceEvent, start: float,
                   session: PlanFetchSession,
                   schedule: ParallelTransferSchedule):
        """Issue one pull wave at ``start`` and tally its outcome."""
        fleet.set_as_of(start)
        if self._replicas:
            self._heartbeat_replicas(start, schedule=schedule)
            fleet.set_replica_refusals(self._freshness_refusals(start))
        session.begin_wave(start)
        # Event-local RNG (like publish batches): a wave's install choices
        # depend on the trace seed and the event's own seed, never on
        # ambient state or other waves' draws.
        wave_rng = random.Random(
            f"trace-pull:{self._trace.seed}:{event.seed}:{event.at}")
        wire_before = session.total_wire_bytes
        outcome = run_pull_wave(
            clients, wave_rng, event.installs_per_client,
            plan_session=session, tolerate_failures=True,
        )
        self._pull_wire_bytes.append(session.total_wire_bytes - wire_before)
        self._installs += outcome.installs
        self._failed_pulls += outcome.failed_pulls
        self._failed_installs += outcome.failed_installs
        return outcome

    def _report(self, fleet: ClientFleet, wall: float, horizon: float,
                publishes: list[tuple[float, int]], rounds: int,
                refresh_rounds: list[MultiTenantRefreshReport],
                timelines: dict[str, ClientTimeline],
                pull_latency: QuantileSketch,
                streaming: StreamingReplaySummary | None = None,
                ) -> TraceReplayReport:
        """Advance the clock by the replay's wall and build its report;
        materialized timelines are settled with the exact metrics."""
        for timeline in timelines.values():
            timeline.transitions.sort()
            timeline.staleness = staleness_seconds(
                publishes, timeline.transitions, horizon)
            timeline.availability = availability_latencies(
                publishes, timeline.transitions)
        self._scenario.clock.advance(wall)
        return TraceReplayReport(
            mode=self._mode,
            rounds=rounds,
            clients=fleet.size,
            wall_elapsed=wall,
            horizon=horizon,
            installs=self._installs,
            failed_pulls=self._failed_pulls,
            failed_installs=self._failed_installs,
            publishes=publishes,
            refresh_rounds=refresh_rounds,
            timelines=timelines,
            delta_updates=self._delta_updates,
            pull_wire_bytes=self._pull_wire_bytes,
            delta_stats=fleet.delta_stats().as_dict(),
            streaming=streaming,
            pull_latency=pull_latency,
            replicas=len(self._replicas),
            replica_refusals=self._replica_refusals,
            replica_sync_bytes=sum(r.sync_bytes for r in self._replicas),
        )

    def run(self) -> TraceReplayReport:
        if self._mode == "serial":
            return self._run_serial()
        return self._run_plan()

    # -- serial mode: the ablation baseline ---------------------------------

    def _run_serial(self) -> TraceReplayReport:
        """Every event runs to completion before the next may start: each
        refresh round and each pull wave gets a fresh schedule, solved as
        soon as the wave is issued, and a barrier carries the finish
        frontier to the next event."""
        scenario = self._scenario
        fleet = self._fleet()
        publishes = self._bootstrap()
        timelines = _timelines(fleet)
        refresh_rounds: list[MultiTenantRefreshReport] = []
        pull_latency = QuantileSketch()
        frontier = 0.0  # the barrier: last finish of any event so far
        for event in self._trace.iter_events():
            start = max(event.at, frontier)
            if event.kind == "refresh":
                _, plan = self._new_round_state()
                report = self._refresh_round(event, start, plan)
                refresh_rounds.append(report)
                frontier = max(frontier, report.finished_at)
            elif event.kind == "fleet_pull":
                clients = (fleet.clients if event.clients is None
                           else fleet.subset(event.clients))
                schedule = ParallelTransferSchedule(
                    downlink_bandwidth=self._capacity)
                self._link_replicas(schedule)
                session = PlanFetchSession(scenario.network, schedule)
                fleet.use_session(session)
                outcome = self._pull_wave(fleet, clients, event, start,
                                          session, schedule)
                timings = schedule.solve()
                for name, serial in outcome.served_serial.items():
                    key = outcome.index_keys.get(name)
                    landed = timings[key].finish if key is not None else start
                    timelines[name].transitions.append((landed, serial))
                frontier = max(frontier, start)
                for key in outcome.last_keys.values():
                    finish = timings[key].finish
                    frontier = max(frontier, finish)
                    if finish >= start:
                        pull_latency.add(finish - start)
            else:
                self._upstream(event, publishes)
        return self._report(
            fleet, frontier, max(self._trace.horizon, frontier), publishes,
            len(refresh_rounds), refresh_rounds, timelines, pull_latency)

    # -- the plan engine: interleaved and streaming -------------------------

    def _stale_window_width(self) -> float:
        """Window width for the time-resolved folds (default: the trace's
        round interval, else the horizon split evenly over its rounds)."""
        if self._window_seconds is not None:
            if self._window_seconds <= 0:
                raise ValueError(
                    f"window_seconds must be positive: {self._window_seconds}")
            return self._window_seconds
        interval = getattr(self._trace, "interval", None)
        if interval:
            return float(interval)
        width = self._trace.horizon / max(1, self._trace.rounds())
        return width if width > 0 else 1.0

    def _run_plan(self) -> TraceReplayReport:
        """One :class:`ScheduleStream` carries every transfer of the trace.

        ``streaming`` folds index landings into online aggregates and
        retires clients after their final wave; ``interleaved`` boots an
        eager fleet, keeps every client's timeline and every round's
        report, and settles the exact metrics at the end.
        """
        scenario = self._scenario
        trace = self._trace
        tsr = scenario.tsr
        materialize = self._mode == "interleaved"

        schedule, plan = self._new_round_state()
        self._link_replicas(schedule)  # before the stream freezes links
        # One enclave memo window spans the whole plan: steady-state
        # rounds replay unchanged blobs' analyses at their recorded costs
        # instead of re-parsing them (host time only — every simulated
        # duration and per-round counter is unchanged).
        plan.persistent_enclave_memo = True
        # The concatenated enclave timeline grows O(trace).
        plan.keep_timeline = materialize
        scheduler = plan.scheduler
        stream = schedule.stream(0.0)
        session = PlanFetchSession(scenario.network, schedule)
        fleet = self._fleet(session, lazy=not materialize)
        final_wave = None if materialize else _final_waves(trace, fleet.size)
        publishes = self._bootstrap(schedule)

        refresh_rounds: list[MultiTenantRefreshReport] = []
        timelines = _timelines(fleet)
        refresh_totals = dict.fromkeys(("rounds", *_ROUND_COUNTERS), 0)
        pull_latency = QuantileSketch()

        # -- online metric folds, in flat per-client-index columns -------
        window = self._stale_window_width()
        clients = fleet.size
        seen = bytearray(clients)
        c_serial = array("q", [0]) * clients
        c_landed = array("d", [0.0]) * clients
        c_ptr = array("i", [0]) * clients
        c_stale = array("d", [0.0]) * clients
        #: Client indices in first-landing order (the close-out order).
        order = array("i")
        window_stale: list[float] = []
        window_avail: list[list[float]] = []
        avail_sketch = QuantileSketch()
        avail_sum = 0.0
        avail_count = 0
        avail_max = 0.0

        def first_newer(serial: int) -> float:
            """Instant of the first publish strictly newer than ``serial``
            (inf: the client is caught up with everything published)."""
            i = bisect_right(publishes, serial, key=itemgetter(1))
            return publishes[i][0] if i < len(publishes) else math.inf

        def charge_windows(a: float, b: float):
            i = int(a // window)
            while a < b:
                edge = (i + 1) * window
                segment = min(b, edge) - a
                if segment > 0:
                    while len(window_stale) <= i:
                        window_stale.append(0.0)
                    window_stale[i] += segment
                a = edge
                i += 1

        def fold(index: int, name: str, landed: float, serial: int):
            """One index landing: close the stale interval it ends (the
            telescoping sum of these equals :func:`staleness_seconds`
            exactly) and consume newly caught-up publishes."""
            nonlocal avail_sum, avail_count, avail_max
            if seen[index]:
                stale_from = max(c_landed[index],
                                 first_newer(c_serial[index]))
                if landed > stale_from:
                    c_stale[index] += landed - stale_from
                    charge_windows(stale_from, landed)
                ptr = c_ptr[index]
            else:
                seen[index] = 1
                order.append(index)
                ptr = 0
            c_serial[index] = serial
            c_landed[index] = landed
            while ptr < len(publishes) and publishes[ptr][1] <= serial:
                sample = landed - publishes[ptr][0]
                avail_sum += sample
                avail_count += 1
                if sample > avail_max:
                    avail_max = sample
                avail_sketch.add(sample)
                wi = int(publishes[ptr][0] // window)
                while len(window_avail) <= wi:
                    window_avail.append([0, 0.0, 0.0])
                cell = window_avail[wi]
                cell[0] += 1
                cell[1] += sample
                if sample > cell[2]:
                    cell[2] = sample
                ptr += 1
            c_ptr[index] = ptr

        def record(index: int, name: str, landed: float, serial: int):
            timelines[name].transitions.append((landed, serial))

        land = record if materialize else fold

        # -- drained-key actions + retirement countdown ------------------
        #: index-fetch key -> (client name, client index, serial served).
        mark_of: dict[object, tuple[str, int, int]] = {}
        #: last schedule key -> (client index, wave start).
        last_of: dict[object, tuple[int, float]] = {}
        pending_last: dict[int, int] = {}
        last_registered: dict[int, object] = {}
        final_issued = bytearray(clients)
        peak_live = 0
        peak_pending = 0

        def retire(index: int):
            pending_last.pop(index, None)
            last_registered.pop(index, None)
            fleet.retire(index, plan_session=session)

        def note_peaks():
            nonlocal peak_live, peak_pending
            peak_live = max(peak_live, stream.live_channels)
            peak_pending = max(peak_pending, stream.pending_items)

        def absorb(drained: dict):
            if drained:
                scheduler.retire_settled(drained)
                for key, timing in drained.items():
                    mark = mark_of.pop(key, None)
                    if mark is not None:
                        land(mark[1], mark[0], timing.finish, mark[2])
                    last = last_of.pop(key, None)
                    if last is not None:
                        index, started = last
                        pull_latency.add(timing.finish - started)
                        pending_last[index] -= 1
                        if not pending_last[index] and final_issued[index]:
                            retire(index)
            note_peaks()

        refresh_end = 0.0  # the latest refresh round's finish
        wave_ordinal = 0
        try:
            for event in trace.iter_events():
                stream.advance_to(event.at)
                absorb(stream.drain())
                start = event.at
                if event.kind == "refresh":
                    report = self._refresh_round(event, start, plan,
                                                 schedule)
                    if materialize:
                        refresh_rounds.append(report)
                    refresh_totals["rounds"] += 1
                    for counter in _ROUND_COUNTERS:
                        refresh_totals[counter] += getattr(report, counter)
                    refresh_end = max(refresh_end, report.finished_at)
                elif event.kind == "fleet_pull":
                    indices = (range(clients) if event.clients is None
                               else event.clients)
                    wave = fleet.subset(indices)
                    outcome = self._pull_wave(fleet, wave, event, start,
                                              session, schedule)
                    index_of = {client.name: i
                                for i, client in zip(indices, wave)}
                    for name, serial in outcome.served_serial.items():
                        key = outcome.index_keys.get(name)
                        if key is None:
                            # No fetch was scheduled (e.g. answered from
                            # local state): the index lands at wave start.
                            land(index_of[name], name, start, serial)
                        else:
                            mark_of[key] = (name, index_of[name], serial)
                    for name, key in outcome.last_keys.items():
                        index = index_of[name]
                        # A failed pull can report a *previous* wave's key
                        # (possibly already drained): never re-register it.
                        if key == last_registered.get(index):
                            continue
                        last_registered[index] = key
                        last_of[key] = (index, start)
                        pending_last[index] = pending_last.get(index, 0) + 1
                    if final_wave is not None:
                        for index in indices:
                            if final_wave[index] == wave_ordinal:
                                final_issued[index] = 1
                                if not pending_last.get(index):
                                    retire(index)
                    wave_ordinal += 1
                    note_peaks()
                else:
                    self._upstream(event, publishes)
        finally:
            if refresh_totals["rounds"]:
                # The rounds kept one persistent memo window open; close
                # it so later standalone refreshes start cold.
                tsr._enclave.ecall("end_shared_refresh")

        # Resolve the tail: everything still pending finishes untouched by
        # any future load, so one O(active) clone solve fixes it.
        final_timings = stream.solve_pending()
        for finish, name, index, serial in sorted(
                (final_timings[key].finish, name, index, serial)
                for key, (name, index, serial) in mark_of.items()):
            land(index, name, finish, serial)
        for key, (index, started) in last_of.items():
            timing = final_timings.get(key)
            if timing is not None:
                pull_latency.add(timing.finish - started)
        wall = max([stream.max_finish, refresh_end, plan.enclave_free,
                    *plan.shard_free.values(),
                    *(timing.finish for timing in final_timings.values())])
        horizon = max(trace.horizon, wall)
        if materialize:
            return self._report(
                fleet, wall, horizon, publishes, refresh_totals["rounds"],
                refresh_rounds, timelines, pull_latency)

        # Horizon close-out: charge each client's still-open stale tail.
        stale_sketch = QuantileSketch()
        stale_sum = 0.0
        stale_max = 0.0
        for index in order:
            total = c_stale[index]
            open_from = max(c_landed[index], first_newer(c_serial[index]))
            if horizon > open_from:
                total += horizon - open_from
                charge_windows(open_from, horizon)
            stale_sum += total
            stale_max = max(stale_max, total)
            stale_sketch.add(total)
        never_pulled = clients - len(order)
        if never_pulled:
            stale_sketch.add(0.0, weight=float(never_pulled))
        summary = StreamingReplaySummary(
            staleness_sum=stale_sum,
            staleness_max=stale_max,
            staleness_sketch=stale_sketch,
            availability_sum=avail_sum,
            availability_count=avail_count,
            availability_max=avail_max,
            availability_sketch=avail_sketch,
            window_seconds=window,
            window_stale_seconds=window_stale,
            window_availability=window_avail,
            refresh_totals=refresh_totals,
            clients_booted=fleet.booted_total,
            peak_live_channels=peak_live,
            peak_pending_items=peak_pending,
            final_stream_stats=stream.stats(),
        )
        return self._report(fleet, wall, horizon, publishes,
                            refresh_totals["rounds"], [], {}, pull_latency,
                            summary)


def replay_trace(scenario: Scenario, trace: Trace, clients: int = 8,
                 mode: str = "interleaved", **kwargs) -> TraceReplayReport:
    """Convenience wrapper: build a :class:`TraceReplay` and run it."""
    return TraceReplay(scenario, trace, clients=clients, mode=mode,
                       **kwargs).run()
