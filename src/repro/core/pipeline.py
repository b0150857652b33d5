"""Batch mirror downloads on a live transfer schedule.

The paper's refresh fetches packages one at a time from one mirror.
:class:`MirrorDownloadScheduler` instead spreads a refresh's downloads
over one channel per policy mirror, each at the mirror's own serving
bandwidth, all sharing the TSR host's downlink (max-min fairly, via the
incremental solver in :class:`repro.simnet.schedule.ParallelTransferSchedule`).

Work arrives in *batches*: each batch is one repository's changed set
(names + quorum-pinned sizes/hashes + the policy mirrors allowed to
serve it), assigned longest-processing-time-first onto the least-loaded
channel and verified/retried against the live schedule.  One scheduler
carries the batches of several repositories, and of several rounds, on
one shared schedule: the refresh orchestrator
(:mod:`repro.core.orchestrator`, which also runs the single-repository
``refresh(pipelined=True)``) interleaves tenants' downloads this way,
and the trace replay (:mod:`repro.workload.replay`) keeps one scheduler
across rounds.

Downloads are verified against the quorum-validated index before the
enclave sees them; a corrupt or missing blob is retried on another
policy mirror, so the verdicts the enclave reaches do not depend on the
schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.service import matches_expected
from repro.simnet.network import Request
from repro.simnet.schedule import ParallelTransferSchedule
from repro.util.errors import NetworkError

#: Default request size for a package fetch (control message).
_REQUEST_BYTES = 256


@dataclass(eq=False)  # identity semantics: batches key the retry maps
class DownloadBatch:
    """One repository's download work-list on a shared mirror schedule.

    ``not_before`` is the earliest simulated instant any transfer of this
    batch may start (the moment its quorum information became available);
    results are filled by :meth:`MirrorDownloadScheduler.resolve`.
    """

    batch_id: int
    names: list[str]
    expected: dict[str, dict]
    #: Mirrors allowed to serve this batch, fastest-first (retry pool).
    mirrors: list[dict]
    #: The fan-out subset initial assignments spread over.
    fanout: list[dict]
    not_before: float = 0.0
    #: Best-effort batches (speculative/optimistic fetches) record a
    #: mirror-exhaustion failure in ``failed`` instead of raising.
    best_effort: bool = False
    #: Filled by ``resolve``:
    fetched: dict[str, bytes] = field(default_factory=dict)
    durations: dict[str, float] = field(default_factory=dict)
    finishes: dict[str, float] = field(default_factory=dict)
    assignments: dict[str, str] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)
    #: Marked by :meth:`MirrorDownloadScheduler.settle_round` once the
    #: refresh round that issued this batch has consumed its results:
    #: later ``resolve`` calls stop recomputing it (nobody reads a past
    #: round's finishes), and — on a streaming schedule — its keys may
    #: be retired from the live core as they drain.
    settled: bool = False


class MirrorDownloadScheduler:
    """Batch downloads over per-mirror channels on one live schedule.

    Assignment is longest-processing-time-first onto the channel with the
    least estimated backlog (sizes come from the quorum-validated index,
    so the estimate needs no extra round trips).  Failed or corrupt
    transfers are reinserted into the live schedule on the earliest-free
    not-yet-tried channel — starting no earlier than the moment the
    failure was detected — and the schedule re-solved, so retries overlap
    with still-running downloads instead of running in a serial pass
    after the parallel phase.

    Timing guarantees lean on the schedule's monotonicity: adding load
    never makes an existing stream finish *earlier*, so a gap computed
    against the solved state at decision time (a batch's ``not_before``,
    a retry's detection instant) still holds after later batches and
    retries pile more contention onto the link.
    """

    def __init__(self, service,
                 schedule: ParallelTransferSchedule | None = None,
                 channel_key=None):
        self._service = service
        self._network = service._network
        self._src = self._network.host(service.hostname)
        self._schedule = schedule or ParallelTransferSchedule(
            downlink_bandwidth=self._src.downlink_bandwidth
        )
        #: Mirror hostname -> schedule channel (override to namespace the
        #: download channels on a schedule shared with other traffic).
        self._channel_key = channel_key or (lambda hostname: hostname)
        self._hosts: dict[str, object] = {}
        self._setup_est: dict[str, float] = {}
        #: Estimated backlog end per mirror hostname (assignment heuristic).
        self._estimates: dict[str, float] = {}
        #: Not-yet-retired schedule keys per mirror hostname.
        self._channel_items: dict[str, set] = {}
        self._batches: list[DownloadBatch] = []
        self._next_batch_id = 0
        #: (batch, name) -> bookkeeping for the retry loop.
        self._tried: dict[tuple, set[str]] = {}
        self._attempt_keys: dict[tuple, list] = {}
        self._candidate: dict[tuple, bytes] = {}
        self._success_key: dict[tuple, object] = {}
        self._last_error: dict[tuple, object] = {}
        self._pending: list[tuple] = []
        self._attempt = 0
        #: Schedule key -> (hostname, owning item); consumed by
        #: :meth:`retire_settled`.
        self._key_info: dict[object, tuple] = {}
        #: Settled batch -> its keys not yet drained from the stream
        #: (the batch's bookkeeping is GC'd when the set empties).
        self._undrained: dict[DownloadBatch, set] = {}
        #: Per-hostname floor under retired keys: the latest finish ever
        #: retired from that channel, so ``channel_frees`` stays exact
        #: after the keys are gone.
        self._retired_free: dict[str, float] = {}

    @property
    def schedule(self) -> ParallelTransferSchedule:
        return self._schedule

    @property
    def batches(self) -> list[DownloadBatch]:
        return list(self._batches)

    def _register_mirrors(self, mirrors: list[dict]):
        for mirror in mirrors:
            hostname = mirror["hostname"]
            if hostname in self._hosts:
                continue
            host = self._network.host(hostname)
            self._hosts[hostname] = host
            self._setup_est[hostname] = (
                self._network.latency.base_rtt(self._src.continent,
                                               host.continent)
                + self._network.latency.transfer_time(_REQUEST_BYTES,
                                                      host.bandwidth)
                + host.processing_time + host.extra_delay
            )
            self._channel_items.setdefault(hostname, set())

    def channel_frees(self) -> dict[str, float]:
        """Actual per-mirror backlog ends from a fresh solve."""
        if not any(self._channel_items.values()):
            return {hostname: self._retired_free.get(hostname, 0.0)
                    for hostname in self._hosts}
        timings = self._schedule.solve()
        return {
            hostname: max((timings[key].finish for key in items),
                          default=0.0) if items
            else self._retired_free.get(hostname, 0.0)
            for hostname, items in self._channel_items.items()
        }

    def add_batch(self, names: list[str], expected: dict[str, dict],
                  mirrors: list[dict], fanout: list[dict] | None = None,
                  not_before: float = 0.0,
                  best_effort: bool = False) -> DownloadBatch:
        """Assign and issue one repository's downloads.

        ``not_before`` delays the batch's first transfer per channel to at
        least that schedule offset: the gap is computed against the
        *solved* backlog of each channel at add time, and later additions
        can only push transfers later, never earlier — so a batch issued
        on quorum information available at time T never moves bytes
        before T.
        """
        batch = DownloadBatch(
            batch_id=self._next_batch_id,
            names=list(names),
            expected=expected,
            mirrors=list(mirrors),
            fanout=list(fanout if fanout is not None else mirrors),
            not_before=not_before,
            best_effort=best_effort,
        )
        self._next_batch_id += 1
        self._batches.append(batch)
        self._register_mirrors(batch.mirrors)

        base_free = (self.channel_frees() if not_before > 0.0
                     else {h: 0.0 for h in self._hosts})
        for mirror in batch.fanout:
            self._estimates.setdefault(mirror["hostname"], 0.0)

        fanout_names = {m["hostname"] for m in batch.fanout}
        queues: dict[str, list[str]] = {h: [] for h in fanout_names}
        estimates = self._estimates
        for name in sorted(batch.names,
                           key=lambda n: -batch.expected[n]["size"]):
            hostname = min(fanout_names,
                           key=lambda h: (estimates[h], h))
            queues[hostname].append(name)
            estimates[hostname] += (
                self._setup_est[hostname]
                + batch.expected[name]["size"] / self._hosts[hostname].bandwidth
            )

        gap_done: set[str] = set()
        for mirror in batch.fanout:
            hostname = mirror["hostname"]
            for name in queues[hostname]:
                item = (batch, name)
                self._tried[item] = set()
                self._attempt_keys[item] = []
                extra_wait = 0.0
                if hostname not in gap_done:
                    gap_done.add(hostname)
                    extra_wait = max(0.0, batch.not_before
                                     - base_free.get(hostname, 0.0))
                    estimates[hostname] += extra_wait
                if self._issue(item, hostname, 0, extra_wait) is None:
                    self._pending.append(item)
        return batch

    def _issue(self, item: tuple, hostname: str, attempt: int,
               extra_wait: float):
        """Probe one fetch and enqueue it (or its timeout stall)."""
        batch, name = item
        self._tried[item].add(hostname)
        channel = self._channel_key(hostname)
        try:
            probe = self._network.probe(
                self._service.hostname,
                Request(hostname, "get_package", payload=name),
            )
        except NetworkError as exc:
            # A dead mirror stalls its channel for the timeout.
            self._last_error[item] = exc
            key = ("stall", batch.batch_id, attempt, name)
            self._schedule.enqueue(channel, key,
                                   extra_wait + self._network.timeout, 0,
                                   self._hosts[hostname].bandwidth)
            self._attempt_keys[item].append(key)
            self._channel_items[hostname].add(key)
            self._key_info[key] = (hostname, item)
            return None
        key = (batch.batch_id, attempt, name)
        self._schedule.enqueue(channel, key, extra_wait + probe.setup,
                               probe.size_bytes, probe.bandwidth)
        self._attempt_keys[item].append(key)
        self._channel_items[hostname].add(key)
        self._key_info[key] = (hostname, item)
        self._candidate[item] = probe.payload
        batch.assignments[name] = hostname
        self._success_key[item] = key
        return probe

    def resolve(self) -> dict:
        """Solve, verify, and retry until every batch item lands.

        Fills each batch's ``fetched``/``durations``/``finishes``/
        ``assignments`` and returns the final schedule timings.  Raises
        :class:`NetworkError` when some package stays unavailable after
        every allowed mirror was tried.
        """
        timings = self._schedule.solve()
        while True:
            # Verify against the quorum index; corrupt blobs join retries.
            for item in sorted(self._candidate,
                               key=lambda i: (i[0].batch_id, i[1])):
                batch, name = item
                if matches_expected(self._candidate[item],
                                    batch.expected[name]):
                    batch.fetched[name] = self._candidate[item]
                else:
                    self._last_error[item] = (
                        f"mirror {batch.assignments[name]} served a blob "
                        "that does not match the quorum-validated index"
                    )
                    self._pending.append(item)
                    del batch.assignments[name]
                    del self._success_key[item]
            self._candidate.clear()
            if not self._pending:
                break
            channel_free = {
                hostname: max((timings[key].finish for key in items),
                              default=0.0) if items
                else self._retired_free.get(hostname, 0.0)
                for hostname, items in self._channel_items.items()
            }
            retry_now = sorted(
                set(self._pending),
                key=lambda i: (timings[self._attempt_keys[i][-1]].finish,
                               i[0].batch_id, i[1]),
            )
            self._pending = []
            self._attempt += 1
            for item in retry_now:
                batch, name = item
                detect = timings[self._attempt_keys[item][-1]].finish
                eligible = [m["hostname"] for m in batch.mirrors
                            if m["hostname"] not in self._tried[item]]
                if not eligible:
                    reason = (
                        f"package {name!r} unavailable from every policy "
                        f"mirror: {self._last_error.get(item)}"
                    )
                    if batch.best_effort:
                        batch.failed[name] = reason
                        continue
                    raise NetworkError(reason)
                hostname = min(eligible,
                               key=lambda h: (channel_free[h], h))
                extra_wait = max(0.0, detect - channel_free[hostname])
                probe = self._issue(item, hostname, self._attempt, extra_wait)
                if probe is None:
                    channel_free[hostname] += \
                        extra_wait + self._network.timeout
                    self._pending.append(item)
                else:
                    channel_free[hostname] += (
                        extra_wait + probe.setup
                        + probe.size_bytes / probe.bandwidth
                    )
            timings = self._schedule.solve()

        # (Re)compute from the *current* timings: a later resolve with
        # extra load can shift earlier transfers, never the other way.
        # Settled batches are skipped — their round already consumed the
        # results, and nothing reads a past round's finishes again (on a
        # streaming schedule their timings may already be drained).
        for batch in self._batches:
            if batch.settled:
                continue
            for name in batch.names:
                item = (batch, name)
                if item not in self._success_key:
                    continue  # best-effort failure, recorded in .failed
                batch.durations[name] = sum(
                    timings[key].duration
                    for key in self._attempt_keys[item]
                )
                batch.finishes[name] = timings[self._success_key[item]].finish
        return timings

    # -- streaming retirement ----------------------------------------------

    def settle_round(self):
        """Freeze every open batch: the round that issued them is over.

        Safe in every mode (a settled batch is merely excluded from
        future recomputation); on a streaming schedule it additionally
        licenses :meth:`retire_settled` to drop the batch's keys as the
        stream drains them.
        """
        for batch in self._batches:
            if batch.settled:
                continue
            batch.settled = True
            self._undrained[batch] = {
                key
                for name in batch.names
                for key in self._attempt_keys.get((batch, name), ())
            }
            if not self._undrained[batch]:
                self._gc_batch(batch)

    def retire_settled(self, drained: dict):
        """Drop settled keys the stream has drained; GC empty batches.

        ``drained`` is a drained-timings dict (key -> timing); keys not
        belonging to this scheduler are ignored.  Serial channels finish
        their items in queue order, so the per-hostname ``_retired_free``
        floor — the latest retired finish — can only be overtaken by the
        keys still queued, never undercut.
        """
        key_info = self._key_info
        for key, timing in drained.items():
            info = key_info.pop(key, None)
            if info is None:
                continue
            hostname, item = info
            self._channel_items[hostname].discard(key)
            if timing.finish > self._retired_free.get(hostname, 0.0):
                self._retired_free[hostname] = timing.finish
            batch = item[0]
            undrained = self._undrained.get(batch)
            if undrained is not None:
                undrained.discard(key)
                if not undrained:
                    self._gc_batch(batch)

    def _gc_batch(self, batch: DownloadBatch):
        """Forget a fully drained batch's retry bookkeeping."""
        del self._undrained[batch]
        self._batches.remove(batch)
        for name in batch.names:
            item = (batch, name)
            self._tried.pop(item, None)
            self._attempt_keys.pop(item, None)
            self._candidate.pop(item, None)
            self._success_key.pop(item, None)
            self._last_error.pop(item, None)
