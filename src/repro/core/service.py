"""The host-side TSR service (paper Figure 6, component D).

Runs on an untrusted cloud machine: performs network and disk I/O, hosts
the enclave, and exposes the repository API on the simulated network.
Trust-relevant decisions all happen inside the enclave program; the service
moves bytes.

Time accounting: network and disk operations advance the simulated clock;
sanitization is *really executed* (real CPU work) and its measured duration
is injected into the simulated clock, scaled by the EPC cost model when SGX
is enabled.  EXPERIMENTS.md documents this split.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.cache import PackageCache
from repro.core.freshness import FreshnessManager
from repro.core.policy import SecurityPolicy
from repro.core.program import TsrProgram
from repro.core.sanitizer import SanitizationRejected, SanitizationResult
from repro.crypto.hashes import sha256_hex
from repro.sgx.enclave import Enclave
from repro.sgx.epc import EpcModel
from repro.sgx.platform import SgxCpu
from repro.simnet.latency import (
    LOCAL_DISK_BANDWIDTH_BYTES_PER_S,
    LOCAL_DISK_SEEK_S,
)
from repro.simnet.network import Host, Network, Request
from repro.tpm.device import Tpm
from repro.util.errors import NetworkError, PolicyError, QuorumError, RollbackError

SEALED_STATE_PATH = "/var/lib/tsr/state.sealed"


def matches_expected(blob: bytes, expected: dict) -> bool:
    """Does a blob match its quorum-validated index entry (size + hash)?"""
    return len(blob) == expected["size"] \
        and sha256_hex(blob) == expected["sha256"]


@dataclass
class RefreshReport:
    """What one repository refresh did (drives Table 3 and Fig. 10)."""

    serial: int
    changed_packages: list[str]
    sanitized: int
    rejected: list[tuple[str, str]]
    downloaded_bytes: int
    quorum_elapsed: float
    download_elapsed: float
    sanitize_elapsed: float
    insecure_findings: list[tuple[str, str]] = field(default_factory=list)
    results: list[SanitizationResult] = field(default_factory=list)
    #: Simulated wall-clock of the whole refresh.  In sequential mode the
    #: phases simply add up; the orchestrated (pipelined) engine overlaps
    #: them, so its wall-clock is recorded explicitly and is less than
    #: the phase sum.
    wall_elapsed: float | None = None
    #: This refresh ran on the orchestrator (``refresh(pipelined=True)``
    #: or a multi-tenant plan) rather than the phased path.
    pipelined: bool = False
    #: Package name -> serving mirror (pipelined downloads only).
    mirror_assignments: dict[str, str] = field(default_factory=dict)
    #: Packages sanitized before the catalog barrier (pipelined only).
    sanitized_early: int = 0
    #: Packages whose download was satisfied by another tenant's transfer
    #: or the content-addressed cache, and the bytes that did not have to
    #: move again because of it.
    deduped_downloads: int = 0
    deduped_download_bytes: int = 0
    #: Packages whose catalog scan replayed a memoized delta.
    deduped_scans: int = 0
    #: Packages whose sanitization reused a shared content analysis.
    shared_sanitize: int = 0
    #: Downloads that started on first-wave entry agreement, while quorum
    #: extension reads were still in flight.
    interleaved_downloads: int = 0
    #: Re-downloads forced because the cached blob had been evicted.
    evicted_redownloads: int = 0
    #: Cached blobs whose content analysis was pre-scanned on the enclave
    #: while this repository's quorum was still widening (zero network).
    prescanned: int = 0
    #: Simulated seconds this repository's serving-induced re-sanitize
    #: jobs spent between being queued (an evicted-blob serve) and
    #: leaving the enclave channel this round — the measurable coupling
    #: of serving load back into refresh wall-clock (orchestrated plans).
    resanitize_wait_s: float = 0.0

    @property
    def phase_sum(self) -> float:
        """Resource-seconds across phases (ignores any overlap)."""
        return self.quorum_elapsed + self.download_elapsed + self.sanitize_elapsed

    @property
    def total_elapsed(self) -> float:
        """Simulated wall-clock this refresh took end to end."""
        if self.wall_elapsed is not None:
            return self.wall_elapsed
        return self.phase_sum

    @property
    def overlap_saved(self) -> float:
        """Seconds the pipeline saved versus running the phases back to back."""
        return max(0.0, self.phase_sum - self.total_elapsed)


@dataclass(eq=False)
class ResanitizeJob:
    """One serving-induced enclave job.

    A time-stamped serve found the sanitized blob evicted from the disk
    cache: the simulation serves the publication's captured copy (bytes
    are identical either way), but a real TSR would have to re-run
    sanitization to restore its cached artifact — so the serve queues
    this job, and the next orchestrated refresh round drains the queue
    FIFO on the serial enclave channel *ahead of* that round's own
    sanitize work.  Serving load thereby couples back into refresh
    wall-clock, which is exactly the number the replica tier wins back.
    """

    repo_id: str
    name: str
    #: Plan instant of the serve that queued the job.
    queued_at: float
    #: Simulated enclave seconds the job occupies (the last measured
    #: sanitize duration for this package, or a bytes-rate estimate when
    #: this deployment never sanitized it).
    duration: float
    size_bytes: int
    #: The verified published blob to restore into the cache.
    blob: bytes


@dataclass
class Publication:
    """One tenant repository's served state, frozen at a plan instant.

    The multi-round trace replay (:mod:`repro.workload.replay`) measures
    *staleness*: clients pulling at plan time T must see the newest signed
    index whose refresh had **finished** by T — not whatever the enclave
    happens to hold while a later round is still in flight.  Refresh
    rounds therefore :meth:`~TrustedSoftwareRepository.record_publication`
    their outputs with the round's completion offset, and time-stamped
    client requests (``as_of``) are served from the publication log.
    Blob maps share unchanged entries with the previous publication, so a
    20-round log does not copy the repository 20 times.
    """

    available_at: float
    serial: int
    index_bytes: bytes
    #: package name -> (size, sha256) pinned by the signed index.
    entries: dict[str, tuple[int, str]]
    #: package name -> sanitized blob (entries absent when the blob was
    #: already evicted at capture time — those fail closed when served).
    blobs: dict[str, bytes]


@dataclass(frozen=True)
class RepoConfig:
    """Resolved per-repository refresh configuration.

    Hoisted out of :meth:`TrustedSoftwareRepository.refresh`, which used
    to re-export the enclave state, re-parse the policy YAML, and re-sort
    the mirror set on *every* call.  Policies are immutable after
    deployment, so this is resolved once per repository and shared by the
    phased refresh path and the orchestrator (the cache is dropped on
    :meth:`TrustedSoftwareRepository.restart`).
    """

    repo_id: str
    #: The parsed policy (host-deployed, nothing secret in it): the
    #: orchestrator needs the signer keys to validate index responses
    #: host-side before counting optimistic entry votes, and the package
    #: filter to skip downloads the enclave would discard anyway.
    policy: SecurityPolicy
    #: Policy mirrors in policy order ({"hostname", "continent"} dicts).
    mirrors: tuple[dict, ...]
    #: The same mirrors, fastest-first from the TSR host.
    ordered_mirrors: tuple[dict, ...]
    fault_tolerance: int
    quorum_needed: int


class TrustedSoftwareRepository:
    """A TSR deployment: enclave + cache + network endpoint."""

    def __init__(self, hostname: str, network: Network, cpu: SgxCpu, tpm: Tpm,
                 continent=None, key_bits: int = 1024,
                 sgx_enabled: bool = True, epc_model: EpcModel | None = None,
                 cache: PackageCache | None = None,
                 delta_log_depth: int = 8):
        from repro.simnet.latency import Continent

        self.hostname = hostname
        self._network = network
        self._cpu = cpu
        self._tpm = tpm
        self._key_bits = key_bits
        self.sgx_enabled = sgx_enabled
        self.epc_model = epc_model or EpcModel()
        self.cache = cache or PackageCache()
        self._repo_configs: dict[str, RepoConfig] = {}
        #: repo_id -> publications ordered by ``available_at`` (replay).
        self._publications: dict[str, list[Publication]] = {}
        #: Time-stamped serving: cache hits vs publication-copy fallbacks
        #: (a fallback is a serve the cache could not satisfy — evicted or
        #: already overwritten by a newer round).  Every fallback queues a
        #: re-sanitize job, so ``serve_fallbacks`` counts *queued*
        #: re-sanitizes: a second fallback serve of an already-queued
        #: package rides the pending job and is not recounted.
        self.serve_cache_hits = 0
        self.serve_fallbacks = 0
        #: Serving-debt policy: when True (default), every fallback serve
        #: queues a re-sanitize job that the next orchestrated refresh
        #: drains on the serial enclave channel — serving load couples
        #: into refresh wall-clock.  False serves the captured copy
        #: without restoring the cached artifact (fallbacks still count);
        #: benches that compare refresh *scheduling* disable it so both
        #: arms carry identical enclave work.
        self.resanitize_serves = True
        #: FIFO re-sanitize queue plus the (repo, package) keys currently
        #: in it; drained by :meth:`take_resanitize_jobs`.
        self._resanitize_jobs: list[ResanitizeJob] = []
        self._resanitize_queued: set[tuple[str, str]] = set()
        #: (repo_id, package) -> last measured simulated sanitize
        #: duration, plus an aggregate seconds-per-byte rate for packages
        #: this process has not sanitized yet.
        self._sanitize_cost: dict[tuple[str, str], float] = {}
        self._sanitize_rate_s = 0.0
        self._sanitize_rate_bytes = 0
        #: How many publications :meth:`record_publication` retains per
        #: repository.  ``None`` resolves to ``delta_log_depth + 1`` at
        #: prune time (so post-construction depth changes are honoured);
        #: the newest publication is always kept.
        self.publication_retention: int | None = None
        #: Full index pulls forced because the client's base publication
        #: had been pruned from the bounded log (plus package full pulls
        #: whose delta base manifest was pruned with its publication).
        self.retention_full_pulls = 0
        #: repo_id -> newest pruned publication serial.
        self._pruned_through: dict[str, int] = {}
        #: Chunk-manifest shas dropped by retention pruning (distinguishes
        #: a pruned base from one this TSR never published).
        self._pruned_manifest_shas: set[str] = set()
        #: How many publications back the delta endpoints will diff
        #: against (the publication-log depth bound: clients further
        #: behind get a full pull).  ``0`` disables delta serving.
        self.delta_log_depth = delta_log_depth
        #: Delta-serving accounting: envelopes served by kind, fallback
        #: reasons, and the wire bytes deltas saved vs full responses.
        self.delta_index_serves = 0
        self.delta_index_unchanged = 0
        self.delta_index_fallbacks: dict[str, int] = {}
        self.delta_package_serves = 0
        self.delta_package_fallbacks: dict[str, int] = {}
        self.delta_bytes_saved = 0
        #: (repo_id, base_serial, target_serial) -> index delta envelope;
        #: (base_sha, target_sha) -> package delta envelope.  N clients at
        #: the same base cost one diff computation per round, not N.
        self._index_delta_memo: dict[tuple[str, int, int], bytes] = {}
        self._package_delta_memo: dict[tuple[str, str], bytes | None] = {}
        #: (repo_id, serial) -> parsed publication index (diffing needs
        #: entries; same-serial publications carry byte-identical index
        #: bytes, and serial keys survive retention pruning's position
        #: shifts where log positions would not).
        self._publication_indexes: dict[tuple[str, int], object] = {}
        self._freshness = FreshnessManager(tpm)
        self._enclave = Enclave(cpu, TsrProgram, key_bits=key_bits)
        network.add_host(Host(
            name=hostname,
            continent=continent or Continent.EUROPE,
            handler=self._handle_request,
        ))

    # -- client-facing API (network handler) ---------------------------------------

    def _handle_request(self, operation: str, payload: object) -> tuple[object, int]:
        if operation == "deploy_policy":
            response = self.deploy_policy(str(payload))
            return response, 2048
        if operation == "get_index":
            if isinstance(payload, dict) and payload.get("as_of") is not None:
                blob = self.index_bytes_at(payload["repo"], payload["as_of"])
            else:
                repo_id = (payload["repo"] if isinstance(payload, dict)
                           else str(payload))
                blob = self._enclave.ecall("sanitized_index_bytes", repo_id)
            return blob, len(blob)
        if operation == "get_package":
            repo_id = payload["repo"]
            name = payload["name"]
            if payload.get("as_of") is not None:
                blob = self.serve_package_at(repo_id, name, payload["as_of"])
            else:
                blob = self.serve_package(repo_id, name)
            return blob, len(blob)
        if operation == "get_index_delta":
            blob = self.index_delta_at(payload["repo"], payload["base_serial"],
                                       payload.get("as_of"))
            return blob, len(blob)
        if operation == "get_package_delta":
            blob = self.package_delta_at(payload["repo"], payload["name"],
                                         payload["base_sha256"],
                                         payload.get("as_of"))
            return blob, len(blob)
        if operation == "attest":
            return self._enclave.ecall("quote_for_repo", str(payload)), 2048
        raise NetworkError(f"TSR {self.hostname}: unknown operation {operation!r}")

    # -- policy deployment -------------------------------------------------------------

    def deploy_policy(self, policy_yaml: str) -> dict:
        """Tenant onboarding: returns repo id, public key, and the quote."""
        deployed = self._enclave.ecall("deploy_policy", policy_yaml)
        attestation = self._enclave.ecall("quote_for_repo", deployed["repo_id"])
        deployed["quote"] = attestation["quote"]
        return deployed

    def repository_ids(self) -> list[str]:
        return self._enclave.ecall("repository_ids")

    def public_key_pem(self, repo_id: str) -> str:
        return self._enclave.ecall("public_key_pem", repo_id)

    # -- refresh (batch sanitization) ------------------------------------------------------

    def refresh(self, repo_id: str, pipelined: bool = False,
                max_streams: int | None = None) -> RefreshReport:
        """Quorum-read the upstream index, sanitize changed packages,
        publish a new sanitized index, and seal state.

        The default is the paper's strictly phased refresh (Table 3):
        quorum, then every download from one mirror at a time, then every
        sanitization.

        ``pipelined`` runs the same work as a one-repository
        :class:`~repro.core.orchestrator.RefreshOrchestrator` plan
        instead: downloads fan out over the policy mirrors concurrently
        (capped by ``max_streams``), start on entries the first quorum
        wave already agrees on, and sanitization starts while later
        packages are still in flight.  The plan first drains any pending
        serving-induced re-sanitize jobs, as orchestrated rounds do.
        Verdicts and sanitized bytes are identical to the phased path;
        only the schedule differs.  ``max_streams`` without ``pipelined``
        raises ``ValueError``: the phased path downloads one package at a
        time and has no streams to cap.
        """
        if max_streams is not None and not pipelined:
            raise ValueError("max_streams caps the pipelined refresh's "
                             "download streams; pass pipelined=True")
        if pipelined:
            from repro.core.orchestrator import RefreshOrchestrator

            plan = RefreshOrchestrator(self, [repo_id],
                                       max_streams=max_streams).run()
            report = plan.reports[repo_id]
            # The plan's makespan (what the clock advanced by) includes
            # the last cache-shard write, which the tenant's end omits.
            report.wall_elapsed = plan.wall_elapsed
            return report

        config = self.repo_config(repo_id)
        quorum_start = self._network.clock.now()
        quorum = self._read_quorum(repo_id, list(config.mirrors))
        quorum_elapsed = self._network.clock.now() - quorum_start

        download_elapsed = 0.0
        sanitize_elapsed = 0.0
        downloaded = 0
        evicted_redownloads = 0
        deduped_downloads = 0
        deduped_download_bytes = 0
        rejected: list[tuple[str, str]] = []
        results: list[SanitizationResult] = []

        # Pass 1: make sure every changed package blob is available locally
        # (cache hit, content-store hit, or mirror download), verified
        # against the quorum index.  Content-store hits are blobs another
        # tenant's orchestrated refresh already landed (cross-tenant
        # dedupe reaching the single-repo path).
        blobs: dict[str, bytes] = {}
        to_download: list[str] = []
        for name in quorum["changed"]:
            expected = quorum["expected"][name]
            blob, source, evicted = self.cache.lookup_blob(repo_id, name,
                                                           expected)
            if blob is not None:
                self._advance_disk_read(len(blob))
                blobs[name] = blob
                if source == "content":
                    deduped_downloads += 1
                    deduped_download_bytes += len(blob)
                continue
            if evicted:
                evicted_redownloads += 1
            to_download.append(name)

        for name in to_download:
            start = self._network.clock.now()
            blob = self._download_package(config.ordered_mirrors, name,
                                          quorum["expected"][name])
            download_elapsed += self._network.clock.now() - start
            downloaded += len(blob)
            self.cache.put_original(repo_id, name, blob)
            blobs[name] = blob

        # Pass 2: account catalog over the whole upstream set (first refresh)
        # or just the changed set (incremental refreshes keep the catalog).
        for name, blob in blobs.items():
            self._enclave.ecall("scan_for_accounts", repo_id, blob)
        catalog_info = self._enclave.ecall("finish_catalog", repo_id)

        # Pass 3: sanitize.
        for name, blob in blobs.items():
            try:
                result = self._enclave.ecall("sanitize_package", repo_id, blob)
            except SanitizationRejected as exc:
                rejected.append((name, exc.reason))
                continue
            duration = self._simulated_sanitize_time(result)
            sanitize_elapsed += duration
            self.note_sanitize_cost(repo_id, name, len(blob), duration)
            self.cache.put_sanitized(repo_id, name, result.blob)
            results.append(result)

        index_bytes = self._enclave.ecall("finalize_index", repo_id)
        del index_bytes  # published on demand via get_index
        self._seal_state()
        return RefreshReport(
            serial=quorum["serial"],
            changed_packages=list(quorum["changed"]),
            sanitized=len(results),
            rejected=rejected,
            downloaded_bytes=downloaded,
            quorum_elapsed=quorum_elapsed,
            download_elapsed=download_elapsed,
            sanitize_elapsed=sanitize_elapsed,
            insecure_findings=catalog_info["insecure_findings"],
            results=results,
            evicted_redownloads=evicted_redownloads,
            deduped_downloads=deduped_downloads,
            deduped_download_bytes=deduped_download_bytes,
        )

    def repo_config(self, repo_id: str) -> RepoConfig:
        """Resolved refresh configuration for one repository, cached.

        One enclave state export + policy parse + RTT sort per repository
        instead of per refresh; the orchestrator and the phased path
        share the same resolution.
        """
        config = self._repo_configs.get(repo_id)
        if config is None:
            deployed = self._enclave.ecall("export_state")
            policy = SecurityPolicy.from_yaml(deployed[repo_id]["policy_yaml"])
            mirrors = [
                {"hostname": m.hostname, "continent": m.continent}
                for m in policy.mirrors
            ]
            ordered = self.mirrors_by_rtt(mirrors)
            config = RepoConfig(
                repo_id=repo_id,
                policy=policy,
                mirrors=tuple(mirrors),
                ordered_mirrors=tuple(ordered),
                fault_tolerance=policy.fault_tolerance,
                quorum_needed=policy.fault_tolerance + 1,
            )
            self._repo_configs[repo_id] = config
        return config

    def _policy_mirrors(self, repo_id: str) -> list[dict]:
        return list(self.repo_config(repo_id).mirrors)

    def mirrors_by_rtt(self, mirrors: list[dict]) -> list[dict]:
        """Policy mirrors sorted fastest-first from this host."""
        src_continent = self._network.host(self.hostname).continent
        return sorted(
            mirrors,
            key=lambda m: self._network.latency.base_rtt(src_continent,
                                                         m["continent"]),
        )

    def _read_quorum(self, repo_id: str, mirrors: list[dict]) -> dict:
        """Contact the fastest f+1 mirrors, widening until the enclave
        accepts a quorum (section 4.5)."""
        config = self.repo_config(repo_id)
        if list(mirrors) == list(config.mirrors):
            ordered = list(config.ordered_mirrors)
        else:  # caller supplied a custom mirror set (tests)
            ordered = self.mirrors_by_rtt(mirrors)
        needed = (len(ordered) - 1) // 2 + 1
        responses: list[tuple[str, bytes]] = []
        cursor = needed
        batch = ordered[:needed]
        responses.extend(self._gather_indexes(batch))
        while True:
            try:
                return self._enclave.ecall("evaluate_quorum", repo_id,
                                           responses)
            except QuorumError:
                if cursor >= len(ordered):
                    raise
                responses.extend(self._gather_indexes([ordered[cursor]]))
                cursor += 1

    def _gather_indexes(self, mirrors: list[dict]) -> list[tuple[str, bytes]]:
        requests = [Request(m["hostname"], "get_index") for m in mirrors]
        responses = self._network.gather(self.hostname, requests)
        collected = []
        for mirror, response in zip(mirrors, responses):
            if isinstance(response, NetworkError):
                continue
            collected.append((mirror["hostname"], response.payload))
        return collected

    def _download_package(self, ordered: Sequence[dict], name: str,
                          expected: dict) -> bytes:
        """Packages come from any single mirror; the quorum-validated index
        pins their hash, so corrupt downloads are detected immediately and
        retried on the next-fastest mirror.  ``ordered`` lists the mirrors
        fastest-first (``RepoConfig.ordered_mirrors``)."""
        last_error: Exception | str | None = None
        for mirror in ordered:
            try:
                response = self._network.call(
                    self.hostname, Request(mirror["hostname"], "get_package",
                                           payload=name)
                )
            except NetworkError as exc:
                last_error = exc
                continue
            blob = response.payload
            if not matches_expected(blob, expected):
                last_error = (
                    f"mirror {mirror['hostname']} served a blob that does "
                    "not match the quorum-validated index"
                )
                continue
            return blob
        raise NetworkError(
            f"package {name!r} unavailable from every policy mirror: {last_error}"
        )

    # -- serving -----------------------------------------------------------------------------

    def serve_package(self, repo_id: str, name: str) -> bytes:
        """Serve a sanitized package from cache, re-verified in-enclave."""
        blob = self.cache.get_sanitized(repo_id, name)
        if blob is None:
            raise NetworkError(f"package {name!r} not available (not sanitized)")
        self._advance_disk_read(len(blob))
        self._enclave.ecall("check_cached_blob", repo_id, name, blob)
        return blob

    def get_index_bytes(self, repo_id: str) -> bytes:
        return self._enclave.ecall("sanitized_index_bytes", repo_id)

    # -- serving-induced re-sanitization --------------------------------------

    def note_sanitize_cost(self, repo_id: str, name: str, size_bytes: int,
                           duration: float):
        """Record one measured sanitize duration (the refresh paths call
        this) so a later re-sanitize of the same package is charged its
        real cost rather than a rate estimate."""
        self._sanitize_cost[(repo_id, name)] = duration
        self._sanitize_rate_s += duration
        self._sanitize_rate_bytes += size_bytes

    def _estimate_sanitize_cost(self, repo_id: str, name: str,
                                size_bytes: int) -> float:
        known = self._sanitize_cost.get((repo_id, name))
        if known is not None:
            return known
        if self._sanitize_rate_bytes > 0:
            return size_bytes * (self._sanitize_rate_s
                                 / self._sanitize_rate_bytes)
        return 0.0

    def _queue_resanitize(self, repo_id: str, name: str, blob: bytes,
                          at: float) -> bool:
        key = (repo_id, name)
        if key in self._resanitize_queued:
            return False
        self._resanitize_queued.add(key)
        self._resanitize_jobs.append(ResanitizeJob(
            repo_id=repo_id,
            name=name,
            queued_at=at,
            duration=self._estimate_sanitize_cost(repo_id, name, len(blob)),
            size_bytes=len(blob),
            blob=blob,
        ))
        return True

    def take_resanitize_jobs(self) -> list[ResanitizeJob]:
        """Drain the pending re-sanitize queue (FIFO by serve time).

        The orchestrated refresh calls this at round start and places the
        jobs on the serial enclave channel ahead of the round's own
        sanitize work; once drained, a package may queue again."""
        jobs = self._resanitize_jobs
        self._resanitize_jobs = []
        for job in jobs:
            self._resanitize_queued.discard((job.repo_id, job.name))
        return jobs

    def complete_resanitize(self, job: ResanitizeJob):
        """Restore a re-sanitized blob into the disk cache."""
        self.cache.put_sanitized(job.repo_id, job.name, job.blob)

    # -- versioned publications (multi-round replay) -------------------------

    def record_publication(self, repo_id: str,
                           available_at: float) -> Publication:
        """Freeze the repository's current served state at a plan instant.

        Captures the signed sanitized index plus the sanitized blobs it
        pins (sharing unchanged blob objects with the previous
        publication; reads bypass recency so snapshotting does not skew
        eviction).  ``available_at`` is clamped monotonic: a round that
        finished out of order can never publish *before* its predecessor.

        The log is bounded: once it exceeds ``publication_retention``
        (default ``delta_log_depth + 1`` — every base within the delta
        depth bound stays diffable), the oldest publications are pruned
        together with the chunk manifests only they pinned, and clients
        based that far back are answered with counted full pulls.
        """
        from repro.archive.index import parse_index_cached

        log = self._publications.setdefault(repo_id, [])
        index_bytes = self._enclave.ecall("sanitized_index_bytes", repo_id)
        index = parse_index_cached(index_bytes)
        previous = log[-1] if log else None
        blobs: dict[str, bytes] = {}
        for name, entry in index.entries.items():
            if previous is not None:
                kept = previous.blobs.get(name)
                if kept is not None and previous.entries.get(name) == \
                        (entry.size, entry.sha256):
                    blobs[name] = kept
                    continue
            blob = self.cache.peek_sanitized(repo_id, name)
            if blob is not None and len(blob) == entry.size \
                    and sha256_hex(blob) == entry.sha256:
                blobs[name] = blob
        if self.delta_log_depth > 0:
            # Retain chunk manifests of everything this publication pins:
            # the next round's delta serving diffs against these even
            # after the blobs themselves age out of the cache.
            for name, blob in blobs.items():
                self._ensure_manifest(index.entries[name].sha256, blob)
        if previous is not None:
            available_at = max(available_at, previous.available_at)
        publication = Publication(
            available_at=available_at,
            serial=index.serial,
            index_bytes=index_bytes,
            entries={name: (e.size, e.sha256)
                     for name, e in index.entries.items()},
            blobs=blobs,
        )
        log.append(publication)
        self._prune_publications(repo_id, log)
        return publication

    def _prune_publications(self, repo_id: str, log: list[Publication]):
        """Enforce the retention bound on one repository's log."""
        retention = self.publication_retention
        if retention is None:
            retention = self.delta_log_depth + 1
        if retention < 1:
            retention = 1
        while len(log) > retention:
            dropped = log.pop(0)
            if dropped.serial > self._pruned_through.get(repo_id, -1):
                self._pruned_through[repo_id] = dropped.serial
            self._publication_indexes.pop((repo_id, dropped.serial), None)
            retained = {sha for publication in log
                        for _, sha in publication.entries.values()}
            for _, sha in dropped.entries.values():
                if sha not in retained:
                    self.cache.drop_chunk_manifest(sha)
                    self._pruned_manifest_shas.add(sha)

    def publication_at(self, repo_id: str,
                       as_of: float) -> Publication | None:
        """Newest recorded publication available at plan time ``as_of``."""
        log = self._publications.get(repo_id, [])
        best = None
        for publication in log:
            if publication.available_at <= as_of:
                best = publication
            else:
                break
        if best is None and log and repo_id in self._pruned_through:
            # Every publication as old as ``as_of`` has been pruned: a
            # real repository deleted those bytes, so laggards get the
            # oldest copy that still exists.
            return log[0]
        return best

    def publications(self, repo_id: str) -> list[Publication]:
        return list(self._publications.get(repo_id, []))

    def index_bytes_at(self, repo_id: str, as_of: float) -> bytes:
        publication = self.publication_at(repo_id, as_of)
        if publication is None:
            raise NetworkError(
                f"repository {repo_id!r} has no published index at "
                f"t={as_of:.3f}"
            )
        return publication.index_bytes

    def serve_package_at(self, repo_id: str, name: str,
                         as_of: float) -> bytes:
        """Serve a sanitized package as of a plan instant.

        Reads *through the disk cache* first — serving is the cache's hot
        traffic, and its hit pattern under concurrent refresh churn is
        what the LRU/LRU-2 ablation measures — and only falls back to the
        publication's captured copy when the cached blob was evicted or
        replaced by a later round (``serve_fallbacks`` counts these, and
        each one queues a re-sanitize job the next refresh round pays for
        on the enclave channel).  Either path is verified against the
        publication's signed index, so the served bytes are identical
        regardless of cache state.
        """
        publication = self.publication_at(repo_id, as_of)
        if publication is None:
            raise NetworkError(
                f"repository {repo_id!r} has no publication at t={as_of:.3f}"
            )
        expected = publication.entries.get(name)
        if expected is None:
            raise NetworkError(
                f"package {name!r} not in the t="
                f"{publication.available_at:.3f} publication"
            )
        return self._publication_blob(repo_id, name, publication, expected,
                                      at=as_of)

    def _publication_blob(self, repo_id: str, name: str,
                          publication: Publication,
                          expected: tuple[int, str],
                          at: float | None = None) -> bytes:
        """Cache-first publication serve (no clock advance: as_of-stamped
        serves belong to a replay plan whose driver advances the scenario
        clock exactly once, at the end — the transfer itself is accounted
        on the plan schedule).  A fallback serve queues a re-sanitize job
        stamped with the serve instant ``at`` (live serves use the clock).
        """
        cached = self.cache.get_sanitized(repo_id, name)
        if cached is not None and len(cached) == expected[0] \
                and sha256_hex(cached) == expected[1]:
            self.serve_cache_hits += 1
            return cached
        blob = publication.blobs.get(name)
        if blob is None:
            raise NetworkError(
                f"package {name!r} not available from the t="
                f"{publication.available_at:.3f} publication"
            )
        if len(blob) != expected[0] or sha256_hex(blob) != expected[1]:
            raise NetworkError(
                f"published package {name!r} does not match its signed index"
            )
        if at is None:
            at = self._network.clock.now()
        if not self.resanitize_serves:
            self.serve_fallbacks += 1
        elif self._queue_resanitize(repo_id, name, blob, at):
            self.serve_fallbacks += 1
        return blob

    # -- delta serving (publication-log diffs) --------------------------------

    def _ensure_manifest(self, sha256: str, blob: bytes):
        """Retain the chunk manifest of a served/published blob so it can
        act as a delta base next round (idempotent, fails open)."""
        if self.cache.has_chunk_manifest(sha256):
            return
        from repro.core.delta import blob_manifest
        from repro.util.errors import DeltaError, PackagingError
        try:
            self.cache.put_chunk_manifest(sha256, blob_manifest(blob))
        except (DeltaError, PackagingError):
            pass  # unmanifestable blob: delta requests fall back to full

    def _delta_target(self, repo_id: str,
                      as_of: float | None) -> Publication | None:
        """The publication a delta request resolves against.

        Time-stamped requests see the newest publication at ``as_of``
        (raising like the full path when none exists yet); live requests
        see the newest publication overall, or ``None`` when the
        repository has never recorded one (delta serving is publication-
        backed — callers then fall back to the live enclave state).
        """
        if as_of is not None:
            publication = self.publication_at(repo_id, as_of)
            if publication is None:
                raise NetworkError(
                    f"repository {repo_id!r} has no publication at "
                    f"t={as_of:.3f}"
                )
            return publication
        log = self._publications.get(repo_id, [])
        return log[-1] if log else None

    def _publication_index(self, repo_id: str, position: int):
        """Parsed index of one publication (cached by serial — stable
        under retention pruning, unlike log positions; same-serial
        publications carry byte-identical index bytes)."""
        from repro.archive.index import parse_index_cached

        publication = self._publications[repo_id][position]
        key = (repo_id, publication.serial)
        cached = self._publication_indexes.get(key)
        if cached is None:
            cached = parse_index_cached(publication.index_bytes)
            self._publication_indexes[key] = cached
        return cached

    def _count_fallback(self, counters: dict[str, int], reason: str):
        counters[reason] = counters.get(reason, 0) + 1

    def index_delta_at(self, repo_id: str, base_serial: int,
                       as_of: float | None = None) -> bytes:
        """Serve a signed index diff from ``base_serial`` to the newest
        publication at ``as_of`` (see :mod:`repro.core.delta` for the
        envelope kinds and fallback rules)."""
        from repro.core.delta import (
            build_index_delta,
            index_body_sha256,
            index_full_envelope,
            index_unchanged_envelope,
        )

        target = self._delta_target(repo_id, as_of)
        if target is None:
            blob = self._enclave.ecall("sanitized_index_bytes", repo_id)
            self._count_fallback(self.delta_index_fallbacks, "no-publication")
            return index_full_envelope("no-publication", blob)
        if self.delta_log_depth <= 0:
            self._count_fallback(self.delta_index_fallbacks, "disabled")
            return index_full_envelope("disabled", target.index_bytes)
        if target.serial == base_serial:
            self.delta_index_unchanged += 1
            envelope = index_unchanged_envelope(
                base_serial, index_body_sha256(target.index_bytes))
            self.delta_bytes_saved += max(
                0, len(target.index_bytes) - len(envelope))
            return envelope
        log = self._publications[repo_id]
        target_pos = next(i for i in range(len(log) - 1, -1, -1)
                          if log[i] is target)
        base_pos = next((i for i in range(target_pos, -1, -1)
                         if log[i].serial == base_serial), None)
        if base_pos is None:
            pruned = self._pruned_through.get(repo_id)
            if pruned is not None and base_serial <= pruned:
                # The base aged out of the bounded publication log.  When
                # even an unbounded log would have answered with a full
                # pull (the hypothetical gap exceeds the depth bound),
                # keep the historical "depth" reason; otherwise the
                # retention knob itself forced the full pull.
                self.retention_full_pulls += 1
                reason = ("depth" if target_pos + 1 > self.delta_log_depth
                          else "retention")
            else:
                reason = "unknown-base"
            self._count_fallback(self.delta_index_fallbacks, reason)
            return index_full_envelope(reason, target.index_bytes)
        if target_pos - base_pos > self.delta_log_depth:
            self._count_fallback(self.delta_index_fallbacks, "depth")
            return index_full_envelope("depth", target.index_bytes)
        memo_key = (repo_id, base_serial, target.serial)
        envelope = self._index_delta_memo.get(memo_key)
        if envelope is None:
            envelope = build_index_delta(
                self._publication_index(repo_id, base_pos),
                self._publication_index(repo_id, target_pos),
            )
            self._index_delta_memo[memo_key] = envelope
        if len(envelope) >= len(target.index_bytes):
            self._count_fallback(self.delta_index_fallbacks, "not-smaller")
            return index_full_envelope("not-smaller", target.index_bytes)
        self.delta_index_serves += 1
        self.delta_bytes_saved += len(target.index_bytes) - len(envelope)
        return envelope

    def package_delta_at(self, repo_id: str, name: str, base_sha256: str,
                         as_of: float | None = None) -> bytes:
        """Serve one package as a chunk delta against the client's cached
        base (identified by its SHA-256), or as a tagged full blob when no
        usable delta exists."""
        from repro.core.delta import build_package_delta, package_full_envelope
        from repro.util.errors import DeltaError

        target = self._delta_target(repo_id, as_of)
        if target is None:
            blob = self.serve_package(repo_id, name)
            self._count_fallback(self.delta_package_fallbacks,
                                 "no-publication")
            return package_full_envelope("no-publication", blob)
        expected = target.entries.get(name)
        if expected is None:
            raise NetworkError(
                f"package {name!r} not in the t="
                f"{target.available_at:.3f} publication"
            )
        blob = self._publication_blob(repo_id, name, target, expected,
                                      at=as_of)
        new_sha = expected[1]
        if self.delta_log_depth <= 0:
            self._count_fallback(self.delta_package_fallbacks, "disabled")
            return package_full_envelope("disabled", blob)
        # This serve's target is the fleet's next-round base: retain its
        # manifest now, whatever this request ends up being served as.
        self._ensure_manifest(new_sha, blob)
        if base_sha256 == new_sha:
            self._count_fallback(self.delta_package_fallbacks, "same")
            return package_full_envelope("same", blob)
        manifest = self.cache.get_chunk_manifest(base_sha256)
        if manifest is None:
            if base_sha256 in self._pruned_manifest_shas:
                self.retention_full_pulls += 1
            self._count_fallback(self.delta_package_fallbacks, "unknown-base")
            return package_full_envelope("unknown-base", blob)
        memo_key = (base_sha256, new_sha)
        if memo_key in self._package_delta_memo:
            envelope = self._package_delta_memo[memo_key]
        else:
            try:
                envelope = build_package_delta(manifest, blob)
            except DeltaError:
                envelope = None
            self._package_delta_memo[memo_key] = envelope
        if envelope is None:
            self._count_fallback(self.delta_package_fallbacks, "not-smaller")
            return package_full_envelope("not-smaller", blob)
        self.delta_package_serves += 1
        self.delta_bytes_saved += len(blob) - len(envelope)
        return envelope

    # -- restart & freshness ---------------------------------------------------------------------

    def _seal_state(self):
        state = self._enclave.ecall("export_state")
        sealed = self._freshness.persist(self._enclave.sealing_key(), state)
        self.cache.disk.write_file(SEALED_STATE_PATH, sealed)

    def restart(self):
        """Stop the enclave and bring up a fresh one from sealed state.

        Raises :class:`RollbackError` if the on-disk sealed state is stale
        or tampered (the adversary rolled the cache back).
        """
        self._repo_configs.clear()
        self._enclave.destroy()
        self._enclave = Enclave(self._cpu, TsrProgram, key_bits=self._key_bits)
        if not self.cache.disk.isfile(SEALED_STATE_PATH):
            raise RollbackError("sealed state missing after restart")
        sealed = self.cache.disk.read_file(SEALED_STATE_PATH)
        state = self._freshness.restore(self._enclave.sealing_key(), sealed)
        self._enclave.ecall("restore_state", state)

    # -- time accounting ---------------------------------------------------------------------------

    def _advance_disk_read(self, size: int):
        self._network.clock.advance(
            LOCAL_DISK_SEEK_S + size / LOCAL_DISK_BANDWIDTH_BYTES_PER_S
        )

    def simulated_sanitize_duration(self, result: SanitizationResult) -> float:
        """Measured native sanitize time mapped onto the simulated clock
        (EPC-scaled when SGX is on); does not advance the clock."""
        native = result.timings.total
        if not self.sgx_enabled:
            return native
        return self.epc_model.simulated_duration(
            native, result.working_set_bytes
        )

    def _simulated_sanitize_time(self, result: SanitizationResult) -> float:
        duration = self.simulated_sanitize_duration(result)
        self._network.clock.advance(duration)
        return duration
