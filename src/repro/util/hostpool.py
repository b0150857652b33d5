"""Deterministic multi-process execution layer for content-determined work.

The simulator's host-time hotspots — RSA sign/verify, gzip repack, CDC
chunk manifests, apk parses, sanitize analyses — are pure functions of
their inputs, already memoized behind content-keyed caches that record
the measured host cost of the original computation (the PR-7 cost-honesty
contract).  That makes them embarrassingly parallel to *pre-compute*: a
worker pool evaluates pending items while the serial, deterministic
simulation timeline runs, and the results (value + measured cost) are
installed into the existing memo tables before the timeline consumes
them.  The timeline itself never changes; it just finds warm caches.

Control knob (read once, lazily):

    REPRO_WORKERS=0      serial — the literal pre-pool code path (default)
    REPRO_WORKERS=N      pool of N worker processes
    REPRO_WORKERS=auto   one worker per *available* CPU (sched_getaffinity)

Determinism rules the integration layers follow:

1. Workers only compute pure functions; all memo installation happens in
   the main process, in deterministic order, and never overwrites an
   existing entry (first install wins).
2. Consumers that prefetched a key *wait* for the worker result instead
   of computing inline, so which process computed a value never races.
3. With the pool disabled nothing here is imported by the hot paths and
   the pool-only memos (sanitize analyses and finishes) stay permanently
   empty, so every probe misses and the serial code path is bit-for-bit
   the pre-pool one.  Memos the serial path fills itself (the apk parse
   memo among them) are shared: the pool only seeds them earlier.
"""

from __future__ import annotations

import os
from time import perf_counter

_ENV_VAR = "REPRO_WORKERS"


def autodetect_workers() -> int:
    """Worker count for ``REPRO_WORKERS=auto``: the CPUs this process may
    actually run on (containers and CI runners often restrict affinity
    well below ``os.cpu_count()``)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def configured_workers() -> int:
    """Resolve ``REPRO_WORKERS`` to a worker count (0 = serial)."""
    raw = os.environ.get(_ENV_VAR, "0").strip().lower()
    if raw in ("", "0", "off", "none", "serial"):
        return 0
    if raw == "auto":
        return autodetect_workers()
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{_ENV_VAR} must be an integer, 'auto', or 0; got {raw!r}")
    return max(0, value)


# -- kernels ------------------------------------------------------------------
#
# A kernel is a pure function payload -> result, executed in a worker
# process (or inline, as the crash fallback).  Imports happen inside each
# kernel so that merely defining the registry pulls in nothing.

def _kernel_keypair(payload):
    bits, seed = payload
    from repro.crypto.rsa import generate_keypair
    return (bits, seed), generate_keypair(bits, seed)


def _kernel_sign(payload):
    key, message = payload
    from repro.crypto.hashes import sha256_bytes
    from repro.crypto.rsa import _VERIFY_MEMO
    signature, cost = key.sign_with_cost(message)
    digest = sha256_bytes(message)
    verify_hit = _VERIFY_MEMO.get((key.n, key.e, digest, signature))
    if verify_hit is None:
        verify_hit = key.public_key.verify_with_cost(message, signature)
    return key.n, key.e, digest, signature, cost, verify_hit[1]


def _kernel_verify(payload):
    pub, message, signature = payload
    from repro.crypto.hashes import sha256_bytes
    ok, cost = pub.verify_with_cost(message, signature)
    return pub.n, pub.e, sha256_bytes(message), signature, ok, cost


def _kernel_sha256hex(payload):
    from repro.crypto.hashes import sha256_hex
    return sha256_hex(payload)


def _kernel_gzip(payload):
    import hashlib
    data, level = payload
    from repro.archive.gz import gzip_compress_cached_with_cost
    compressed, cost = gzip_compress_cached_with_cost(data, level)
    return (hashlib.sha256(data).digest(), len(data), level), compressed, cost


def _kernel_chunks(payload):
    data, min_size, max_size, mask = payload
    from repro.archive.chunks import chunk_offsets
    from repro.crypto.hashes import sha256_bytes
    offsets = chunk_offsets(data, min_size, max_size, mask)
    return (sha256_bytes(data), len(data), min_size, max_size, mask), offsets


def _kernel_parse_verify(payload):
    from repro.archive.apk import parse_kernel
    return parse_kernel(*payload)


def _kernel_publish_build(payload):
    package, signing_key, key_name = payload
    blob, entries = package.build_prewarm(signing_key, key_name)
    return entries


def _kernel_sanitize_prewarm(payload):
    from repro.core.sanitizer import prewarm_kernel
    return prewarm_kernel(*payload)


_KERNELS = {
    "keypair": _kernel_keypair,
    "sign": _kernel_sign,
    "verify": _kernel_verify,
    "sha256hex": _kernel_sha256hex,
    "gzip": _kernel_gzip,
    "chunks": _kernel_chunks,
    "parse_verify": _kernel_parse_verify,
    "publish_build": _kernel_publish_build,
    "sanitize_prewarm": _kernel_sanitize_prewarm,
}


def register_kernel(name: str, fn) -> None:
    """Register an extra kernel (tests use this to inject faulty ones).

    With the default fork start method workers inherit the registry as it
    stood at pool start, so register before the first submit.
    """
    _KERNELS[name] = fn


def _pool_worker(kind: str, payloads: list) -> tuple[int, float, list]:
    """Worker-side entry: run a chunk of kernel calls, report busy time."""
    fn = _KERNELS[kind]
    started = perf_counter()
    results = [fn(payload) for payload in payloads]
    return os.getpid(), perf_counter() - started, results


# -- the pool -----------------------------------------------------------------


class HostPool:
    """A keyed batch frontend over ``ProcessPoolExecutor``.

    Work is submitted either as ordered batches (:meth:`run_batch`) or as
    keyed prefetches (:meth:`prefetch` / :meth:`collect`) that lookahead
    collectors fire early and consumers harvest later.  Any worker-side
    failure falls back to inline execution in the main process, so a
    crashed worker degrades throughput, never correctness.
    """

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        self.broken = False
        self._executor = None
        self._prefetched: dict[tuple, tuple] = {}
        self._worker_seconds: dict[int, float] = {}
        self._tasks = 0
        self._fallbacks = 0
        self._outstanding = 0
        self._started_at: float | None = None
        self._overlap_seconds = 0.0
        self._nonempty_since: float | None = None

    # -- lifecycle --

    def _ensure_executor(self):
        if self._executor is None and not self.broken:
            import atexit
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn")
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=ctx)
            self._started_at = perf_counter()
            # Reap workers before the interpreter tears itself down — an
            # executor alive at exit races module teardown and spews
            # harmless-but-noisy weakref tracebacks.
            atexit.register(self.shutdown)
        return self._executor

    def shutdown(self) -> None:
        self._mark_idle()
        self._prefetched.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    # -- bookkeeping --

    def _mark_busy(self) -> None:
        if self._outstanding == 0:
            self._nonempty_since = perf_counter()
        self._outstanding += 1

    def _mark_idle(self) -> None:
        if self._outstanding > 0:
            self._outstanding -= 1
            if self._outstanding == 0 and self._nonempty_since is not None:
                self._overlap_seconds += perf_counter() - self._nonempty_since
                self._nonempty_since = None

    def _account(self, pid: int, busy: float) -> None:
        self._worker_seconds[pid] = self._worker_seconds.get(pid, 0.0) + busy

    def _submit(self, kind: str, payloads: list):
        executor = self._ensure_executor()
        if executor is None:
            return None
        try:
            future = executor.submit(_pool_worker, kind, payloads)
        except Exception:
            self.broken = True
            self._executor = None
            return None
        self._mark_busy()
        self._tasks += 1
        return future

    def _resolve(self, kind: str, future, payloads: list) -> list:
        """Wait for one worker task; inline fallback on any failure."""
        try:
            pid, busy, results = future.result()
        except Exception:
            self._mark_idle()
            self.broken = True
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            self._fallbacks += len(payloads)
            fn = _KERNELS[kind]
            return [fn(payload) for payload in payloads]
        self._mark_idle()
        self._account(pid, busy)
        return results

    # -- batch interface --

    def run_batch(self, kind: str, payloads: list) -> list:
        """Evaluate ``payloads`` across the workers; results in input
        order.  Falls back to inline execution if the pool is broken."""
        if not payloads:
            return []
        if self.broken:
            self._fallbacks += len(payloads)
            fn = _KERNELS[kind]
            return [fn(payload) for payload in payloads]
        chunk = max(1, -(-len(payloads) // (self.workers * 4)))
        groups = [payloads[i:i + chunk]
                  for i in range(0, len(payloads), chunk)]
        submitted = [(group, self._submit(kind, group)) for group in groups]
        results: list = []
        for group, future in submitted:
            if future is None:
                self._fallbacks += len(group)
                fn = _KERNELS[kind]
                results.extend(fn(payload) for payload in group)
            else:
                results.extend(self._resolve(kind, future, group))
        return results

    # -- keyed prefetch interface --

    def prefetch(self, kind: str, key, payload) -> None:
        """Fire-and-forget: start computing ``payload`` under ``key`` if
        it is not already in flight.  Consumers MUST later either
        :meth:`collect` the key or let :meth:`shutdown` discard it."""
        if self.broken or (kind, key) in self._prefetched:
            return
        future = self._submit(kind, [payload])
        if future is not None:
            self._prefetched[(kind, key)] = (future, payload)

    def pending(self, kind: str, key) -> bool:
        return (kind, key) in self._prefetched

    def collect(self, kind: str, key):
        """Harvest a prefetched result (blocking), or None if the key was
        never prefetched.  Consumers wait here rather than computing a
        prefetched key inline, so results never race the timeline."""
        entry = self._prefetched.pop((kind, key), None)
        if entry is None:
            return None
        future, payload = entry
        return self._resolve(kind, future, [payload])[0]

    # -- introspection --

    def stats(self) -> dict:
        now = perf_counter()
        overlap = self._overlap_seconds
        if self._nonempty_since is not None:
            overlap += now - self._nonempty_since
        window = (now - self._started_at) if self._started_at else 0.0
        return {
            "workers": self.workers,
            "broken": self.broken,
            "tasks": self._tasks,
            "fallbacks": self._fallbacks,
            "worker_busy_seconds": dict(self._worker_seconds),
            "overlap_seconds": overlap,
            "window_seconds": window,
            "serial_residue_fraction": (
                max(0.0, 1.0 - overlap / window) if window > 0 else 1.0),
        }


# -- process-wide pool singleton ----------------------------------------------

_POOL: HostPool | None = None
_RESOLVED: int | None = None


def get_pool() -> HostPool | None:
    """The process-wide pool, or None when ``REPRO_WORKERS`` resolves to
    0.  At 0 workers nothing multiprocessing-related is ever imported:
    the serial path is the literal pre-pool code path."""
    global _POOL, _RESOLVED
    if _RESOLVED is None:
        _RESOLVED = configured_workers()
        if _RESOLVED > 0:
            _POOL = HostPool(_RESOLVED)
    return _POOL


def set_workers(count: int) -> HostPool | None:
    """Rebind the process-wide pool (tests and benches sweep this)."""
    global _POOL, _RESOLVED
    if _POOL is not None:
        _POOL.shutdown()
    _RESOLVED = max(0, int(count))
    _POOL = HostPool(_RESOLVED) if _RESOLVED else None
    return _POOL


def reset_pool() -> None:
    """Forget the pool and re-read ``REPRO_WORKERS`` on next use."""
    global _POOL, _RESOLVED
    if _POOL is not None:
        _POOL.shutdown()
    _POOL = None
    _RESOLVED = None


def clear_content_memos() -> None:
    """Drop every content-keyed memo the pool can warm.  Differential
    suites call this between sweeps so each worker count starts cold."""
    from repro.archive.apk import clear_parse_memo
    from repro.archive.chunks import clear_chunk_memo
    from repro.archive.gz import clear_compress_memo
    from repro.core.sanitizer import clear_sanitize_memos
    from repro.crypto.rsa import clear_crypto_memos
    clear_crypto_memos()
    clear_compress_memo()
    clear_chunk_memo()
    clear_parse_memo()
    clear_sanitize_memos()
