"""Host-time attribution to the program's layers, for traced runs only.

``LayerTracer`` wraps the public entry points of each layer (the table
below) in spans.  A span's self time is its duration minus the time of
the spans it encloses, so the self times of all spans inside one root span
add up to the root's duration.  Calls count the outermost span of a layer
only: a layer entry point that calls another entry point of the same layer
is one call.

A function imported by name into another module is a second reference the
class-less patch would miss, so every ``repro`` module attribute that holds
the original function is replaced too.

Wrapping changes the very host timings the program turns into simulated
durations (sanitize and sign phases are ``perf_counter`` readings), so a
traced run's simulated numbers are never reported.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

#: layer -> entry points, as ``(module, "Class.method" or "function")``.
LAYERS = {
    "crypto.rsa.sign": [("repro.crypto.rsa", "RsaPrivateKey.sign_with_cost")],
    "crypto.rsa.verify": [("repro.crypto.rsa",
                           "RsaPublicKey.verify_with_cost")],
    "crypto.rsa.keygen": [("repro.crypto.rsa", "generate_keypair")],
    "archive.gz.compress": [("repro.archive.gz", "gzip_compress")],
    "archive.gz.decompress": [("repro.archive.gz", "gzip_decompress")],
    "archive.apk.build": [("repro.archive.apk", "ApkPackage." + name)
                          for name in ("build", "build_with_cost",
                                       "build_segments")],
    "archive.apk.parse": [("repro.archive.apk", "ApkPackage.parse")],
    "archive.chunks.offsets": [("repro.archive.chunks", "chunk_offsets")],
    "scripts.parse": [("repro.scripts.parser", "parse_script")],
    "scripts.interpret": [("repro.scripts.interpreter", "Interpreter.run")],
    "core.sanitizer": [("repro.core.sanitizer", "Sanitizer.analyze_blob"),
                       ("repro.core.sanitizer",
                        "Sanitizer.finish_from_analysis")],
    "sgx.ecall": [("repro.sgx.enclave", "Enclave.ecall")],
    "core.orchestrator.run": [("repro.core.orchestrator",
                               "RefreshOrchestrator.run")],
    # ``QuorumReader.read_index`` is the library reader; the TSR's refresh
    # paths read their quorum in the two private methods after it.
    "core.quorum.read": [("repro.core.quorum", "QuorumReader.read_index"),
                         ("repro.core.service",
                          "TrustedSoftwareRepository._read_quorum"),
                         ("repro.core.orchestrator",
                          "RefreshOrchestrator._quorum_phase")],
    "simnet.solve": [("repro.simnet.schedule",
                      "ParallelTransferSchedule.solve"),
                     ("repro.simnet.network", "ScheduledFetchSession.solve")],
    "simnet.advance": [("repro.simnet.schedule",
                        "ScheduleStream.advance_to")],
    "simnet.fetch": [("repro.simnet.network", "PlanFetchSession.fetch"),
                     ("repro.simnet.network", "ScheduledFetchSession.fetch")],
    "core.service.serve": [
        ("repro.core.service", "TrustedSoftwareRepository." + name)
        for name in ("index_bytes_at", "serve_package_at", "index_delta_at",
                     "package_delta_at")],
    "core.service.publish": [("repro.core.service",
                              "TrustedSoftwareRepository.record_publication")],
    "core.replica.sync": [("repro.core.replica",
                           "ReplicaTSR.sync_from_primary")],
    "osim.pkgmgr.update": [("repro.osim.pkgmgr", "PackageManager.update")],
    "osim.pkgmgr.install": [("repro.osim.pkgmgr",
                             "PackageManager.install_batch"),
                            ("repro.osim.pkgmgr", "PackageManager.install")],
    "ima.verify": [("repro.ima.subsystem", "verify_ima_signature")],
    "tpm.boot": [("repro.osim.os", "IntegrityEnforcedOS.boot")],
}

#: The root span: the workload code around the measured run.  Its self
#: time is replay bookkeeping and everything no layer above claims.
ROOT = "workload.replay"

#: Layers each workload must call during its measured run.  A patch that
#: misses an entry point shows up here as zero calls.
HEAVY = {
    "repo-init": [
        "crypto.rsa.sign", "crypto.rsa.verify", "archive.gz.compress",
        "archive.gz.decompress", "archive.apk.build", "archive.apk.parse",
        "scripts.parse", "scripts.interpret", "core.sanitizer", "sgx.ecall",
        "core.quorum.read", "simnet.solve", "simnet.fetch",
        "core.service.publish", "osim.pkgmgr.update", "osim.pkgmgr.install",
        "ima.verify", "tpm.boot"],
    "steady-update": [
        "crypto.rsa.sign", "crypto.rsa.verify", "archive.gz.compress",
        "archive.apk.build", "archive.apk.parse", "archive.chunks.offsets",
        "core.sanitizer", "sgx.ecall", "core.orchestrator.run",
        "core.quorum.read", "simnet.solve", "simnet.fetch",
        "core.service.serve", "core.service.publish", "osim.pkgmgr.update",
        "osim.pkgmgr.install", "tpm.boot"],
    "fleet-fanout": [
        "crypto.rsa.keygen", "archive.gz.decompress", "archive.apk.parse",
        "scripts.parse", "scripts.interpret", "core.orchestrator.run",
        "simnet.advance", "simnet.fetch", "core.replica.sync",
        "core.service.publish", "osim.pkgmgr.update", "osim.pkgmgr.install",
        "tpm.boot"],
}


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` of an entry point: a class or a module."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    return (getattr(module, owner_name) if owner_name else module), attr


class LayerTracer:
    """Span stack, per-layer aggregates and the patches that feed them."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.ecalls: dict[str, list] = defaultdict(lambda: [0, 0.0])
        #: Open spans: [layer, start, child seconds].
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self.enabled = False

    # -- spans -------------------------------------------------------------

    def _enter(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        if not self._stack or self._stack[-1][0] != layer:
            self.calls[layer] += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        return duration - frame[2]

    def root(self, fn, *args, **kwargs):
        """Run ``fn`` as the root span; return ``(result, host seconds)``
        timed outside the span, which the self-check compares with the
        sum of all self times."""
        begin = time.perf_counter()
        self.enabled = True
        frame = self._enter(ROOT)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._exit(frame)
            self.enabled = False
        return result, time.perf_counter() - begin

    # -- patching ----------------------------------------------------------

    def _wrap(self, layer: str, original, ecall: bool = False):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            frame = tracer._enter(layer)
            try:
                return original(*args, **kwargs)
            finally:
                own = tracer._exit(frame)
                if ecall:
                    entry = tracer.ecalls[args[1] if len(args) > 1
                                          else kwargs.get("entry_point")]
                    entry[0] += 1
                    entry[1] += own

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for layer, points in LAYERS.items():
            for module_name, path in points:
                owner, attr = _resolve(module_name, path)
                raw = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(layer, raw.__func__))
                    original = raw.__func__
                else:
                    patched = self._wrap(layer, raw, ecall=layer == "sgx.ecall")
                    original = raw
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, patched)
                if not isinstance(owner, type):
                    self._rebind(original, patched)

    def _rebind(self, original, patched) -> None:
        """Replace by-name imports of a module-level function."""
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, patched)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def report(self, workload: str, host_s: float) -> tuple[dict, list[str]]:
        """Per-layer metrics plus the self-check's problems."""
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = self.calls.get(layer, 0)
            metrics[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        metrics[f"{ROOT}.self_s"] = self.self_s.get(ROOT, 0.0)
        problems = [f"layer {layer} recorded no calls on {workload}"
                    for layer in HEAVY[workload] if not self.calls.get(layer)]
        total = sum(self.self_s.values())
        if abs(total - host_s) > 1e-3 * host_s + 1e-3:
            problems.append(f"layer self times sum to {total:.4f} s, "
                            f"not the traced host_s {host_s:.4f} s")
        negative = [layer for layer, value in self.self_s.items()
                    if value < -1e-6]
        if negative:
            problems.append(f"negative self time in {negative}")
        if self._stack:
            problems.append(f"{len(self._stack)} spans left open")
        return metrics, problems
