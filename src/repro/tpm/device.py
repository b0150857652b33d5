"""The TPM device model.

Implements what the paper's stack depends on:

* a SHA-256 PCR bank with ``extend`` semantics (``pcr = H(pcr || digest)``),
* an event log recording every extend (the measured-boot log),
* quotes — signatures over (selected PCRs, nonce) under an attestation key
  created inside the TPM, so verifiers can trust reported PCR values,
* NV monotonic counters that can only ever increase,
* a small NV storage area.

The attestation key never leaves the device object: callers get the public
part only, mirroring a real TPM's restricted signing key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.crypto.hashes import SHA256_DIGEST_SIZE, sha256_bytes
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_keypair
from repro.util.errors import AttestationError, ReproError

PCR_COUNT = 24
IMA_PCR_INDEX = 10  # Linux IMA extends its measurements into PCR 10


class TpmError(ReproError):
    """A TPM command failed."""


@dataclass
class EventLogEntry:
    """One measured event: which PCR, the digest, and a description."""

    pcr_index: int
    digest: bytes
    description: str


class PcrBank:
    """The SHA-256 PCR bank."""

    def __init__(self):
        self._values = [bytes(SHA256_DIGEST_SIZE) for _ in range(PCR_COUNT)]

    def read(self, index: int) -> bytes:
        self._check_index(index)
        return self._values[index]

    def extend(self, index: int, digest: bytes) -> bytes:
        self._check_index(index)
        if len(digest) != SHA256_DIGEST_SIZE:
            raise TpmError(
                f"extend digest must be {SHA256_DIGEST_SIZE} bytes, got {len(digest)}"
            )
        self._values[index] = sha256_bytes(self._values[index] + digest)
        return self._values[index]

    def snapshot(self, indices: list[int]) -> dict[int, bytes]:
        return {index: self.read(index) for index in indices}

    @staticmethod
    def _check_index(index: int):
        if not 0 <= index < PCR_COUNT:
            raise TpmError(f"PCR index out of range: {index}")


@dataclass
class TpmQuote:
    """A signed attestation of PCR state."""

    pcr_values: dict[int, bytes]
    nonce: bytes
    signature: bytes

    def quoted_bytes(self) -> bytes:
        body = {
            "pcrs": {str(i): v.hex() for i, v in sorted(self.pcr_values.items())},
            "nonce": self.nonce.hex(),
        }
        return json.dumps(body, sort_keys=True).encode("ascii")


class Tpm:
    """A TPM instance bound to one (simulated) machine."""

    def __init__(self, serial: str, key_bits: int = 1024,
                 attestation_seed: int | None = None):
        self.serial = serial
        self.pcr_bank = PcrBank()
        self.event_log: list[EventLogEntry] = []
        self._counters: dict[str, int] = {}
        self._nv_storage: dict[str, bytes] = {}
        # Attestation key: deterministic per serial so fleets are
        # reproducible.  ``attestation_seed`` overrides the per-serial
        # derivation so a large simulated fleet can share one (memoized)
        # keypair instead of paying a prime search per node — attestation
        # *identity* is then shared, which is fine for transfer/update
        # experiments but not for attestation ones.
        if attestation_seed is None:
            attestation_seed = int.from_bytes(
                sha256_bytes(serial.encode())[:8], "big")
        self._attestation_key = generate_keypair(
            key_bits, seed=attestation_seed)

    # -- measurement -----------------------------------------------------------

    @property
    def attestation_public_key(self) -> RsaPublicKey:
        return self._attestation_key.public_key

    def extend(self, index: int, digest: bytes, description: str = "") -> bytes:
        value = self.pcr_bank.extend(index, digest)
        self.event_log.append(EventLogEntry(index, digest, description))
        return value

    def measure(self, index: int, data: bytes, description: str = "") -> bytes:
        """Hash-and-extend convenience used by the boot chain."""
        return self.extend(index, sha256_bytes(data), description)

    def quote(self, indices: list[int], nonce: bytes) -> TpmQuote:
        """Sign the selected PCR values and a verifier-chosen nonce."""
        values = self.pcr_bank.snapshot(indices)
        unsigned = TpmQuote(pcr_values=values, nonce=nonce, signature=b"")
        signature = self._attestation_key.sign(unsigned.quoted_bytes())
        return TpmQuote(pcr_values=values, nonce=nonce, signature=signature)

    # -- monotonic counters ------------------------------------------------------

    def create_counter(self, name: str) -> int:
        if name in self._counters:
            raise TpmError(f"counter already exists: {name}")
        self._counters[name] = 0
        return 0

    def increment_counter(self, name: str) -> int:
        if name not in self._counters:
            raise TpmError(f"no such counter: {name}")
        self._counters[name] += 1
        return self._counters[name]

    def read_counter(self, name: str) -> int:
        if name not in self._counters:
            raise TpmError(f"no such counter: {name}")
        return self._counters[name]

    # -- NV storage ---------------------------------------------------------------

    def nv_write(self, name: str, data: bytes):
        self._nv_storage[name] = bytes(data)

    def nv_read(self, name: str) -> bytes:
        if name not in self._nv_storage:
            raise TpmError(f"no such NV index: {name}")
        return self._nv_storage[name]


def verify_quote(quote: TpmQuote, attestation_key: RsaPublicKey,
                 expected_nonce: bytes) -> dict[int, bytes]:
    """Verify a quote; returns the attested PCR values.

    Raises :class:`AttestationError` on nonce mismatch (replayed quote) or a
    bad signature (forged quote / wrong TPM).
    """
    if quote.nonce != expected_nonce:
        raise AttestationError(
            "quote nonce mismatch: expected "
            f"{expected_nonce.hex()[:16]}…, got {quote.nonce.hex()[:16]}…"
        )
    if not attestation_key.verify(quote.quoted_bytes(), quote.signature):
        raise AttestationError("quote signature verification failed")
    return dict(quote.pcr_values)
