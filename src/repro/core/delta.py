"""Delta-update envelopes: signed index diffs and chunked package patches.

PR 5's trace replay made the TSR uplink the fleet-scale bottleneck: every
pull wave re-transfers the full signed index and whole packages to every
client.  This module implements the wire formats of the delta path (CASU's
minimal-authenticated-payload shape, PAPERS.md):

**Index deltas.**  A client sends the serial of its last authenticated
index; the TSR answers from its publication log with one of three
envelopes, each a real byte string so transfer accounting stays honest:

* ``isame:<serial>:<body sha256>`` — the client is current.
* ``idelta:<base serial>:<base body sha256>`` header, the **target's
  existing enclave signature**, the target serial, ``U:`` lines for new or
  changed entries (canonical body-line format) and ``R:`` lines for
  removals.  The client splices these into its authenticated base index,
  reconstructs the canonical body, and verifies the enclave signature over
  the *reconstruction* — so no new signing operation is needed, and any
  tampering with the diff fails signature verification exactly as a
  tampered full index would.  A target serial not newer than the base is
  rejected *before* the signature is even checked: a correctly-signed but
  old index is precisely the paper's rollback attack.
* ``ifull:<reason>`` + full index bytes — fallback (client too far behind
  the publication-log depth bound, unknown base, delta not smaller, …).

**Package deltas.**  Payloads diff at the *uncompressed data segment*
level: gzip output diverges completely after a one-byte source change, so
diffing compressed apk bytes saves almost nothing.  The apk's signature
and control segments travel as literals (they are small and the signature
covers the compressed control bytes), the data segment as content-defined
chunk ops (:mod:`repro.archive.chunks`) against the client's cached prior
version.  The client patches the decompressed data tar, recompresses with
the repo's deterministic gzip, reassembles the three streams, and checks
the whole-blob SHA-256 from the envelope — the package manager then
re-verifies size, hash and signature against the signed index exactly as
for a full pull, so accepted bytes are *identical* to a full pull by
construction.  The TSR side needs only a chunk *manifest* (ordered chunk
ids) of the base, never its bytes: manifests live in the package cache
(:meth:`repro.core.cache.PackageCache.put_chunk_manifest`).

Every malformed, mismatched, or unapplicable envelope raises
:class:`DeltaError` (or :class:`RollbackError` for the stale-serial case)
and the client falls back to a full pull — the delta path can lose
efficiency, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.archive.chunks import (
    apply_chunk_ops,
    build_chunk_ops,
    chunk_ids,
    chunk_map,
    decode_ops,
    encode_ops,
)
from repro.archive.gz import gzip_compress, gzip_decompress, inflate_gzip_streams
from repro.archive.index import (
    IndexEntry,
    RepositoryIndex,
    format_entry_line,
    parse_entry_line,
)
from repro.crypto.hashes import sha256_hex
from repro.util.errors import DeltaError, PackagingError, RollbackError

INDEX_DELTA_PREFIX = b"idelta:"
INDEX_SAME_PREFIX = b"isame:"
INDEX_FULL_PREFIX = b"ifull:"
PACKAGE_DELTA_PREFIX = b"pdelta:"
PACKAGE_FULL_PREFIX = b"pfull:"
MANIFEST_HEADER = b"chunks:1\n"


def index_body_sha256(index_bytes: bytes) -> str:
    """Body hash of serialized index bytes (everything past the sig line)."""
    _, _, body = index_bytes.partition(b"\n")
    if not body:
        raise DeltaError("index bytes carry no body")
    return sha256_hex(body)


# -- index deltas -------------------------------------------------------------


@dataclass
class IndexDeltaEnvelope:
    """A parsed index-delta response (any of the three kinds)."""

    kind: str  # "delta" | "same" | "full"
    reason: str = ""            # full only
    full_bytes: bytes = b""     # full only
    serial: int = 0             # target serial (delta/same)
    body_sha256: str = ""       # same only
    base_serial: int = 0        # delta only
    base_body_sha256: str = ""  # delta only
    signature: bytes = b""      # delta only: the target's enclave signature
    changed: list[IndexEntry] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)


def build_index_delta(base: RepositoryIndex,
                      target: RepositoryIndex) -> bytes:
    """Serialize the ``idelta`` envelope taking ``base`` to ``target``."""
    if target.signature is None:
        raise DeltaError("cannot build a delta to an unsigned index")
    changed = target.diff_updated(base)
    removed = sorted(name for name in base.entries
                     if name not in target.entries)
    lines = [
        f"idelta:{base.serial}:{base.body_hash()}",
        f"sig:{target.signature.hex()}",
        f"serial:{target.serial}",
    ]
    lines.extend("U:" + format_entry_line(entry) for entry in changed)
    lines.extend("R:" + name for name in removed)
    return ("\n".join(lines) + "\n").encode()


def index_unchanged_envelope(serial: int, body_sha256: str) -> bytes:
    return f"isame:{serial}:{body_sha256}\n".encode()


def index_full_envelope(reason: str, index_bytes: bytes) -> bytes:
    return f"ifull:{reason}\n".encode() + index_bytes


def parse_index_delta_envelope(payload: bytes) -> IndexDeltaEnvelope:
    """Classify and parse an index-delta response."""
    if payload.startswith(INDEX_FULL_PREFIX):
        header, _, rest = payload.partition(b"\n")
        reason = header[len(INDEX_FULL_PREFIX):].decode("ascii",
                                                        errors="replace")
        return IndexDeltaEnvelope(kind="full", reason=reason, full_bytes=rest)
    if payload.startswith(INDEX_SAME_PREFIX):
        line = payload[len(INDEX_SAME_PREFIX):].rstrip(b"\n")
        try:
            serial_text, body_sha = line.decode().split(":")
            return IndexDeltaEnvelope(kind="same", serial=int(serial_text),
                                      body_sha256=body_sha)
        except (UnicodeDecodeError, ValueError) as exc:
            raise DeltaError(f"malformed isame envelope: {exc}") from exc
    if not payload.startswith(INDEX_DELTA_PREFIX):
        raise DeltaError("unrecognized index delta envelope")
    try:
        text = payload.decode()
    except UnicodeDecodeError as exc:
        raise DeltaError(f"undecodable index delta: {exc}") from exc
    lines = text.splitlines()
    try:
        base_serial_text, base_body_sha = lines[0][len("idelta:"):].split(":")
        envelope = IndexDeltaEnvelope(
            kind="delta",
            base_serial=int(base_serial_text),
            base_body_sha256=base_body_sha,
        )
        if not lines[1].startswith("sig:"):
            raise DeltaError("index delta missing signature line")
        envelope.signature = bytes.fromhex(lines[1][len("sig:"):])
        if not lines[2].startswith("serial:"):
            raise DeltaError("index delta missing serial line")
        envelope.serial = int(lines[2][len("serial:"):])
    except (IndexError, ValueError) as exc:
        raise DeltaError(f"malformed index delta header: {exc}") from exc
    for line in lines[3:]:
        if not line.strip():
            continue
        if line.startswith("U:"):
            try:
                envelope.changed.append(parse_entry_line(line[2:]))
            except PackagingError as exc:
                raise DeltaError(f"malformed delta entry: {exc}") from exc
        elif line.startswith("R:"):
            envelope.removed.append(line[2:])
        else:
            raise DeltaError(f"unknown index delta line {line!r}")
    return envelope


def apply_index_delta(base: RepositoryIndex,
                      envelope: IndexDeltaEnvelope) -> RepositoryIndex:
    """Splice a parsed ``idelta`` envelope into the authenticated base.

    Returns the reconstructed index carrying the envelope's signature —
    the caller MUST still verify that signature against its trusted keys
    (the reconstruction covers the canonical body, so verification has
    the same strength as for a fully transferred index).
    """
    if envelope.kind != "delta":
        raise DeltaError(f"cannot apply a {envelope.kind!r} envelope")
    if envelope.base_serial != base.serial \
            or envelope.base_body_sha256 != base.body_hash():
        raise DeltaError(
            f"delta base serial {envelope.base_serial} does not match the "
            f"client index (serial {base.serial})"
        )
    # Rollback oracle: refuse a non-newer target before even looking at
    # the signature — a validly signed *old* index is the attack.
    if envelope.serial <= base.serial:
        raise RollbackError(
            f"index delta targets serial {envelope.serial} <= current "
            f"{base.serial} (rollback attack)"
        )
    entries = dict(base.entries)
    for name in envelope.removed:
        if name not in entries:
            raise DeltaError(f"delta removes unknown package {name!r}")
        del entries[name]
    for entry in envelope.changed:
        entries[entry.key()] = entry
    rebuilt = RepositoryIndex(serial=envelope.serial, entries=entries)
    rebuilt.signature = envelope.signature
    return rebuilt


# -- package chunk manifests --------------------------------------------------


def blob_manifest(blob: bytes) -> bytes:
    """Chunk manifest of an apk blob's *uncompressed data segment*."""
    _, _, (_, data) = inflate_gzip_streams(blob, expected=3)
    return MANIFEST_HEADER + "".join(
        f"{cid}\n" for cid in chunk_ids(data)).encode()


def parse_manifest(manifest: bytes) -> list[str]:
    if not manifest.startswith(MANIFEST_HEADER):
        raise DeltaError("unrecognized chunk manifest header")
    ids = manifest[len(MANIFEST_HEADER):].decode("ascii",
                                                 errors="replace").split()
    for cid in ids:
        if len(cid) != 16 or any(c not in "0123456789abcdef" for c in cid):
            raise DeltaError(f"malformed chunk id {cid!r}")
    return ids


# -- package deltas -----------------------------------------------------------


def build_package_delta(base_manifest: bytes,
                        target_blob: bytes) -> bytes | None:
    """Build the ``pdelta`` envelope, or ``None`` when it would not be
    smaller than the full blob (the caller serves a full pull instead).

    Only the base's manifest is needed: the diff matches the target's
    content-defined chunks against the base's chunk *ids*.
    """
    base_ids = set(parse_manifest(base_manifest))
    try:
        (sig_gz, _), (control_gz, _), (_, data) = inflate_gzip_streams(
            target_blob, expected=3)
    except PackagingError as exc:
        raise DeltaError(f"target blob is not a valid apk: {exc}") from exc
    ops = build_chunk_ops(base_ids, data)
    inner = (b"S:%d\n" % len(sig_gz) + sig_gz
             + b"C:%d\n" % len(control_gz) + control_gz
             + encode_ops(ops))
    envelope = (f"pdelta:{sha256_hex(target_blob)}:{len(target_blob)}\n"
                .encode() + gzip_compress(inner))
    if len(envelope) >= len(target_blob):
        return None
    return envelope


def package_full_envelope(reason: str, blob: bytes) -> bytes:
    return f"pfull:{reason}\n".encode() + blob


def parse_package_delta_envelope(payload: bytes,
                                 ) -> tuple[str, str, bytes]:
    """Classify a package-delta response.

    Returns ``("full", reason, blob)`` or ``("delta", new_sha256,
    compressed_inner)`` (with the declared size folded into the sha tuple
    by :func:`apply_package_delta`).
    """
    if payload.startswith(PACKAGE_FULL_PREFIX):
        header, _, rest = payload.partition(b"\n")
        reason = header[len(PACKAGE_FULL_PREFIX):].decode("ascii",
                                                          errors="replace")
        return "full", reason, rest
    if not payload.startswith(PACKAGE_DELTA_PREFIX):
        raise DeltaError("unrecognized package delta envelope")
    header, _, rest = payload.partition(b"\n")
    return "delta", header[len(PACKAGE_DELTA_PREFIX):].decode(
        "ascii", errors="replace"), rest


def apply_package_delta(base_blob: bytes, payload: bytes) -> bytes:
    """Patch the client's cached base apk into the target apk.

    The result is checked against the envelope's declared size and
    SHA-256; any mismatch (tampering, chunk-id collision, divergent
    recompression) raises :class:`DeltaError` and the caller falls back
    to a full pull.
    """
    kind, header, inner_gz = parse_package_delta_envelope(payload)
    if kind != "delta":
        raise DeltaError(f"cannot apply a {kind!r} package envelope")
    try:
        new_sha, size_text = header.split(":")
        new_size = int(size_text)
    except ValueError as exc:
        raise DeltaError(f"malformed pdelta header {header!r}") from exc
    try:
        inner = gzip_decompress(inner_gz)
        _, _, (_, base_data) = inflate_gzip_streams(base_blob, expected=3)
    except PackagingError as exc:
        raise DeltaError(f"undecodable delta payload: {exc}") from exc
    sig_gz, offset = _read_sized(inner, b"S:", 0)
    control_gz, offset = _read_sized(inner, b"C:", offset)
    data = apply_chunk_ops(decode_ops(inner[offset:]), chunk_map(base_data))
    blob = sig_gz + control_gz + gzip_compress(data)
    if len(blob) != new_size or sha256_hex(blob) != new_sha:
        raise DeltaError(
            "package delta reconstruction does not match the declared "
            f"target (got {len(blob)} bytes / {sha256_hex(blob)[:12]}…)"
        )
    return blob


def _read_sized(blob: bytes, tag: bytes, offset: int) -> tuple[bytes, int]:
    """Read one ``<tag><len>\\n<bytes>`` segment from the inner payload."""
    if not blob.startswith(tag, offset):
        raise DeltaError(f"expected {tag!r} segment in delta payload")
    newline = blob.find(b"\n", offset)
    if newline < 0:
        raise DeltaError("truncated delta segment header")
    try:
        length = int(blob[offset + len(tag):newline])
    except ValueError as exc:
        raise DeltaError("malformed delta segment length") from exc
    start = newline + 1
    if length < 0 or start + length > len(blob):
        raise DeltaError("delta segment length exceeds payload")
    return blob[start:start + length], start + length
