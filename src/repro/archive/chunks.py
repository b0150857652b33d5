"""Content-defined chunking (CDC) and chunk-level diff/patch.

The delta-update path (:mod:`repro.core.delta`) ships package payloads as
chunk deltas against the client's cached prior version.  Fixed-size
blocks would be useless here: one inserted byte shifts every later block
boundary and the whole payload re-transfers.  Content-defined boundaries
are chosen by a rolling hash of the *data itself*, so they re-synchronize
within one chunk of an insert/delete/replace edit and everything after
the edit dedupes against the old version again.

The boundary test is a gear hash (FastCDC's primitive): a 256-entry
random table, ``h = (h << 1 + GEAR[byte]) mod 2^64``, cut where the low
``AVG_BITS`` bits are zero.  The left-shift ages bytes out of the hash
after 64 positions, which is exactly what makes the cut points local (and
the chunking self-synchronizing).  The gear table is derived from SHA-256
so every honest party — the TSR building deltas and thousands of clients
applying them — chunks identically without shipping the table.

Chunks are identified by the first 16 hex digits of their SHA-256.  The
truncation is safe because delta application always ends with a full-blob
hash check against the signed index (:mod:`repro.core.delta`): a
truncated-id collision can only yield a reconstruction that *fails* that
check and falls back to a full pull, never wrong accepted bytes.
"""

from __future__ import annotations

from repro.crypto.hashes import sha256_bytes, sha256_hex
from repro.util.errors import DeltaError

try:  # optional exact fast path; the scalar scan is the fallback
    import numpy as _np
except ImportError:  # pragma: no cover - environment without numpy
    _np = None

#: Bytes below which no boundary is considered (also skips hashing work).
MIN_CHUNK = 512
#: Hard ceiling: a chunk is cut here even if the hash never fires.
MAX_CHUNK = 4096
#: Boundary fires when the low AVG_BITS bits of the gear hash are zero,
#: i.e. with probability 2^-AVG_BITS per byte past MIN_CHUNK; the
#: expected chunk size is MIN_CHUNK + 2^AVG_BITS ≈ 1.5 KiB.
AVG_BITS = 10

_MASK = (1 << AVG_BITS) - 1
_HASH_MOD = (1 << 64) - 1

#: Hex digits of SHA-256 kept as a chunk identifier.
CHUNK_ID_HEX = 16

_GEAR = tuple(
    int.from_bytes(sha256_bytes(b"tsr-gear-v1:" + bytes([i]))[:8], "big")
    for i in range(256)
)

_GEAR_NP = None if _np is None else _np.array(_GEAR, dtype=_np.uint64)

#: Blobs below this length chunk faster with the plain scalar scan.
_NUMPY_THRESHOLD = 8192

#: Chunk boundaries are a pure function of content: refresh rounds and
#: replay modes re-manifest the same blob versions over and over, so the
#: offsets are memoized by content digest (bounded; cleared wholesale).
_OFFSETS_MEMO: dict[tuple, list[tuple[int, int]]] = {}
_OFFSETS_LIMIT = 512


def clear_chunk_memo() -> None:
    """Drop memoized chunk offsets (differential tests pin memoized runs
    against cold ones)."""
    _OFFSETS_MEMO.clear()


def chunk_offsets(data: bytes, min_size: int = MIN_CHUNK,
                  max_size: int = MAX_CHUNK,
                  mask: int = _MASK) -> list[tuple[int, int]]:
    """Cut ``data`` into content-defined ``(start, end)`` ranges.

    Deterministic, order-preserving, and exhaustive: the ranges tile the
    input exactly.  Every chunk is within ``[min_size, max_size]`` except
    a final (or sole) chunk shorter than ``min_size``.
    """
    if min_size < 1 or max_size < min_size:
        raise ValueError(f"bad chunk bounds: min={min_size} max={max_size}")
    key = (sha256_bytes(data), len(data), min_size, max_size, mask)
    hit = _OFFSETS_MEMO.get(key)
    if hit is not None:
        return list(hit)
    if _GEAR_NP is not None and len(data) >= _NUMPY_THRESHOLD:
        offsets = _chunk_offsets_vector(data, min_size, max_size, mask)
    else:
        offsets = _chunk_offsets_scalar(data, min_size, max_size, mask)
    if len(_OFFSETS_MEMO) >= _OFFSETS_LIMIT:
        _OFFSETS_MEMO.clear()
    _OFFSETS_MEMO[key] = offsets
    return list(offsets)


def _chunk_offsets_scalar(data: bytes, min_size: int, max_size: int,
                          mask: int) -> list[tuple[int, int]]:
    offsets: list[tuple[int, int]] = []
    n = len(data)
    start = 0
    while start < n:
        end = min(start + max_size, n)
        pos = start + min_size
        if pos >= end:
            offsets.append((start, end))
            start = end
            continue
        boundary = end
        h = 0
        for i in range(pos, end):
            h = ((h << 1) + _GEAR[data[i]]) & _HASH_MOD
            if h & mask == 0:
                boundary = i + 1
                break
        offsets.append((start, boundary))
        start = boundary
    return offsets


def _chunk_offsets_vector(data: bytes, min_size: int, max_size: int,
                          mask: int) -> list[tuple[int, int]]:
    """Exact vectorized gear scan — bit-identical to the scalar loop.

    The left-shift recurrence forgets bytes after 64 positions, so once a
    scan has accumulated 64 bytes its hash equals the *steady-state*
    value ``H[i] = sum_{k=0}^{63} GEAR[data[i-k]] << k (mod 2^64)``,
    which depends only on ``i`` — not on where the scan started.  ``H``
    is computed once for the whole blob (64 vectorized shifted adds;
    uint64 wraparound is the mod), and every position where it fires is
    tabulated.  Each chunk then replays only its first 63 positions —
    where the window is still filling and the scalar recurrence genuinely
    differs — and takes the next tabulated candidate beyond them.
    """
    n = len(data)
    g = _GEAR_NP[_np.frombuffer(data, dtype=_np.uint8)]
    # Window-doubling: H_{2w}(i) = H_w(i) + (H_w(i-w) << w), six passes
    # to the 64-byte window.  Entries below index 63 are partial and
    # never consulted (every query position is >= min_size + 63 >= 64).
    steady = g.copy()
    w = 1
    while w < 64:
        steady[w:] += steady[:n - w] << _np.uint64(w)
        w *= 2
    cand = _np.nonzero((steady & _np.uint64(mask)) == 0)[0]
    searchsorted = _np.searchsorted
    offsets: list[tuple[int, int]] = []
    start = 0
    while start < n:
        end = min(start + max_size, n)
        pos = start + min_size
        if pos >= end:
            offsets.append((start, end))
            start = end
            continue
        boundary = end
        h = 0
        found = False
        warm_end = min(pos + 63, end)
        for i in range(pos, warm_end):
            h = ((h << 1) + _GEAR[data[i]]) & _HASH_MOD
            if h & mask == 0:
                boundary = i + 1
                found = True
                break
        if not found and warm_end < end:
            j = int(searchsorted(cand, warm_end))
            if j < cand.size and cand[j] < end:
                boundary = int(cand[j]) + 1
        offsets.append((start, boundary))
        start = boundary
    return offsets


def chunk_id(chunk: bytes) -> str:
    """Truncated-SHA-256 identifier of one chunk."""
    return sha256_hex(chunk)[:CHUNK_ID_HEX]


def chunk_ids(data: bytes) -> list[str]:
    """Ordered chunk identifiers of ``data`` (a chunk *manifest*)."""
    return [chunk_id(data[s:e]) for s, e in chunk_offsets(data)]


def chunk_map(data: bytes) -> dict[str, bytes]:
    """Chunk id -> chunk bytes for ``data`` (the patch-side lookup)."""
    pieces = [data[s:e] for s, e in chunk_offsets(data)]
    return {chunk_id(piece): piece for piece in pieces}


# -- chunk-level diff / patch -------------------------------------------------


def build_chunk_ops(base_ids: set[str],
                    target: bytes) -> list[tuple[str, object]]:
    """Diff ``target`` against a base known only by its chunk ids.

    Returns an op list reconstructing ``target``: ``("copy", id)`` for a
    chunk the base already holds, ``("literal", bytes)`` otherwise
    (adjacent literals are merged).  The base's *bytes* are never needed
    on the diffing side — the TSR retains only manifests.
    """
    ops: list[tuple[str, object]] = []
    for start, end in chunk_offsets(target):
        piece = target[start:end]
        piece_id = chunk_id(piece)
        if piece_id in base_ids:
            ops.append(("copy", piece_id))
        elif ops and ops[-1][0] == "literal":
            ops[-1] = ("literal", ops[-1][1] + piece)
        else:
            ops.append(("literal", piece))
    return ops


def apply_chunk_ops(ops: list[tuple[str, object]],
                    base_chunks: dict[str, bytes]) -> bytes:
    """Patch: materialize an op list against the base's chunk map."""
    parts: list[bytes] = []
    for kind, value in ops:
        if kind == "copy":
            chunk = base_chunks.get(value)  # type: ignore[arg-type]
            if chunk is None:
                raise DeltaError(f"delta references unknown chunk {value!r}")
            parts.append(chunk)
        elif kind == "literal":
            parts.append(value)  # type: ignore[arg-type]
        else:
            raise DeltaError(f"unknown delta op {kind!r}")
    return b"".join(parts)


def encode_ops(ops: list[tuple[str, object]]) -> bytes:
    """Wire-encode an op list (real bytes, so transfer sizes are honest).

    ``R:<16 hex>\\n`` copies a base chunk, ``L:<len>\\n<bytes>`` inlines a
    literal, ``E:\\n`` terminates.
    """
    out: list[bytes] = []
    for kind, value in ops:
        if kind == "copy":
            out.append(b"R:" + str(value).encode() + b"\n")
        elif kind == "literal":
            out.append(b"L:%d\n" % len(value) + value)  # type: ignore[arg-type]
        else:
            raise DeltaError(f"unknown delta op {kind!r}")
    out.append(b"E:\n")
    return b"".join(out)


def decode_ops(blob: bytes) -> list[tuple[str, object]]:
    """Parse :func:`encode_ops` output; raises :class:`DeltaError` on any
    malformation (truncation, bad lengths, missing terminator)."""
    ops: list[tuple[str, object]] = []
    offset = 0
    n = len(blob)
    while True:
        newline = blob.find(b"\n", offset)
        if newline < 0:
            raise DeltaError("truncated delta op stream")
        line = blob[offset:newline]
        offset = newline + 1
        if line == b"E:":
            if offset != n:
                raise DeltaError("trailing bytes after delta terminator")
            return ops
        if line.startswith(b"R:"):
            ref = line[2:].decode("ascii", errors="replace")
            if len(ref) != CHUNK_ID_HEX or any(
                    c not in "0123456789abcdef" for c in ref):
                raise DeltaError(f"malformed chunk reference {ref!r}")
            ops.append(("copy", ref))
        elif line.startswith(b"L:"):
            try:
                length = int(line[2:])
            except ValueError as exc:
                raise DeltaError(f"malformed literal length {line!r}") from exc
            if length < 0 or offset + length > n:
                raise DeltaError("literal length exceeds delta payload")
            ops.append(("literal", blob[offset:offset + length]))
            offset += length
        else:
            raise DeltaError(f"unknown delta op line {line!r}")
