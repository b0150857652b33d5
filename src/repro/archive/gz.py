"""Deterministic gzip segments and concatenated-stream splitting.

Alpine's apk format is three *concatenated* gzip streams (signature,
control, data).  Package hashes must be stable across rebuilds, so
compression is deterministic: fixed mtime, no filename, fixed OS byte.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import time
import zlib

from repro.util.errors import PackagingError

_GZIP_MAGIC = b"\x1f\x8b"


def gzip_compress(data: bytes, level: int = 6) -> bytes:
    """Compress with a deterministic gzip container (mtime pinned to 0)."""
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb", compresslevel=level, mtime=0) as gz:
        gz.write(data)
    return buffer.getvalue()


# Compression is deterministic (pinned mtime/OS byte), so a segment whose
# uncompressed bytes are unchanged recompresses to exactly the bytes
# produced last time.  The memo keys on the input's SHA-256 instead of the
# input itself so unchanged-segment splicing (archive.apk incremental
# repack) does not pin large uncompressed tars in memory.
_COMPRESS_MEMO: dict[tuple[bytes, int, int], tuple[bytes, float]] = {}
_COMPRESS_MEMO_LIMIT = 512


def gzip_compress_cached(data: bytes, level: int = 6) -> bytes:
    """Memoized :func:`gzip_compress`; byte-identical output."""
    return gzip_compress_cached_with_cost(data, level)[0]


def gzip_compress_cached_with_cost(data: bytes,
                                   level: int = 6) -> tuple[bytes, float]:
    """Memoized compress plus the host seconds the deflate originally
    cost, so enclave-time models can charge memo hits as fresh work."""
    key = (hashlib.sha256(data).digest(), len(data), level)
    hit = _COMPRESS_MEMO.get(key)
    if hit is None:
        if len(_COMPRESS_MEMO) >= _COMPRESS_MEMO_LIMIT:
            _COMPRESS_MEMO.clear()
        started = time.perf_counter()
        compressed = gzip_compress(data, level)
        hit = (compressed, time.perf_counter() - started)
        _COMPRESS_MEMO[key] = hit
    return hit


def clear_compress_memo() -> None:
    """Drop the segment memo (differential tests pin cached == fresh)."""
    _COMPRESS_MEMO.clear()


def gzip_decompress(data: bytes, *, concatenated: bool = False):
    """Inflate gzip ``data``.

    By default ``data`` is exactly one gzip stream (trailing garbage is
    rejected) and the result is its inflated bytes.  With
    ``concatenated=True`` it is a run of concatenated streams, each
    inflated exactly once, and the result lists ``(compressed, inflated)``
    per stream (:func:`inflate_gzip_streams`).  Both shapes share this one
    entry point so that host-time attribution of inflation, which wraps it
    (``tsrbench/layers.py``), sees every inflate.
    """
    if not concatenated:
        decompressor = zlib.decompressobj(wbits=31)
        try:
            out = decompressor.decompress(data)
            out += decompressor.flush()
        except zlib.error as exc:
            raise PackagingError(f"corrupt gzip stream: {exc}") from exc
        if decompressor.unused_data:
            raise PackagingError("trailing data after gzip stream")
        return out
    if not data.startswith(_GZIP_MAGIC):
        raise PackagingError("payload does not start with a gzip stream")
    view = memoryview(data)
    streams: list[tuple[bytes, bytes]] = []
    offset = 0
    while offset < len(data):
        if data[offset:offset + 2] != _GZIP_MAGIC:
            raise PackagingError(f"garbage between gzip streams at offset {offset}")
        decompressor = zlib.decompressobj(wbits=31)
        try:
            inflated = decompressor.decompress(view[offset:])
            inflated += decompressor.flush()
        except zlib.error as exc:
            raise PackagingError(f"corrupt gzip stream at offset {offset}: {exc}") from exc
        if not decompressor.eof:
            raise PackagingError(f"truncated gzip stream at offset {offset}")
        end = len(data) - len(decompressor.unused_data)
        streams.append((data[offset:end], inflated))
        offset = end
    return streams


def inflate_gzip_streams(data: bytes, expected: int | None = None
                         ) -> list[tuple[bytes, bytes]]:
    """Split concatenated gzip streams, inflating each exactly once.

    Returns ``(compressed, inflated)`` per stream: the raw compressed byte
    range (the apk signature is issued over the compressed control
    segment, so byte ranges matter) and its decompressed contents.
    """
    streams = gzip_decompress(data, concatenated=True)
    if expected is not None and len(streams) != expected:
        raise PackagingError(
            f"expected {expected} concatenated gzip streams, found {len(streams)}"
        )
    return streams


def split_gzip_streams(data: bytes, expected: int | None = None) -> list[bytes]:
    """The compressed byte range of each concatenated gzip stream."""
    return [compressed
            for compressed, _ in inflate_gzip_streams(data, expected)]
