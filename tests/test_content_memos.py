"""The process-wide content memos and the sanitizer's charging of their hits.

Deflate, chunk offsets, RSA sign/verify and seeded keypairs are pure
functions of their inputs, so each is memoized per process.  These tests
pin what every memo promises its callers:

* **Byte identity** — a hit returns exactly what a fresh computation does.
* **Recorded cost** — a ``*_with_cost`` hit returns the host seconds the
  original computation measured, never the microseconds of the lookup.
* **Keys** — every input that changes the result is part of the key.
* **Bounds** — a full memo is cleared before the next insert.

The sanitizer charges ``max(elapsed, recorded)`` per phase, so a
sanitize over warm memos accounts at least the recorded enclave work.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive import apk, chunks, gz
from repro.archive.apk import (
    ApkPackage,
    PackageFile,
    clear_parse_memo,
    parse_apk_cached_with_cost,
)
from repro.core.catalog import RepositoryCatalog
from repro.core.policy import DEFAULT_INIT_CONFIG
from repro.core.sanitizer import Sanitizer
from repro.crypto import rsa
from repro.crypto.hashes import sha256_hex
from repro.crypto.rsa import clear_crypto_memos, generate_keypair
from repro.ima.subsystem import ima_signature_with_cost


def _clear_all():
    for clear in (clear_crypto_memos, gz.clear_compress_memo,
                  chunks.clear_chunk_memo, clear_parse_memo):
        clear()


@pytest.fixture(autouse=True)
def _cold_memos():
    """Each test starts cold and leaves no test-made entries behind."""
    _clear_all()
    yield
    _clear_all()


# -- deflate -------------------------------------------------------------------


class TestCompressMemo:
    DATA = bytes(range(256)) * 400

    def test_miss_matches_fresh_and_records_cost(self):
        compressed, cost = gz.gzip_compress_cached_with_cost(self.DATA, 6)
        assert compressed == gz.gzip_compress(self.DATA, 6)
        assert cost > 0.0

    def test_hit_returns_recorded_entry(self):
        first = gz.gzip_compress_cached_with_cost(self.DATA, 6)
        assert gz.gzip_compress_cached_with_cost(self.DATA, 6) == first
        assert gz.gzip_compress_cached(self.DATA, 6) == first[0]

    def test_level_is_part_of_the_key(self):
        fast, _ = gz.gzip_compress_cached_with_cost(self.DATA, 1)
        best, _ = gz.gzip_compress_cached_with_cost(self.DATA, 9)
        assert fast == gz.gzip_compress(self.DATA, 1)
        assert best == gz.gzip_compress(self.DATA, 9)
        assert fast != best
        assert len(gz._COMPRESS_MEMO) == 2

    def test_memo_does_not_pin_the_input(self):
        gz.gzip_compress_cached_with_cost(self.DATA, 6)
        [key] = gz._COMPRESS_MEMO
        assert self.DATA not in key
        assert key[1] == len(self.DATA)

    def test_full_memo_is_cleared_before_insert(self, monkeypatch):
        monkeypatch.setattr(gz, "_COMPRESS_MEMO_LIMIT", 4)
        for i in range(4):
            gz.gzip_compress_cached(bytes([i]) * 100)
        assert len(gz._COMPRESS_MEMO) == 4
        newest = gz.gzip_compress_cached(b"one more")
        assert len(gz._COMPRESS_MEMO) == 1
        assert gz.gzip_compress_cached(b"one more") == newest

    @given(st.binary(max_size=4000), st.sampled_from([1, 6, 9]))
    @settings(max_examples=30)
    def test_cached_matches_fresh_and_round_trips(self, data, level):
        compressed = gz.gzip_compress_cached(data, level)
        assert compressed == gz.gzip_compress(data, level)
        assert gz.gzip_compress_cached(data, level) == compressed
        assert gz.gzip_decompress(compressed) == data


# -- chunk offsets -------------------------------------------------------------


class TestChunkOffsetsMemo:
    def test_bounds_are_part_of_the_key(self):
        data = random.Random(5).randbytes(20_000)
        default = chunks.chunk_offsets(data)
        tight = chunks.chunk_offsets(data, min_size=64, max_size=256)
        assert tight != default
        assert all(end - start <= 256 for start, end in tight)
        chunks.clear_chunk_memo()
        assert chunks.chunk_offsets(data) == default
        assert chunks.chunk_offsets(data, min_size=64, max_size=256) == tight

    def test_full_memo_is_cleared_before_insert(self, monkeypatch):
        monkeypatch.setattr(chunks, "_OFFSETS_LIMIT", 3)
        for i in range(3):
            chunks.chunk_offsets(bytes([i]) * 5000)
        assert len(chunks._OFFSETS_MEMO) == 3
        chunks.chunk_offsets(b"overflow" * 700)
        assert len(chunks._OFFSETS_MEMO) == 1

    @given(st.binary(min_size=1, max_size=6000),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=512))
    @settings(max_examples=30)
    def test_memoized_offsets_match_cold_and_tile(self, data, min_size,
                                                  spread):
        max_size = min_size + spread
        warm = chunks.chunk_offsets(data, min_size, max_size)
        chunks.clear_chunk_memo()
        cold = chunks.chunk_offsets(data, min_size, max_size)
        assert warm == cold
        assert chunks.chunk_offsets(data, min_size, max_size) == cold
        assert cold[0][0] == 0 and cold[-1][1] == len(data)
        assert all(a[1] == b[0] for a, b in zip(cold, cold[1:]))


# -- RSA sign / verify / keypair -----------------------------------------------


class TestSignVerifyMemo:
    def test_sign_hit_returns_recorded_bytes_and_cost(self, rsa_key):
        signature, cost = rsa_key.sign_with_cost(b"memoized payload")
        assert cost > 0.0
        assert rsa_key.sign_with_cost(b"memoized payload") == (signature,
                                                               cost)

    def test_sign_memo_is_per_key(self, rsa_key, rsa_key_alt):
        ours = rsa_key.sign(b"same message")
        theirs = rsa_key_alt.sign(b"same message")
        assert ours != theirs
        assert rsa_key.public_key.verify(b"same message", ours)
        assert not rsa_key.public_key.verify(b"same message", theirs)
        assert rsa_key_alt.public_key.verify(b"same message", theirs)

    def test_sign_seeds_the_verify_memo(self, rsa_key):
        signature = rsa_key.sign(b"self-checked")
        public = rsa_key.public_key
        key = (public.n, public.e, rsa.sha256_bytes(b"self-checked"),
               signature)
        assert key in rsa._VERIFY_MEMO
        assert public.verify_with_cost(b"self-checked",
                                       signature) == rsa._VERIFY_MEMO[key]

    def test_wrong_length_signature_is_false_and_not_memoized(self, rsa_key):
        signature = rsa_key.sign(b"length check")
        before = dict(rsa._VERIFY_MEMO)
        for bad in (signature[:-1], signature + b"\x00", b""):
            assert rsa_key.public_key.verify_with_cost(b"length check",
                                                       bad) == (False, 0.0)
        assert rsa._VERIFY_MEMO == before

    def test_negative_verdict_is_memoized_and_stays_negative(self, rsa_key):
        public = rsa_key.public_key
        forged = bytes(public.size_bytes - 1) + b"\x01"
        verdict, cost = public.verify_with_cost(b"forged", forged)
        assert verdict is False and cost > 0.0
        assert public.verify_with_cost(b"forged", forged) == (False, cost)

    def test_full_memo_is_cleared_before_insert(self, rsa_key, monkeypatch):
        monkeypatch.setattr(rsa, "_MEMO_LIMIT", 2)
        rsa_key.sign(b"first")
        rsa_key.sign(b"second")
        assert len(rsa._SIGN_MEMO) == 2
        third = rsa_key.sign(b"third")
        assert len(rsa._SIGN_MEMO) == 1
        assert rsa_key.public_key.verify(b"third", third)

    def test_clear_crypto_memos_empties_every_memo(self, rsa_key):
        rsa_key.sign(b"to be forgotten")
        generate_keypair(512, seed=3)
        assert rsa._SIGN_MEMO and rsa._VERIFY_MEMO and rsa._KEYPAIR_MEMO
        clear_crypto_memos()
        assert not (rsa._SIGN_MEMO or rsa._VERIFY_MEMO or rsa._KEYPAIR_MEMO)


class TestKeypairMemo:
    def test_seeded_keypair_is_memoized_per_bits_and_seed(self):
        key = generate_keypair(512, seed=21)
        assert generate_keypair(512, seed=21) is key
        other_seed = generate_keypair(512, seed=22)
        other_bits = generate_keypair(768, seed=21)
        assert other_seed.n != key.n and other_bits.n != key.n
        assert other_bits.n.bit_length() == 768
        clear_crypto_memos()
        assert generate_keypair(512, seed=21) == key

    def test_unseeded_keypairs_are_fresh(self):
        first = generate_keypair(512)
        second = generate_keypair(512)
        assert first.n != second.n
        assert not rsa._KEYPAIR_MEMO


# -- sanitizer charging over warm memos ----------------------------------------


def _package():
    return ApkPackage(
        name="memo-demo", version="2.0-r1",
        scripts={".post-install": "mkdir -p /var/lib/memo-demo\n"},
        files=[PackageFile("/usr/bin/memo-demo", b"\x7fELF" * 3000),
               PackageFile("/usr/lib/memo-demo/data", bytes(range(256)) * 40)],
    )


@pytest.fixture
def sanitizer(rsa_key, rsa_key_alt):
    """TSR signing key = rsa_key_alt; upstream builder = rsa_key."""
    return Sanitizer(
        signing_key=rsa_key_alt,
        trusted_signers=[rsa_key.public_key],
        catalog=RepositoryCatalog(),
        init_config=dict(DEFAULT_INIT_CONFIG),
    )


@pytest.fixture
def cold_and_warm(sanitizer, rsa_key):
    blob = _package().build(rsa_key)
    _clear_all()
    cold = sanitizer.sanitize_blob(blob)
    warm = sanitizer.sanitize_blob(blob)
    return blob, cold, warm


class TestSanitizerChargesMemoHits:
    def test_warm_sanitize_is_byte_identical(self, cold_and_warm):
        _, cold, warm = cold_and_warm
        assert warm.blob == cold.blob
        assert warm.sanitized_size == cold.sanitized_size

    def test_warm_verify_charge_covers_recorded_cost(self, cold_and_warm,
                                                     rsa_key):
        blob, _, warm = cold_and_warm
        parsed, _ = parse_apk_cached_with_cost(blob)
        _, recorded = parsed.verify_with_cost([rsa_key.public_key])
        assert recorded > 0.0
        assert warm.timings.verify >= recorded

    def test_warm_sign_charge_covers_recorded_cost(self, cold_and_warm,
                                                   rsa_key_alt):
        _, _, warm = cold_and_warm
        recorded = sum(ima_signature_with_cost(f.content, rsa_key_alt)[1]
                       for f in warm.package.files)
        assert recorded > 0.0
        assert warm.timings.sign >= recorded

    def test_warm_archive_charge_covers_recorded_cost(self, cold_and_warm,
                                                      rsa_key_alt):
        blob, _, warm = cold_and_warm
        _, parse_cost = parse_apk_cached_with_cost(blob)
        _, repack_cost = warm.package.build_with_cost(rsa_key_alt,
                                                      key_name="tsr")
        assert (sha256_hex(blob), len(blob)) in apk._PARSE_MEMO
        assert parse_cost > 0.0 and repack_cost > 0.0
        assert warm.timings.archive >= parse_cost + repack_cost
