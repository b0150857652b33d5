"""Safety of the process-wide apk parse memo on the client read path.

Every client of a pull wave installs the same signed bytes, so
``parse_apk_cached_with_cost`` parses each blob once per process and
shares the result.  These tests pin what that sharing must not change:
trust decisions stay per client, blobs that fail the index pins never get
in, shared entries are never mutated, and the table stays a bounded LRU.
"""

import pytest

from repro.archive import apk
from repro.archive.apk import (
    ApkPackage,
    PackageFile,
    parse_apk_cached_with_cost,
)
from repro.archive.index import IndexEntry, RepositoryIndex
from repro.crypto.hashes import sha256_hex
from repro.osim.os import IntegrityEnforcedOS
from repro.osim.pkgmgr import PackageManager
from repro.util.errors import IntegrityError, SignatureError


class _Repository:
    """In-process repository: the index and the packages may be signed by
    different keys, so a client can trust one and not the other."""

    def __init__(self, index_key, package_key):
        self._index_key = index_key
        self._package_key = package_key
        self.blobs: dict[str, bytes] = {}
        self.served: dict[str, bytes] = {}
        self._index = RepositoryIndex(serial=1)

    def publish(self, package: ApkPackage) -> bytes:
        blob = package.build(self._package_key, key_name="tsr")
        self.blobs[package.name] = blob
        self._index.add(IndexEntry(name=package.name,
                                   version=package.version,
                                   size=len(blob), sha256=sha256_hex(blob)))
        self._index.sign(self._index_key)
        return blob

    def fetch_index(self) -> bytes:
        return self._index.to_bytes()

    def fetch_package(self, name: str) -> bytes:
        return self.served.get(name, self.blobs[name])


def _package(name: str = "tool", payload: bytes = b"\x7fELF tool") -> ApkPackage:
    return ApkPackage(
        name=name, version="1.0-r0",
        scripts={".post-install": "mkdir -p /var/lib/tool\n"},
        files=[PackageFile(f"/usr/bin/{name}", payload, mode=0o755),
               PackageFile(f"/usr/share/{name}/README", b"docs")],
    )


def _client(repository, trusted_keys, name="client"):
    node = IntegrityEnforcedOS(name)
    node.boot()
    manager = PackageManager(node, repository, trusted_keys=trusted_keys)
    manager.update()
    return node, manager


def _key(blob: bytes) -> tuple[str, int]:
    return sha256_hex(blob), len(blob)


@pytest.fixture(autouse=True)
def cold_memo():
    apk.clear_parse_memo()
    yield
    apk.clear_parse_memo()


class TestTrustStaysPerClient:
    def test_untrusting_node_rejected_with_warm_memo(self, rsa_key,
                                                     rsa_key_alt):
        repository = _Repository(index_key=rsa_key, package_key=rsa_key_alt)
        blob = repository.publish(_package())
        _, trusting = _client(repository,
                              [rsa_key.public_key, rsa_key_alt.public_key])
        trusting.install("tool")
        assert _key(blob) in apk._PARSE_MEMO

        node, skeptic = _client(repository, [rsa_key.public_key], "skeptic")
        with pytest.raises(SignatureError):
            skeptic.install("tool")
        assert not node.fs.exists("/usr/bin/tool")
        assert node.pkgdb.get("tool") is None


class TestPinsGuardTheMemo:
    @pytest.mark.parametrize("tamper", [
        lambda blob: blob + b"\x00",                            # size pin
        lambda blob: blob[:-1] + bytes([blob[-1] ^ 0xFF]),      # hash pin
    ], ids=["size", "hash"])
    def test_failed_pin_never_enters_memo(self, rsa_key, tamper):
        repository = _Repository(index_key=rsa_key, package_key=rsa_key)
        blob = repository.publish(_package())
        bad = tamper(blob)
        repository.served["tool"] = bad
        _, manager = _client(repository, [rsa_key.public_key])
        with pytest.raises(IntegrityError):
            manager.install("tool")
        assert _key(bad) not in apk._PARSE_MEMO
        assert not apk._PARSE_MEMO


class TestSharedEntriesStayPristine:
    def test_entry_equals_fresh_parse_after_two_installs(self, rsa_key):
        repository = _Repository(index_key=rsa_key, package_key=rsa_key)
        blob = repository.publish(_package())
        nodes = []
        for name in ("first", "second"):
            node, manager = _client(repository, [rsa_key.public_key], name)
            manager.install("tool")
            nodes.append(node)
        parsed, _ = apk._PARSE_MEMO[_key(blob)]
        assert parsed == ApkPackage.parse(blob)
        for node in nodes:
            assert node.fs.read_file("/usr/bin/tool") == b"\x7fELF tool"
            assert node.fs.isdir("/var/lib/tool")


class TestBoundedLru:
    @pytest.fixture(scope="class")
    def blobs(self, rsa_key):
        count = apk._PARSE_MEMO_LIMIT + 3
        return [_package(f"p{i}", payload=b"%d" % i).build(rsa_key)
                for i in range(count)]

    def test_serial_path_stays_bounded(self, blobs):
        for blob in blobs:
            parse_apk_cached_with_cost(blob)
            assert len(apk._PARSE_MEMO) <= apk._PARSE_MEMO_LIMIT
        overflow = len(blobs) - apk._PARSE_MEMO_LIMIT
        # The oldest entries went first; the newest are kept in order.
        assert list(apk._PARSE_MEMO) == [_key(b) for b in blobs[overflow:]]

    def test_hit_entry_survives_eviction(self, blobs):
        limit = apk._PARSE_MEMO_LIMIT
        for blob in blobs[:limit]:
            parse_apk_cached_with_cost(blob)
        parse_apk_cached_with_cost(blobs[0])          # hit: now most recent
        parse_apk_cached_with_cost(blobs[limit])      # evicts blobs[1]
        assert _key(blobs[0]) in apk._PARSE_MEMO
        assert _key(blobs[1]) not in apk._PARSE_MEMO
        assert len(apk._PARSE_MEMO) == limit


class TestRecordedCost:
    def test_hit_returns_recorded_cost(self, rsa_key):
        blob = _package().build(rsa_key)
        parsed, cost = parse_apk_cached_with_cost(blob)
        assert cost > 0
        again, again_cost = parse_apk_cached_with_cost(blob)
        assert again is parsed
        assert again_cost == cost
