"""The original repository: where the OS distribution publishes packages."""

from __future__ import annotations

from dataclasses import dataclass

from repro.archive.apk import ApkPackage
from repro.archive.index import IndexEntry, RepositoryIndex
from repro.crypto.hashes import sha256_hex
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.util.errors import PackagingError


@dataclass(frozen=True)
class Snapshot:
    """One published state of the repository: index + package blobs."""

    serial: int
    index_bytes: bytes
    blobs: dict[str, bytes]


class OriginalRepository:
    """Maintains the signed index and package blobs; keeps history so
    replay adversaries have old-but-validly-signed snapshots to serve."""

    def __init__(self, signing_key: RsaPrivateKey):
        self._key = signing_key
        self._blobs: dict[str, bytes] = {}
        self._index = RepositoryIndex(serial=0)
        self._index.sign(self._key)
        self._history: list[Snapshot] = [self.snapshot()]

    @property
    def public_key(self) -> RsaPublicKey:
        return self._key.public_key

    @property
    def serial(self) -> int:
        return self._index.serial

    # -- publishing ----------------------------------------------------------

    def publish(self, package: ApkPackage,
                builder_key: RsaPrivateKey | None = None) -> IndexEntry:
        """Build, sign, and list a package; bumps the index serial.

        ``builder_key`` is the upstream developer/CI signing key; defaults
        to the repository key (common for distro-built packages).
        """
        blob = package.build(builder_key or self._key)
        return self.publish_blob(package.name, package.version, blob,
                                 depends=tuple(package.depends))

    def publish_blob(self, name: str, version: str, blob: bytes,
                     depends: tuple[str, ...] = ()) -> IndexEntry:
        entry = IndexEntry(
            name=name,
            version=version,
            size=len(blob),
            sha256=sha256_hex(blob),
            depends=depends,
        )
        self._blobs[name] = blob
        self._index.add(entry)
        self._index.serial += 1
        self._index.sign(self._key)
        self._history.append(self.snapshot())
        return entry

    def publish_many(self, packages: list[tuple[ApkPackage, RsaPrivateKey | None]]):
        """Publish a batch under one serial bump (one upstream release)."""
        for package, key in packages:
            blob = package.build(key or self._key)
            self._blobs[package.name] = blob
            self._index.add(IndexEntry(
                name=package.name,
                version=package.version,
                size=len(blob),
                sha256=sha256_hex(blob),
                depends=tuple(package.depends),
            ))
        self._index.serial += 1
        self._index.sign(self._key)
        self._history.append(self.snapshot())

    # -- access -----------------------------------------------------------------

    def index_bytes(self) -> bytes:
        return self._index.to_bytes()

    def index(self) -> RepositoryIndex:
        return self._index.copy()

    def package_blob(self, name: str) -> bytes:
        if name not in self._blobs:
            raise PackagingError(f"no such package in repository: {name}")
        return self._blobs[name]

    def package_names(self) -> list[str]:
        return sorted(self._blobs)

    def snapshot(self) -> Snapshot:
        return Snapshot(
            serial=self._index.serial,
            index_bytes=self._index.to_bytes() if self._index.signature else b"",
            blobs=dict(self._blobs),
        )

    def snapshot_at(self, serial: int) -> Snapshot:
        """Historical snapshot — what a replay adversary will serve."""
        for snapshot in self._history:
            if snapshot.serial == serial:
                return snapshot
        raise PackagingError(f"no snapshot with serial {serial}")
