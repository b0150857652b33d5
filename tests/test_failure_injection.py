"""Failure injection across the full stack: partitions, dead mirrors,
enclave restarts mid-operation, corrupted caches and downloads."""

import pytest

from repro.archive.apk import ApkPackage, PackageFile
from repro.mirrors.builder import MirrorSpec
from repro.mirrors.mirror import MirrorBehavior
from repro.simnet.latency import Continent
from repro.util.errors import (
    NetworkError,
    PolicyError,
    QuorumError,
    RollbackError,
)
from repro.workload.scenario import build_scenario


def _packages():
    return [
        ApkPackage(name="musl", version="1.1.24-r2",
                   files=[PackageFile("/lib/ld-musl.so", b"\x7fELF musl")]),
        ApkPackage(name="zlib", version="1.2.11-r3", depends=["musl"],
                   files=[PackageFile("/lib/libz.so.1", b"\x7fELF zlib")]),
    ]


FIVE_MIRRORS = tuple(
    MirrorSpec(f"mirror-{i}", continent)
    for i, continent in enumerate([
        Continent.EUROPE, Continent.EUROPE, Continent.EUROPE,
        Continent.NORTH_AMERICA, Continent.ASIA,
    ])
)


class TestMirrorFailures:
    def test_refresh_survives_minority_outage(self):
        scenario = build_scenario(packages=_packages(),
                                  mirror_specs=FIVE_MIRRORS,
                                  key_bits=1024, refresh=False,
                                  with_monitor=False)
        scenario.network.set_down("mirror-0")
        scenario.network.set_down("mirror-1")
        report = scenario.refresh()
        assert report.sanitized == 2

    def test_refresh_fails_cleanly_on_majority_outage(self):
        scenario = build_scenario(packages=_packages(),
                                  mirror_specs=FIVE_MIRRORS,
                                  key_bits=1024, refresh=False,
                                  with_monitor=False)
        for name in ("mirror-0", "mirror-1", "mirror-2"):
            scenario.network.set_down(name)
        with pytest.raises(QuorumError):
            scenario.refresh()

    def test_partition_to_fastest_mirrors_falls_back(self):
        """The adversary cuts TSR off from the EU mirrors; the quorum
        widens to the slower continents and still succeeds."""
        scenario = build_scenario(packages=_packages(),
                                  mirror_specs=FIVE_MIRRORS,
                                  key_bits=1024, refresh=False,
                                  with_monitor=False)
        scenario.network.partition("tsr.example", "mirror-0")
        scenario.network.partition("tsr.example", "mirror-1")
        report = scenario.refresh()
        assert report.sanitized == 2

    def test_download_survives_corrupt_fastest_mirror(self):
        specs = (
            MirrorSpec("corrupt-eu", Continent.EUROPE,
                       behavior=MirrorBehavior.CORRUPT),
            MirrorSpec("honest-eu", Continent.EUROPE),
            MirrorSpec("honest-na", Continent.NORTH_AMERICA),
        )
        scenario = build_scenario(packages=_packages(), mirror_specs=specs,
                                  key_bits=1024, with_monitor=False)
        assert scenario.refresh_report.sanitized == 2

    def test_all_package_sources_corrupt_fails_cleanly(self):
        specs = (
            MirrorSpec("corrupt-1", Continent.EUROPE,
                       behavior=MirrorBehavior.CORRUPT),
            MirrorSpec("corrupt-2", Continent.EUROPE,
                       behavior=MirrorBehavior.CORRUPT),
            MirrorSpec("corrupt-3", Continent.EUROPE,
                       behavior=MirrorBehavior.CORRUPT),
        )
        # The index is consistent (corruption only hits package payloads),
        # so the quorum succeeds but every download fails verification.
        scenario = build_scenario(packages=_packages(), mirror_specs=specs,
                                  key_bits=1024, refresh=False,
                                  with_monitor=False)
        with pytest.raises(NetworkError):
            scenario.refresh()


class TestPipelinedDownload:
    def test_pipelined_refresh_equivalent_and_faster(self):
        a = build_scenario(packages=_packages(), key_bits=1024,
                           refresh=False, with_monitor=False)
        seq = a.tsr.refresh(a.repo_id)
        b = build_scenario(packages=_packages(), key_bits=1024,
                           refresh=False, with_monitor=False)
        pipe = b.tsr.refresh(b.repo_id, pipelined=True)
        assert pipe.sanitized == seq.sanitized
        # Wall-clock, not download_elapsed: the pipelined report counts
        # downloads as resource-seconds summed over concurrent streams.
        assert pipe.total_elapsed < seq.total_elapsed
        # Both tenants serve byte-identical indexes (same enclave build,
        # same derived key, same content).
        assert a.tsr.get_index_bytes(a.repo_id) == \
            b.tsr.get_index_bytes(b.repo_id)

    def test_pipelined_survives_corrupt_mirror(self):
        specs = (
            MirrorSpec("corrupt-eu", Continent.EUROPE,
                       behavior=MirrorBehavior.CORRUPT),
            MirrorSpec("honest-1", Continent.EUROPE),
            MirrorSpec("honest-2", Continent.EUROPE),
        )
        scenario = build_scenario(packages=_packages(), mirror_specs=specs,
                                  key_bits=1024, refresh=False,
                                  with_monitor=False)
        report = scenario.tsr.refresh(scenario.repo_id, pipelined=True)
        assert report.sanitized == 2

    def test_stream_cap_validated(self):
        scenario = build_scenario(packages=_packages(), key_bits=1024,
                                  refresh=False, with_monitor=False)
        with pytest.raises(ValueError):
            scenario.tsr.refresh(scenario.repo_id, pipelined=True,
                                 max_streams=0)

    @pytest.mark.parametrize("max_streams", [0, 2])
    def test_stream_cap_requires_pipelined(self, max_streams):
        # The phased path downloads one package at a time: a stream cap
        # there is a caller error, not a silently ignored knob.
        scenario = build_scenario(packages=_packages(), key_bits=1024,
                                  refresh=False, with_monitor=False)
        with pytest.raises(ValueError, match="pipelined"):
            scenario.tsr.refresh(scenario.repo_id, max_streams=max_streams)
        with pytest.raises(ValueError, match="pipelined"):
            scenario.refresh(max_streams=max_streams)
        # Nothing ran: the repository still has no sanitized index.
        with pytest.raises(PolicyError):
            scenario.tsr.get_index_bytes(scenario.repo_id)


class TestTsrLifecycle:
    def test_restart_between_refreshes(self):
        scenario = build_scenario(packages=_packages(), key_bits=1024,
                                  with_monitor=False)
        scenario.tsr.restart()
        scenario.origin.publish(ApkPackage(
            name="musl", version="1.1.24-r3",
            files=[PackageFile("/lib/ld-musl.so", b"\x7fELF r3")],
        ))
        scenario.sync_mirrors()
        report = scenario.tsr.refresh(scenario.repo_id)
        assert report.changed_packages == ["musl"]
        # Serving still works after restart + incremental refresh.
        blob = scenario.tsr.serve_package(scenario.repo_id, "musl")
        assert ApkPackage.parse(blob).verify([scenario.tsr_public_key])

    def test_restart_key_stability(self):
        """Clients keep a long-lived public key: the enclave re-derives
        the same signing key after restart (sealing-key-derived seeds)."""
        scenario = build_scenario(packages=_packages(), key_bits=1024,
                                  with_monitor=False)
        before = scenario.tsr.public_key_pem(scenario.repo_id)
        scenario.tsr.restart()
        assert scenario.tsr.public_key_pem(scenario.repo_id) == before

    def test_missing_sealed_state_detected(self):
        from repro.core.service import SEALED_STATE_PATH
        scenario = build_scenario(packages=_packages(), key_bits=1024,
                                  with_monitor=False)
        scenario.tsr.cache.disk.remove(SEALED_STATE_PATH)
        with pytest.raises(RollbackError):
            scenario.tsr.restart()

    def test_node_install_fails_cleanly_when_tsr_down(self):
        scenario = build_scenario(packages=_packages(), key_bits=1024,
                                  with_monitor=False)
        node, pm = scenario.new_node()
        pm.update()
        scenario.network.set_down("tsr.example")
        with pytest.raises(NetworkError):
            pm.install("musl")
        # Node state is unchanged: nothing half-installed.
        assert node.pkgdb.all() == []

    def test_cache_invalidation_forces_unavailability(self):
        scenario = build_scenario(packages=_packages(), key_bits=1024,
                                  with_monitor=False)
        scenario.tsr.cache.invalidate(scenario.repo_id, "musl")
        with pytest.raises(NetworkError):
            scenario.tsr.serve_package(scenario.repo_id, "musl")
        # zlib is untouched.
        assert scenario.tsr.serve_package(scenario.repo_id, "zlib")
