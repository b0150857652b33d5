"""Shared fixtures for the benchmark suite.

Scale knobs:

* ``REPRO_BENCH_SCALE`` — fraction of the paper's 11,581-package Alpine
  repository to generate with real content (default 0.02 ≈ 230 packages).
  Proportions (script census, size distribution) are scale-invariant.
* TSR signing keys are RSA-2048 so per-file signatures are the paper's
  256 bytes; substrate keys are RSA-1024 for speed.

Every bench records a paper-vs-measured table; they are printed in the
terminal summary and written to ``benchmarks/results/``.
"""

from __future__ import annotations

import cProfile
import io
import os
import pathlib
import pstats
import sys

import pytest

from repro.bench.report import recorded_tables
from repro.workload.generator import generate_workload
from repro.workload.scenario import build_scenario

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))
CENSUS_SCALE = float(os.environ.get("REPRO_CENSUS_SCALE", "0.25"))
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: (label, rendered stats) collected by ``maybe_profile``, emitted in the
#: terminal summary after the paper tables.
_PROFILES: list[tuple[str, str]] = []


def pytest_addoption(parser):
    parser.addoption(
        "--profile", action="store_true", default=False,
        help="profile benchmark bodies with cProfile and print the top-20 "
             "functions by cumulative time in the terminal summary",
    )


@pytest.fixture
def maybe_profile(request):
    """Wrapper factory: ``maybe_profile(label, fn)`` returns ``fn``
    unchanged normally, or — when the suite runs with ``--profile`` — a
    wrapper that runs ``fn`` under cProfile and records the top-20
    cumulative table for the terminal summary.  The profiler is enabled
    only *inside* the call so it composes with pytest-benchmark's
    instrumentation pausing (timings are inflated by profiler overhead;
    host-time ceiling asserts are relaxed via ``maybe_profile.enabled``)."""
    enabled = request.config.getoption("--profile")

    def _wrap(label: str, fn):
        if not enabled:
            return fn

        def profiled(*args, **kwargs):
            profiler = cProfile.Profile()
            profiler.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                profiler.disable()
                out = io.StringIO()
                pstats.Stats(profiler, stream=out) \
                    .sort_stats("cumulative").print_stats(20)
                _PROFILES.append((label, out.getvalue()))

        return profiled

    _wrap.enabled = enabled
    return _wrap


def peak_rss_bytes() -> int | None:
    """Peak resident set size, in bytes (None if unavailable).

    ``ru_maxrss`` is the lifetime high-water mark — coarse (it never
    decreases across tests) but exactly the number a memory cap cares
    about.  Linux reports KiB, macOS bytes.
    """
    try:
        import resource
    except ImportError:        # non-POSIX: no RSS source baked in
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if usage <= 0:
        return None
    return int(usage) if sys.platform == "darwin" else int(usage) * 1024


@pytest.fixture(autouse=True)
def record_peak_rss(request):
    """Stamp ``peak_rss_bytes`` into every benchmark's ``extra_info`` so
    each ``BENCH_*.json`` artifact carries the memory high-water mark
    alongside its timings."""
    yield
    benchmark = getattr(request.node, "funcargs", {}).get("benchmark")
    if benchmark is None:
        return
    peak = peak_rss_bytes()
    if peak is not None:
        benchmark.extra_info["peak_rss_bytes"] = peak


@pytest.fixture(scope="session")
def census_workload():
    """Metadata-only workload for script censuses (Tables 1-2): larger
    scale, no file contents."""
    return generate_workload(scale=CENSUS_SCALE, seed=2020, with_content=False)


@pytest.fixture(scope="session")
def content_workload():
    """Content-bearing workload for timing/size experiments."""
    return generate_workload(scale=BENCH_SCALE, seed=2020, with_content=True)


@pytest.fixture(scope="session")
def content_scenario(content_workload):
    """Full deployment over the content workload, first refresh done.

    RSA-2048 TSR key -> 256-byte per-file signatures, as in the paper.
    """
    return build_scenario(workload=content_workload, key_bits=1024,
                          tsr_key_bits=2048)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _PROFILES:
        terminalreporter.write_line("")
        terminalreporter.write_line("=" * 74)
        terminalreporter.write_line("CPROFILE HOTSPOTS (--profile, top 20 by "
                                    "cumulative time)")
        terminalreporter.write_line("=" * 74)
        for label, rendered in _PROFILES:
            terminalreporter.write_line("")
            terminalreporter.write_line(f"-- {label} --")
            for line in rendered.splitlines():
                terminalreporter.write_line(line.rstrip())
    tables = recorded_tables()
    if not tables:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 74)
    terminalreporter.write_line("PAPER-VS-MEASURED TABLES")
    terminalreporter.write_line("=" * 74)
    for table in tables:
        rendered = table.render()
        terminalreporter.write_line("")
        for line in rendered.splitlines():
            terminalreporter.write_line(line)
        slug = table.experiment.lower().replace(" ", "_").replace(".", "")
        (RESULTS_DIR / f"{slug}.txt").write_text(rendered + "\n")
