"""Seeded package catalogs of a fixed shape.

The generator (``repro.workload.generate_workload``) draws file counts and
payload sizes from heavy-tailed lognormals, so two seeds at one scale can
differ 4x in total files — and host time follows the file count, because
every file is signed.  A benchmark run on one seed would then not be
comparable with a run on another.

``matched_catalog`` keeps the generator's packages (content, scripts,
versions all come from the seed) but picks them from a larger seeded pool
so that the catalog's file-count and payload-size profile matches fixed
quantiles of a reference pool's distributions (the generator's, sampled 928
times).  Every seed therefore does about the same amount of work, while the
bytes differ.

The targets come from a reference pool of a fixed seed, so they follow
the generator if it is recalibrated but do not move with the seed.  Pools
are generated in small chunks, one in memory at a time, and the chunks
holding chosen packages are generated again to keep them.
``isolated_catalog`` does it in a child process, so the pools' largest
payloads do not set the measured process's peak memory.

    PYTHONPATH=src python3 tsrbench/catalog.py '{"seed": 7, "count": 24}' > out.pickle
"""

from __future__ import annotations

import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass, replace

import repro
from repro.workload import generate_workload


#: The pool: ``POOL_CHUNKS`` workloads at ``CHUNK_SCALE`` (58 packages
#: each; at this scale the generator keeps one package of every script
#: category per chunk).  With half as many chunks, both the reference
#: quantiles and the matches are loose enough to spread a catalog's bytes
#: per file twice as widely over seeds.
CHUNK_SCALE = 0.005
POOL_CHUNKS = 16
#: The pool whose quantiles give every seed's shape targets, so the targets
#: follow the generator but do not move with the seed.
REFERENCE_SEED = 0

#: How far (in :func:`_distance` units: |ln files ratio| + |ln bytes
#: ratio|) a scripted package may miss its shape target.
MAX_SCRIPTED_DISTANCE = 0.9

#: The generator's script categories (Tables 1-2): the TSR sanitizes the
#: first five and refuses the other three.
SANITIZABLE = ("empty", "empty_file", "fs_only", "text_only", "user_group")
UNSUPPORTED = ("config_only", "shell", "user_group_config")

#: A package the TSR refuses costs a download but no signing; one is only
#: added while it is this small, so refusals do not move the work.
SMALL_FILES, SMALL_BYTES = 16, 64_000


@dataclass(frozen=True)
class _Shape:
    chunk: int
    name: str
    category: str | None
    files: int
    #: Bytes of the main payload file (the generator writes it first) and
    #: of all files.
    payload: int
    size: int


def _shape(chunk: int, category, package) -> _Shape:
    sizes = [len(f.content) for f in package.files]
    return _Shape(chunk, package.name, category, len(sizes), sizes[0],
                  sum(sizes))


def _quantile(ordered: list, p: float) -> float:
    """The ``p`` quantile of sorted ``ordered``, linearly interpolated."""
    at = p * (len(ordered) - 1)
    low = math.floor(at)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (at - low)


def catalog_targets(shapes: list[_Shape], count: int, low_quantile: float,
                    top_quantile: float) -> list[tuple[float, float]]:
    """``count`` (files, bytes) targets at evenly spaced quantiles, between
    ``low_quantile`` and ``top_quantile``, of the pool's own file counts and
    main-payload sizes.  File-count and payload ranks are paired by a fixed
    stride so that the largest packages by files are not also the largest
    by bytes; a target's bytes add the pool's mean supporting file per
    further file."""
    files = sorted(shape.files for shape in shapes)
    payloads = sorted(shape.payload for shape in shapes)
    support = (sum(shape.size - shape.payload for shape in shapes)
               / max(1, sum(shape.files - 1 for shape in shapes)))
    ps = [low_quantile + (top_quantile - low_quantile) * (i + 0.5) / count
          for i in range(count)]
    stride = next(s for s in (7, 5, 3, 1) if math.gcd(s, count) == 1)
    targets = []
    for i, p in enumerate(ps):
        target_files = _quantile(files, p)
        payload = _quantile(payloads, ps[(i * stride) % count])
        targets.append((target_files,
                        payload + (target_files - 1) * support))
    return targets


def _distance(shape: _Shape, target) -> float:
    files, size = target
    return abs(math.log(shape.files / files)) + abs(math.log(shape.size / size))


def _chunk(seed: int, index: int):
    return generate_workload(scale=CHUNK_SCALE, seed=seed * POOL_CHUNKS + index,
                             with_content=True)


def _pool(seed: int) -> list[_Shape]:
    shapes = []
    for index in range(POOL_CHUNKS):
        chunk = _chunk(seed, index)
        shapes.extend(_shape(index, chunk.category[package.name], package)
                      for package in chunk.packages)
    return shapes


def _select(shapes: list[_Shape], targets: list, unsupported: bool
            ) -> set[_Shape]:
    targets = sorted(targets, reverse=True)
    chosen: set[_Shape] = set()
    for category in SANITIZABLE:
        candidates = [shape for shape in shapes if shape.category == category]
        if not candidates:
            continue
        scripted, target = min(
            ((shape, target) for shape in candidates for target in targets),
            key=lambda pair: _distance(*pair))
        if _distance(scripted, target) > MAX_SCRIPTED_DISTANCE:
            continue  # no package of this category fits any target
        targets.remove(target)
        chosen.add(scripted)
    free = [shape for shape in shapes if shape.category is None]
    for target in targets:
        best = min(free, key=lambda shape: _distance(shape, target))
        free.remove(best)
        chosen.add(best)
    for category in UNSUPPORTED if unsupported else ():
        small = [shape for shape in shapes if shape.category == category
                 and shape.files <= SMALL_FILES and shape.size <= SMALL_BYTES]
        if small:
            chosen.add(small[0])
    return chosen


def matched_catalog(seed: int, count: int, unsupported: bool = True,
                    low_quantile: float = 0.0, top_quantile: float = 0.97):
    """Return a workload record (a pool chunk's, for the suggested EPC size
    the scenario builders read) whose ``packages`` are about ``count``
    packages of the ``seed``'s pool.

    One package of each sanitizable script category is taken (as the
    generator itself keeps one per category at small scales, so the
    script paths run): the one closest to any shape target of
    :func:`catalog_targets`, which it then claims — unless it misses every
    target by more than ``MAX_SCRIPTED_DISTANCE``.  The other targets are
    matched greedily, largest first, among the pool's script-less
    packages.  With ``unsupported``, the first small package of each
    category the TSR refuses is added on top.  Packages are renamed
    ``pkg-<chunk>-<index>``, as chunks reuse names; dependencies on
    packages left out of the catalog are dropped so every package stays
    installable."""
    targets = catalog_targets(_pool(REFERENCE_SEED), count, low_quantile,
                              top_quantile)
    chosen = _select(_pool(seed), targets, unsupported)
    packages, template = [], None
    for index in sorted({shape.chunk for shape in chosen}):
        template = _chunk(seed, index)
        names = {shape.name for shape in chosen if shape.chunk == index}
        rename = {name: f"pkg-{index:02d}-{name[4:]}" for name in names}
        packages.extend(
            replace(package, name=rename[package.name],
                    depends=[rename[name] for name in package.depends
                             if name in rename])
            for package in template.packages if package.name in names)
    return replace(template, packages=packages)


def isolated_catalog(**kwargs):
    """:func:`matched_catalog` run in a child interpreter (its keyword
    arguments as JSON); waits for the child and unpickles what it wrote."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run([sys.executable, os.path.abspath(__file__),
                           json.dumps(kwargs)],
                          capture_output=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    return pickle.loads(done.stdout)


if __name__ == "__main__":
    sys.stdout.buffer.write(pickle.dumps(
        matched_catalog(**json.loads(sys.argv[1]))))
