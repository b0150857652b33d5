"""Run one workload instance in this (fresh) interpreter; print one JSON line.

    python3 tsrbench/instance.py --workload repo-init --seed 7 --trace 0

``run.py`` starts one such process per instance, so the program's
process-wide memos (signatures, verifications, compression, keypairs,
parses, chunk manifests) start empty every time, as they do for a TSR
meeting new packages.  With ``--trace 1`` the layer tracer wraps the
measured run and the result carries per-layer host time instead of
simulated metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from layers import LayerTracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check,
    fingerprint,
    install_observers,
    metrics,
    paper_view,
)


def run_instance(name: str, seed: int, traced: bool) -> dict:
    workload = WORKLOADS[name]
    observed = install_observers()
    tracer = LayerTracer() if traced else None
    if tracer is not None:
        tracer.install()

    begin = time.perf_counter()
    catalog = workload.inputs(seed)
    inputs_s = time.perf_counter() - begin

    begin = time.perf_counter()
    inst = workload.setup(seed, catalog)
    setup_s = time.perf_counter() - begin

    observed.active = True
    if tracer is not None:
        _, host_s = tracer.root(workload.run, inst)
    else:
        begin = time.perf_counter()
        workload.run(inst)
        host_s = time.perf_counter() - begin
    observed.active = False
    if tracer is not None:
        tracer.uninstall()

    result = {"workload": name, "seed": seed, "traced": traced,
              "inputs_s": inputs_s, "setup_s": setup_s, "host_s": host_s}
    if tracer is None:
        pooled, layer = metrics(workload, inst, observed)
        result.update(pooled=pooled, layer=layer,
                      paper=paper_view(workload, inst, observed))
    else:
        layer, problems = tracer.report(name, host_s)
        result.update(layer=layer, trace_problems=problems,
                      ecalls={entry: list(v) for entry, v
                              in sorted(tracer.ecalls.items())})
    attempted, failed, problems = check(inst)
    result.update(attempted=attempted, failed=failed, problems=problems,
                  fingerprint=fingerprint(inst, observed))
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_instance(args.workload, args.seed, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
