"""Steadiness report: how much the benchmark's figures move between runs.

    python3 tsrbench/steady.py --seeds 10              # every workload
    python3 tsrbench/steady.py --workloads repo-init --seeds 5 --repeat 3

Runs ``run.py`` once per seed (1..N) on each workload, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for every end-to-end
metric its median over the runs and the spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to a third of the metric's bound.

``--repeat R`` also re-runs seed 1 R times and counts, per instance, the
distinct fingerprints of its discrete outcomes (published index bytes,
installs, client serial transitions, wire bytes).  One fingerprint means
the simulated outcomes do not depend on host speed; more than one is the
host coupling of simulated time that the cost model is to remove.

Writes the raw results to ``tsrbench/results/`` (ignored by git).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, list[str]]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def fingerprints(lines: list[str]) -> dict[str, str]:
    """instance seed -> fingerprint, from run.py's instance table."""
    found = {}
    for line in lines:
        fields = dict(part.split("=", 1) for part in line.split()
                      if "=" in part)
        if "fingerprint" in fields:
            found[fields["seed"]] = fields["fingerprint"]
    return found


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)

    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            result, _ = run_once(workload, seed, bench["run_seconds"])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)
        with open(os.path.join(out_dir, f"steady-{workload}.json"), "w") as f:
            json.dump(runs, f, indent=1)
        print(f"\n== {workload}: {len(runs)} seeds ==")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            limit = bound / 3
            ok = spread < limit
            steady &= ok and all(run["correct"] for run in runs)
            print(f"  {name:<26} median={mid:12.4f}  spread={spread:7.2%}  "
                  f"limit={limit:7.2%}  {'ok' if ok else 'TOO WIDE'}")
        if args.repeat:
            seen = defaultdict(set)
            for _ in range(args.repeat):
                _, lines = run_once(workload, 1, bench["run_seconds"])
                for seed, digest in fingerprints(lines).items():
                    seen[seed].add(digest)
            print(f"  distinct fingerprints over {args.repeat} runs of seed 1: "
                  + ", ".join(
                      f"{seed}: {len(digests)}"
                      for seed, digests in sorted(seen.items())))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
