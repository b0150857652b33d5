"""The repository benchmark: one command, every metric with its unit.

    python3 tsrbench/run.py --workload repo-init --seed 1 --seconds 36 --trace 0

Runs from the root of a checkout of this repository and imports the
program from ``src/``.  A run measures ``instances(seconds)`` instances of
the workload, each in a fresh interpreter (``tsrbench/instance.py``) built
from its own sub-seed of ``--seed``, and pools every simulated metric over
the instances (host metrics: medians).  With ``--trace 1`` the run pairs
each instance with a traced re-run on the same sub-seed and
reports the per-layer metrics instead: simulated layer numbers from the
untraced instance, host layer numbers from the traced one, and the tracing
overhead as their ``host_s`` difference.

Human-readable tables go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Metric definitions: ``tsrbench/README.md``.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import pickle
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Host seconds one instance of any workload takes on a 2-CPU x86 VM
#: (interpreter start, set-up, measured run and checks); ``--seconds`` buys
#: ``round(seconds / NOMINAL_S)`` instances, and never fewer than
#: ``MIN_INSTANCES``.
NOMINAL_S = 12.0
MIN_INSTANCES = 3
#: Instances still running this long after the run began (or three times
#: ``--seconds``, if longer) are killed with any process they started and
#: counted as failed, so a run ends in time.
RUN_BUDGET_S = 170

#: Environment variables that select program behaviour; every run leaves
#: them unset so the program runs its defaults.
PINNED_UNSET = ("REPRO_WORKERS", "REPRO_SOLVER")

#: The paper's numbers printed beside repo-init's (Fig. 8, Fig. 9,
#: Fig. 12, Table 3, Table 4).
PAPER = {
    "sgx_ratio_p50": "1.18x (Fig. 12, per-package p50)",
    "sgx_ratio_total": "1.43x (Fig. 12, whole repository)",
    "size_overhead_pct": "+3.6% whole repository, +12% per-package p50 (Fig. 9)",
    "phase_split": "archive + signing dominate (Fig. 8, Table 4)",
    "publish_lag": "30 min for 11,581 packages, 13 min of it sanitizing (Table 3)",
}


def load_benchmark() -> dict:
    """``BENCHMARK.json``: the workload names and every metric's unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def units(metrics: list[dict]) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in metrics}


def instances(seconds: int) -> int:
    return max(MIN_INSTANCES, round(seconds / NOMINAL_S))


def sub_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def child_env() -> dict:
    env = dict(os.environ)
    for name in PINNED_UNSET:
        env.pop(name, None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(workload: str, seed: int, traced: bool,
              timeout: float) -> dict:
    """One instance in a fresh interpreter; waits for it to end."""
    command = [sys.executable, os.path.join(HERE, "instance.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", "1" if traced else "0"]
    with subprocess.Popen(command, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as child:
        try:
            out, err = child.communicate(timeout=max(timeout, 0.1))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return {"error": f"instance {seed} timed out"}
    if child.returncode != 0 or not out.strip():
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"instance {seed} exited {child.returncode}: "
                         f"{tail[0]}"}
    return json.loads(out.strip().splitlines()[-1])


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def merged(runs: list[dict], key: str):
    """Merge the instances' pickled quantile sketches of ``key``."""
    from repro.util.stats import QuantileSketch

    total = QuantileSketch()
    for run in runs:
        total.merge(pickle.loads(base64.b64decode(run["pooled"][key])))
    return total


def pool_metrics(runs: list[dict], names) -> tuple[dict, dict]:
    """End-to-end values and sample counts of a run's untraced instances.

    Host metrics are medians over instances; simulated latencies are
    percentiles of all instances' samples together, and ratios divide the
    instances' summed numerators by their summed denominators."""
    if not runs:
        return dict.fromkeys(names, 0.0), dict.fromkeys(names, 0)
    values, samples = {}, {}
    for name in ("setup_s", "host_s", "peak_rss_mb"):
        values[name] = median([run[name] for run in runs])
        samples[name] = len(runs)
    total = {key: sum(run["pooled"][key] for run in runs)
             for key in ("sanitized", "sanitize_sim_s", "wire_bytes", "pulls",
                         "sanitized_bytes", "original_bytes")}
    values["sanitize_pkgs_per_s"] = total["sanitized"] / total["sanitize_sim_s"]
    samples["sanitize_pkgs_per_s"] = total["sanitized"]
    values["wire_kb_per_client_round"] = total["wire_bytes"] / 1000 \
        / total["pulls"]
    samples["wire_kb_per_client_round"] = total["pulls"]
    values["size_overhead_pct"] = 100.0 * (
        total["sanitized_bytes"] - total["original_bytes"]) \
        / total["original_bytes"]
    samples["size_overhead_pct"] = int(merged(runs, "overhead").count)
    for name, key, q, scale in (
            ("publish_lag_p50_s", "lag", 50, 1), ("publish_lag_p90_s", "lag", 90, 1),
            ("avail_p50_s", "avail", 50, 1), ("avail_p99_s", "avail", 99, 1),
            ("pull_p50_ms", "pull", 50, 1000), ("pull_p99_ms", "pull", 99, 1000)):
        sketch = merged(runs, key)
        values[name] = scale * sketch.quantile(q)
        samples[name] = int(sketch.count)
    return values, samples


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "unset_for_instances": ",".join(PINNED_UNSET),
        "process_per_instance": True,
    }


def paper_rows(runs: list[dict], metrics: dict) -> list[tuple]:
    """The Fig. 8 / Table 4 phase split, Fig. 12 SGX ratios, Fig. 9 size
    growth and Table 3 initialization time beside the paper's."""
    split = {phase: median([run["paper"]["phase_split"][phase]
                            for run in runs])
             for phase in ("verify", "archive", "scripts", "sign")}
    total = sum(split.values()) or 1.0
    rows = [(f"{phase} phase", f"{seconds:.3f}s", f"{seconds / total:.1%}")
            for phase, seconds in split.items()]
    rows.append(("", f"paper: {PAPER['phase_split']}"))
    for key in ("sgx_ratio_p50", "sgx_ratio_total"):
        rows.append((key, f"{median([run['paper'][key] for run in runs]):.2f}x",
                     f"paper: {PAPER[key]}"))
    rows.append(("size_overhead_pct (whole catalog)",
                 f"{metrics['size_overhead_pct']['value']:+.1f}%",
                 f"per-package p50 {merged(runs, 'overhead').quantile(50):+.1f}%",
                 f"paper: {PAPER['size_overhead_pct']}"))
    rows.append(("publish_lag_p50_s",
                 f"{metrics['publish_lag_p50_s']['value']:.2f}s",
                 f"paper: {PAPER['publish_lag']}"))
    return rows


def print_table(title: str, rows: list[tuple]) -> None:
    print(f"\n== {title} ==")
    for row in rows:
        print("  " + "  ".join(str(cell) for cell in row))


def e2e_metrics(workload: str, plain: list[dict], attempted: int,
                failed: int, unit_of: dict[str, str]) -> dict:
    """Every end-to-end metric of an untraced run, printed with its
    sample count (and, for repo-init, beside the paper's numbers)."""
    values, samples = pool_metrics(plain, unit_of)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in unit_of.items()}
    print_table("end-to-end metrics", [
        (f"{name:<26}", f"{metrics[name]['value']:>14.4f}", f"{unit:<6}",
         f"samples={samples[name]}") for name, unit in unit_of.items()])
    failed_frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':<26} {failed_frac:>14.4f} ratio  "
          f"({failed} of {attempted} attempted)")
    if workload == "repo-init" and plain:
        print_table("repo-init beside the paper", paper_rows(plain, metrics))
    return metrics


def layer_metrics(plain: list[dict], tracedruns: list[dict],
                  unit_of: dict[str, str]) -> tuple[dict, list[str]]:
    """Every per-layer metric of a traced run: simulated layers from the
    untraced instances, host layers from their traced twins.  Also returns
    the names of ``BENCHMARK.json``'s layer metrics no instance measured."""
    values = {
        "trace.overhead_s": [t["host_s"] - p["host_s"]
                             for p, t in zip(plain, tracedruns)],
        "trace.host_s": [t["host_s"] for t in tracedruns]}
    for runs in (plain, tracedruns):
        for name in (runs[0]["layer"] if runs else ()):
            values[name] = [r["layer"][name] for r in runs]
    missing = [name for name in unit_of if not values.get(name)]
    metrics = {name: {"value": median(values.get(name, [])), "unit": unit}
               for name, unit in unit_of.items()}
    print_table("per-layer metrics (median over instances)", [
        (f"{name:<40}", f"{m['value']:>14.4f}", m["unit"])
        for name, m in metrics.items()])
    if tracedruns:
        print_table("sgx.ecall per entry point (first traced instance)", [
            (f"{entry:<32}", f"calls={calls}", f"self={own:.4f}s")
            for entry, (calls, own) in tracedruns[0]["ecalls"].items()])
    return metrics, missing


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources under {ROOT}/src; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    traced = bool(args.trace)
    count = instances(args.seconds)
    if traced:
        count = max(1, count // 2)
    began = time.perf_counter()
    budget = max(RUN_BUDGET_S, 3 * args.seconds)
    plain, tracedruns, errors = [], [], []
    for index in range(count):
        seed = sub_seed(args.seed, index)
        pair = [(plain, False)] + ([(tracedruns, True)] if traced else [])
        for sink, mode in pair:
            result = run_child(args.workload, seed, mode,
                               began + budget - time.perf_counter())
            if "error" in result:
                errors.append(result["error"])
            else:
                sink.append(result)

    env = environment()
    print_table("environment", sorted(env.items()))
    print_table(f"instances of {args.workload} (seed {args.seed})", [
        ("traced" if r["traced"] else "plain", f"seed={r['seed']}",
         f"inputs={r['inputs_s']:.3f}s", f"setup={r['setup_s']:.3f}s",
         f"host={r['host_s']:.3f}s",
         f"rss={r['peak_rss_mb']:.0f}MB",
         f"attempted={r['attempted']}", f"failed={r['failed']}",
         f"fingerprint={r['fingerprint']}")
        for r in plain + tracedruns])

    attempted = sum(r["attempted"] for r in plain + tracedruns)
    failed = sum(r["failed"] for r in plain + tracedruns) + len(errors)
    problems = errors + [p for r in plain + tracedruns for p in r["problems"]]
    problems += [p for r in tracedruns for p in r["trace_problems"]]

    if traced:
        metrics, missing = layer_metrics(plain, tracedruns,
                                         units(bench["per_layer"]))
        problems += [f"layer metric {name} not measured" for name in missing]
    else:
        metrics = e2e_metrics(args.workload, plain, attempted, failed,
                              units(bench["end_to_end"]))
    for problem in problems[:20]:
        print(f"PROBLEM: {problem}")
    print(f"\n{len(plain) + len(tracedruns)} instances in "
          f"{time.perf_counter() - began:.1f}s")
    correct = not problems and bool(plain) and (bool(tracedruns) or not traced)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
