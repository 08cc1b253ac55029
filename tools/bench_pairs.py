"""Alternating parent/change benchmark pairs, summarised as one BENCH JSON file.

Runs ``perfbench/run.py`` from two checkouts, a parent and a change, one
pair per seed, and alternates which side runs first.  For each workload,
side and metric it records the median, the quartiles ``[q1, q3]``, every
value, the seeds and the machine line that ``run.py`` prints.  For each
end-to-end metric it adds how many pairs the change won, the gap between
the medians and that gap relative to the parent's median, whether the
change's median is no worse than the parent's worse quartile, whether the
gap is wider than the parent's IQR, whether both make the bar a claimed
gain must clear, and whether every change run reads better than every parent
run.  The report also holds each end-to-end metric's bound, the
relative worsening the benchmark allows, so that a workload running none of
the changed code can be read beside the claimed one.  With ``--trace-seed``
it adds one traced run (``--trace 1``) per side and workload with the
per-layer metrics.

Each run also records ``minflt_per_op``: the minor page faults of the
``run.py`` process and its children (``RUSAGE_CHILDREN``), divided by the ops
it attempted.  It counts the interpreter's start-up, the set-up probes and
the warm-up op as well, so it is an upper bound on the faults of one op.
Each side's median and quartiles of it are in the workload summary.

Before and after each pair a host probe times a fixed float32 GEMM and a
fixed elementwise loop (``PROBE``) in a fresh interpreter that imports
numpy and not plainscan, with BLAS pinned to the CPUs this process may use,
as ``run.py`` pins it.  Each workload records the probe's timings per pair
and their medians, so that runs, and files, can be read against how fast
the host was at the time.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --first-seed 301 --out BENCH.json

Both checkouts must hold ``perfbench/run.py`` and ``BENCHMARK.json``.
Every workload runs, and the run length and the better direction of each
metric come from the change's ``BENCHMARK.json``, so both sides always run
what the benchmark sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=301)
    p.add_argument("--trace-seed", type=int, help="also run one traced pair with this seed")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:  # the quartiles of each side need two runs
        p.error(f"--pairs must be at least 2, got {args.pairs}")
    return args


# Medians of 15 timed reps, in ms, of a 1024 x 1024 float32 GEMM and of
# exp and an add over 1 Mi float32 values (4 MiB, past L2).
PROBE = """
import json, statistics, time
import numpy as np
rng = np.random.default_rng(0)
a = rng.standard_normal((1024, 1024), dtype=np.float32)
x = rng.standard_normal(1 << 20, dtype=np.float32)
y = np.empty_like(x)
def median_ms(f):
    f()
    times = []
    for _ in range(15):
        t = time.perf_counter()
        f()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)
def elementwise():
    np.exp(x, out=y)
    np.add(y, x, out=y)
print(json.dumps({"gemm_ms": median_ms(lambda: a @ a), "elementwise_ms": median_ms(elementwise)}))
"""


def host_probe():
    """``PROBE``'s timings, from a fresh interpreter (``-I``: no PYTHONPATH,
    so no checkout's package) at ``run.py``'s BLAS thread count."""
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-I", "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """One ``perfbench/run.py`` run; returns (machine line, result JSON), the
    result with the run's ``minflt_per_op`` added."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["minflt_per_op"] = faults / result["attempted"]
    return lines[1], result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "quartiles": [q1, q3], "values": values}


def summarise(runs, better):
    """One workload's summary from its ``run.py`` results, listed per side in pair order.

    Besides each side's metrics and ``minflt_per_op`` it holds, for each
    end-to-end metric, the pairs the change won, the gap between the
    medians (positive when the change is better), that gap over the
    parent's median, whether the change's median is no worse than the
    parent's worse quartile (inside the parent's IQR or better), and whether
    the gap is wider than that IQR, ``q3 - q1``.  ``claim_bar_met`` is the
    bar a claimed gain must clear: at least nine tenths of the pairs won and
    a gap wider than that IQR.  ``change_separated`` says whether every
    change run reads better than every parent run, the reading that still
    tells the sides apart when a metric's spread is wider than its bound
    (a bimodal RSS, say).
    """
    out = {}
    for side, results in runs.items():
        metrics = {name: summary([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        for name, m in metrics.items():
            m["unit"] = results[0]["metrics"][name]["unit"]
        out[side] = {"metrics": metrics, "correct": all(r["correct"] for r in results),
                     "attempted": sum(r["attempted"] for r in results),
                     "failed": sum(r["failed"] for r in results),
                     "minflt_per_op": summary([r["minflt_per_op"] for r in results])}
    wins, gaps, relative, inside, wider, met, separated = {}, {}, {}, {}, {}, {}, {}
    for name, direction in better.items():
        parent, change = out["parent"]["metrics"][name], out["change"]["metrics"][name]
        sign = 1 if direction == "lower" else -1
        pairs = list(zip(parent["values"], change["values"]))
        wins[name] = sum(sign * (p - c) > 0 for p, c in pairs)
        gaps[name] = sign * (parent["median"] - change["median"])
        relative[name] = gaps[name] / parent["median"] if parent["median"] else None
        q1, q3 = parent["quartiles"]
        inside[name] = sign * ((q3 if sign > 0 else q1) - change["median"]) >= 0
        wider[name] = gaps[name] > q3 - q1
        met[name] = wider[name] and wins[name] >= 0.9 * len(pairs)
        # sign * value is smaller the better a run reads
        separated[name] = (max(sign * c for c in change["values"])
                           < min(sign * p for p in parent["values"]))
    out["change_won_pairs"] = wins
    out["change_median_gap"] = gaps
    out["change_relative_gap"] = relative
    out["no_worse_than_parent_iqr"] = inside
    out["gap_wider_than_parent_iqr"] = wider
    out["claim_bar_met"] = met
    out["change_separated"] = separated
    return out


def bench_workload(args, workload, seconds, better):
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    machine, order, probes = set(), [], []
    for i in range(args.pairs):
        seed = args.first_seed + i
        first = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(first[0])
        probes.append({"before": host_probe()})
        for side in first:
            line, result = run_once(sides[side], workload, seed, seconds, 0)
            machine.add(line)
            runs[side].append(result)
            print(f"{workload} seed {seed} {side}: "
                  f"p50 {result['metrics']['latency_ms.p50']['value']:.1f} ms, "
                  f"failed {result['failed']}/{result['attempted']}, "
                  f"{result['minflt_per_op']:.0f} faults/op", flush=True)
        probes[-1]["after"] = host_probe()
        print(f"{workload} seed {seed} host probe: {probes[-1]}", flush=True)
    out = {"seeds": [args.first_seed + i for i in range(args.pairs)], "first": order,
           "machine": sorted(machine), "host_probe": probes,
           "host_probe_median": {name: statistics.median(p[when][name] for p in probes
                                                         for when in ("before", "after"))
                                 for name in probes[0]["before"]}}
    out.update(summarise(runs, better))
    return out


def end_to_end(spec):
    """``({metric: better direction}, {metric: bound})`` from a BENCHMARK.json spec."""
    return ({m["name"]: m["better"] for m in spec["end_to_end"]},
            {m["name"]: m["bound"] for m in spec["end_to_end"]})


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    better, bounds = end_to_end(spec)
    report = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": args.pairs,
        "bounds": bounds,
        "host": f"{platform.machine()} {platform.processor() or ''}".strip(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for name in names:
        report["workloads"][name] = bench_workload(args, name, seconds, better)
    if args.trace_seed is not None:
        report["traced"] = {}
        for name in names:
            traced = {"seed": args.trace_seed}
            for side, checkout in (("parent", args.parent), ("change", args.change)):
                _, result = run_once(checkout, name, args.trace_seed, seconds, 1)
                traced[side] = {k: v["value"] for k, v in result["metrics"].items()}
                traced[side]["failed"] = result["failed"]
            report["traced"][name] = traced
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
