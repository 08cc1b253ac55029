"""plainscan benchmark: one workload per run, in a fresh process.

Run from the root of a plainscan checkout:

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "plainscan"
# Spelled out, not read from workloads.py: importing that loads numpy,
# which has to wait until the BLAS threads are pinned.
WORKLOAD_NAMES = ("toy-train", "l1-infer", "scan-long")
SETUP_REPEATS = 3
# A set-up probe runs one warm-up op, which takes about a second here.
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True, help="generates every input")
    p.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_blas_threads() -> int:
    """Cap BLAS at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def import_package():
    """Import plainscan from this checkout's ``src``, and from nowhere else."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: {PACKAGE} not found; run from the root of a plainscan checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import plainscan

    if Path(plainscan.__file__).resolve().parent != PACKAGE:
        sys.exit(f"error: imported plainscan from {plainscan.__file__}, not {PACKAGE}")


def environment(nproc: int) -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    if libs:
        get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = str(get())
    return (f"nproc={nproc} numpy={np.__version__} blas={blas['name']} {blas['version']} "
            f"blas_threads={threads}")


def set_up(args, workdir):
    """Inputs from the seed, path generation (inside the workload) and a warm-up op."""
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.warm_up()
    return wl


def probe_setup_seconds(args) -> float:
    """Wall time from starting a fresh process until its first op could begin."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if ready.strip() != "ready" or code != 0:
        sys.exit(f"error: set-up probe failed (exit {code})")
    return elapsed


def timed_ops(wl, seconds, tracer=None):
    """Closed loop, one client: the next op starts when the last returns.

    Returns (latencies of the ops that passed their check, ops attempted,
    error messages of the ops that failed).
    """
    latencies, errors, attempted = [], [], 0
    end = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < end:
        gc.collect()  # a finished tape holds cycles; free it outside the window
        if tracer is not None:
            tracer.begin_op()
        attempted += 1
        try:
            start = time.perf_counter()
            try:
                out, macs = wl.run()
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.end_op()
            wl.check(out, macs)
        except Exception as e:  # a failed op is counted, and the loop goes on
            errors.append(f"{type(e).__name__}: {e}")
        else:
            latencies.append(elapsed)
    return latencies, attempted, errors


def final_check(wl, errors):
    try:
        wl.final_check()
    except Exception as e:  # every op reproduced the reference, so all fail with it
        errors.append(f"final check: {type(e).__name__}: {e}")
        return False
    return True


def run_plain(args, workdir):
    setups = [probe_setup_seconds(args) for _ in range(SETUP_REPEATS)]
    wl = set_up(args, workdir)
    latencies, attempted, errors = timed_ops(wl, args.seconds)
    failed = attempted if not final_check(wl, errors) else len(errors)
    n = len(latencies)
    items = n * wl.items_per_op
    rows = [
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        ("latency_ms.p50", 1e3 * statistics.median(latencies) if n else 0.0, "ms", f"n={n} ops"),
        ("items_per_s", items / sum(latencies) if n else 0.0, "1/s", f"n={n} ops, {items} items"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB",
         "ru_maxrss of this process"),
    ]
    report = [f"{name:<18} {value:>12.4f} {unit:<6} ({note})" for name, value, unit, note in rows]
    report.append(f"{'ops_failed_ratio':<18} {failed / attempted:>12.4f} {'':<6} "
                  f"({failed} failed of {attempted} attempted)")
    metrics = {name: (value, unit) for name, value, unit, _ in rows}
    return report, attempted, failed, errors, metrics


def run_traced(args, workdir):
    import tracemalloc

    import spans

    out_dir = ROOT / "perfbench-out"
    tracer = spans.Tracer()
    tracer.install()
    wl = set_up(args, workdir)
    tracer.uninstall()
    # Untraced and traced ops alternate, so drift over the run does not
    # enter the tracing overhead.
    plain, traced, errors, attempted = [], [], [], 0
    end = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < end:
        lat, n, err = timed_ops(wl, 0)
        plain += lat
        tracer.install()
        try:
            lat, m, more = timed_ops(wl, 0, tracer)
        finally:
            tracer.uninstall()
        traced += lat
        attempted += n + m
        errors += err + more
    # One more op with tracemalloc on, for the peaks; its times are not used.
    gc.collect()
    tracer.install()
    tracer.begin_op("memory")
    tracemalloc.start()
    try:
        wl.check(*wl.run())
    except Exception as e:  # counted like any failed op
        errors.append(f"{type(e).__name__}: {e}")
    finally:
        tracemalloc.stop()
        tracer.end_op()
        tracer.uninstall()
    attempted += 1
    failed = attempted if not final_check(wl, errors) else len(errors)

    metrics = spans.layer_metrics(tracer, wl)
    overhead = statistics.median(traced) - statistics.median(plain) if plain and traced else 0.0
    metrics["bench.trace_overhead_ms"] = (1e3 * overhead, "ms")
    out_dir.mkdir(exist_ok=True)
    dump = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(dump)
    report = [f"{name:<28} {value:>14.4f} {unit}" for name, (value, unit) in metrics.items()]
    report.append(f"traced ops n={len(traced)}, untraced ops n={len(plain)}, "
                  f"{len(tracer.spans)} spans written to {dump.relative_to(ROOT)}")
    return report, attempted, failed, errors, metrics


def main(argv=None):
    args = parse_args(argv)
    nproc = pin_blas_threads()
    import_package()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        workdir = Path(tmp)
        if args.setup_probe:
            set_up(args, workdir)
            print("ready", flush=True)
            return 0
        if args.trace:
            report, attempted, failed, errors, metrics = run_traced(args, workdir)
        else:
            report, attempted, failed, errors, metrics = run_plain(args, workdir)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; closed loop, 1 client")
    print(environment(nproc))
    print("\n".join(report))
    for e in errors:
        print(f"failed: {e}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
