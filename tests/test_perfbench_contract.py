"""The benchmark in ``perfbench/`` against this package, read-only.

The benchmark wraps package callables by name and checks each workload's
output against the package's own oracle.  A refactor that renames a
wrapped callable, breaks a traced run or moves the scan away from
``selective_scan_ref`` fails here, in the test suite, rather than in the
benchmark.  About 3 s.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 301
# count_macs of one op; shapes fix them, seeds do not
MACS = {"toy-train": 99_103_104, "l1-infer": 1_082_789_568, "scan-long": 10_551_296}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_traced_and_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](SEED, tmp_path)
    wl.warm_up()
    assert wl.reference_macs == MACS[name]
    tracer = spans.Tracer()
    tracer.install()  # fails on any traced callable that is gone
    tracer.begin_op()
    try:
        out, macs = wl.run()
    finally:
        tracer.end_op()
        tracer.uninstall()
    wl.check(out, macs)
    wl.final_check()
    metrics = spans.layer_metrics(tracer, wl)
    assert metrics["tensor.macs"][0] == MACS[name]
    assert metrics["scan.scan2d_ms"][0] > 0
