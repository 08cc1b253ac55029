"""Argument checks and summaries of ``tools/bench_pairs.py``; no benchmark run starts."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_REQUIRED = ["--parent", "p", "--change", "c", "--out", "o.json"]


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_is_a_usage_error(pairs, capsys):
    with pytest.raises(SystemExit) as e:
        bench_pairs.parse_args(_REQUIRED + ["--pairs", pairs])
    assert e.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err


def test_two_pairs_parse():
    assert bench_pairs.parse_args(_REQUIRED + ["--pairs", "2"]).pairs == 2


def _results(values, minflt=None):
    """Synthetic ``run.py`` results, one per run, from {metric: [values]} and
    the faults per op of each run (0 by default)."""
    n = len(next(iter(values.values())))
    minflt = minflt or [0.0] * n
    return [{"metrics": {m: {"value": v[i], "unit": "u"} for m, v in values.items()},
             "correct": True, "attempted": 10, "failed": 0, "minflt_per_op": minflt[i]}
            for i in range(n)]


def test_summarise_computes_the_claim_bar():
    better = {"lat": "lower", "rate": "higher", "rss": "lower"}
    parent = {"lat": [10.0, 11, 12, 13, 14, 15, 16, 17, 18, 19],
              "rate": [5.0] * 10,
              "rss": [100.0] * 10}
    change = {"lat": [9.0, 10, 11, 12, 13, 14, 15, 16, 17, 20],  # 9 of 10 won, gap 1
              "rate": [6.0] * 9 + [4.0],  # 9 of 10 won, gap 1 > IQR 0
              "rss": [90.0] * 8 + [100.0, 100.0]}  # 8 won, 2 ties: gap 10, bar not met
    out = bench_pairs.summarise({"parent": _results(parent), "change": _results(change)},
                                better)
    assert out["change_won_pairs"] == {"lat": 9, "rate": 9, "rss": 8}
    assert out["change_median_gap"] == {"lat": 1.0, "rate": 1.0, "rss": 10.0}
    # the parent's lat IQR is 16.75 - 12.25 = 4.5, wider than the gap
    assert out["parent"]["metrics"]["lat"]["quartiles"] == [12.25, 16.75]
    assert out["gap_wider_than_parent_iqr"] == {"lat": False, "rate": True, "rss": True}
    assert out["claim_bar_met"] == {"lat": False, "rate": True, "rss": False}
    assert out["change"]["attempted"] == 100 and out["change"]["correct"]


def test_summarise_gap_is_negative_when_the_change_is_worse():
    out = bench_pairs.summarise(
        {"parent": _results({"lat": [1.0, 1.0, 1.0]}), "change": _results({"lat": [2.0] * 3})},
        {"lat": "lower"})
    assert out["change_won_pairs"] == {"lat": 0}
    assert out["change_median_gap"] == {"lat": -1.0}
    assert out["gap_wider_than_parent_iqr"] == {"lat": False}
    assert out["claim_bar_met"] == {"lat": False}


def test_summarise_records_the_relative_gap_and_the_report_the_bounds():
    # the change is better on lat by 10% and worse on rate by 20%
    out = bench_pairs.summarise(
        {"parent": _results({"lat": [10.0] * 3, "rate": [5.0] * 3}),
         "change": _results({"lat": [9.0] * 3, "rate": [4.0] * 3})},
        {"lat": "lower", "rate": "higher"})
    assert out["change_relative_gap"] == pytest.approx({"lat": 0.1, "rate": -0.2})
    spec = {"end_to_end": [{"name": "lat", "better": "lower", "bound": 0.25},
                           {"name": "rss", "better": "lower", "bound": 0.1}]}
    assert bench_pairs.end_to_end(spec) == ({"lat": "lower", "rss": "lower"},
                                            {"lat": 0.25, "rss": 0.1})


def test_summarise_says_whether_the_change_median_is_inside_the_parent_iqr():
    # the parent's quartiles are [11.5, 13.25] for lat and [4.75, 6.25] for rate
    parent = {"lat": [10.0, 12, 13, 14], "rate": [4.0, 5, 6, 7]}
    out = bench_pairs.summarise(
        {"parent": _results(parent),
         "change": _results({"lat": [13.25] * 4, "rate": [4.7] * 4})},
        {"lat": "lower", "rate": "higher"})
    assert out["parent"]["metrics"]["lat"]["quartiles"] == [11.5, 13.25]
    assert out["parent"]["metrics"]["rate"]["quartiles"] == [4.75, 6.25]
    assert out["no_worse_than_parent_iqr"] == {"lat": True, "rate": False}
    out = bench_pairs.summarise(
        {"parent": _results(parent),
         "change": _results({"lat": [13.3] * 4, "rate": [9.0] * 4})},
        {"lat": "lower", "rate": "higher"})
    assert out["no_worse_than_parent_iqr"] == {"lat": False, "rate": True}


def test_summarise_says_whether_every_change_run_reads_better_than_every_parent_run():
    # lat is bimodal on the parent side with a wide IQR, and every change
    # run still reads below every parent run; rate's sides overlap at 5.0,
    # and rss ties at 100.0
    parent = {"lat": [69.5, 67.2, 69.9, 67.3], "rate": [4.0, 5.0, 4.5, 4.2],
              "rss": [100.0, 101.0, 102.0, 103.0]}
    change = {"lat": [64.4, 64.2, 64.3, 64.4], "rate": [5.0, 6.0, 5.5, 5.2],
              "rss": [99.0, 100.0, 98.0, 97.0]}
    better = {"lat": "lower", "rate": "higher", "rss": "lower"}
    out = bench_pairs.summarise({"parent": _results(parent), "change": _results(change)},
                                better)
    assert out["change_separated"] == {"lat": True, "rate": False, "rss": False}
    out = bench_pairs.summarise({"parent": _results(change), "change": _results(parent)},
                                better)
    assert out["change_separated"] == {"lat": False, "rate": False, "rss": False}
    change["rate"][0] = 5.01
    out = bench_pairs.summarise({"parent": _results(parent), "change": _results(change)},
                                better)
    assert out["change_separated"]["rate"]


def test_summarise_holds_each_sides_faults_per_op():
    out = bench_pairs.summarise(
        {"parent": _results({"lat": [1.0] * 4}, minflt=[4200.0, 4800.0, 4500.0, 0.0]),
         "change": _results({"lat": [1.0] * 4}, minflt=[3.0, 1.0, 2.0, 9.0])},
        {"lat": "lower"})
    assert out["parent"]["minflt_per_op"] == {
        "median": 4350.0, "quartiles": [3150.0, 4575.0], "values": [4200.0, 4800.0, 4500.0, 0.0]}
    assert out["change"]["minflt_per_op"]["median"] == 2.5


def test_run_once_divides_the_childrens_fault_delta_by_the_ops_attempted(monkeypatch):
    faults = iter([1000, 1000 + 7 * 50])

    class Usage:
        def __init__(self, who):
            assert who == bench_pairs.resource.RUSAGE_CHILDREN
            self.ru_minflt = next(faults)

    class Proc:
        stdout = 'plainscan bench\nmachine\n{"attempted": 7, "metrics": {}}\n'

    monkeypatch.setattr(bench_pairs.resource, "getrusage", Usage)
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: Proc())
    line, result = bench_pairs.run_once(Path("."), "toy-train", 1, 1.0, 0)
    assert line == "machine" and result["minflt_per_op"] == 50.0


def test_host_probe_runs_numpy_alone_at_run_pys_blas_thread_count(monkeypatch):
    calls = []

    class Proc:
        stdout = '{"gemm_ms": 13.0, "elementwise_ms": 1.5}\n'

    def run(cmd, **kwargs):
        calls.append((cmd, kwargs["env"]))
        return Proc()

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.host_probe() == {"gemm_ms": 13.0, "elementwise_ms": 1.5}
    [(cmd, env)] = calls
    assert cmd[1:] == ["-I", "-c", bench_pairs.PROBE] and "plainscan" not in bench_pairs.PROBE
    threads = str(len(bench_pairs.os.sched_getaffinity(0)))
    assert [env[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")] == [
        threads] * 3


def test_the_probe_script_reports_both_timings():
    probe = bench_pairs.host_probe()
    assert set(probe) == {"gemm_ms", "elementwise_ms"} and all(v > 0 for v in probe.values())


def test_bench_workload_probes_the_host_before_and_after_each_pair(monkeypatch):
    log = []

    def probe():
        log.append("probe")
        return {"gemm_ms": float(len(log)), "elementwise_ms": 1.0}

    def run_once(checkout, workload, seed, seconds, trace):
        log.append(f"{checkout} {seed}")
        [result] = _results({"latency_ms.p50": [1.0]})
        return "machine", result

    monkeypatch.setattr(bench_pairs, "host_probe", probe)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    args = bench_pairs.parse_args(_REQUIRED + ["--pairs", "2", "--first-seed", "5"])
    out = bench_pairs.bench_workload(args, "toy-train", 1.0, {"latency_ms.p50": "lower"})
    assert log == ["probe", "p 5", "c 5", "probe", "probe", "c 6", "p 6", "probe"]
    assert out["host_probe"] == [
        {"before": {"gemm_ms": 1.0, "elementwise_ms": 1.0},
         "after": {"gemm_ms": 4.0, "elementwise_ms": 1.0}},
        {"before": {"gemm_ms": 5.0, "elementwise_ms": 1.0},
         "after": {"gemm_ms": 8.0, "elementwise_ms": 1.0}}]
    assert out["host_probe_median"] == {"gemm_ms": 4.5, "elementwise_ms": 1.0}
