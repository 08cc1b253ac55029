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


def _results(values):
    """Synthetic ``run.py`` results, one per run, from {metric: [values]}."""
    n = len(next(iter(values.values())))
    return [{"metrics": {m: {"value": v[i], "unit": "u"} for m, v in values.items()},
             "correct": True, "attempted": 10, "failed": 0} for i in range(n)]


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
