"""Argument checks of ``tools/bench_pairs.py``; no benchmark run starts."""

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
