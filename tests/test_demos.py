"""Smoke test: the narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import plainscan

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(plainscan.__file__).resolve().parent.parent

# 04_train_toy is left out: it takes about 10 s, and acceptance
# criterion 8 already trains the toy preset end to end.
DEMOS = ["01_scan_geometry.py", "02_selective_scan.py", "03_complexity.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
