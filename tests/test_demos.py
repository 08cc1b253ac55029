"""Smoke test: the narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import plainscan

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(plainscan.__file__).resolve().parent.parent

# 04_train_toy takes a few seconds and writes toy_trained.pmwb and
# stripe_sample.ppm into its working directory, so each demo runs in its own
# temporary directory.
DEMOS = ["01_scan_geometry.py", "02_selective_scan.py", "03_complexity.py", "04_train_toy.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
