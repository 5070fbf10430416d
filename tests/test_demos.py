"""The demo scripts run to completion against the package sources."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

DEMOS = ["bound_vs_montecarlo", "compare_variants", "difficulty_and_schedule", "streaming_covariance",
         "train_and_score"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_clean(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
