"""Every demo script runs to the end with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_runs():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) >= 4
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    for demo in demos:
        result = subprocess.run(
            [sys.executable, "-W", "error", str(demo)], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, f"{demo.name}: {result.stderr}"
