"""The benchmark harness must keep running against the current library."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_test_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke_test.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
