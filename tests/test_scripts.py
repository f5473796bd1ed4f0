"""The entry points in scripts/ run against the current library."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def test_statistics_report_runs():
    lines = _run_script("statistics_report.py", "--max-n", "3")
    assert "== order 3: 7 objects per family (formula 7)" in lines
    assert "   Z = 1 + x + x*z + x^2*z + x*y*z + x^2*z^2 + x^3*z^2" in lines
    assert "   7 occupied (nu, mu, rho) cells, all equal" in lines
    assert "   refined counts by rho: [2, 3, 2] (formula [2, 3, 2])" in lines

