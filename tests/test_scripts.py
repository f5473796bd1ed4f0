"""The entry points in scripts/ run against the current library."""

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_statistics_report_runs():
    proc = _run_script("statistics_report.py", "--max-n", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "== order 3: 7 objects per family (formula 7)" in lines
    assert "   Z = 1 + x + x*z + x^2*z + x*y*z + x^2*z^2 + x^3*z^2" in lines
    assert "   7 occupied (nu, mu, rho) cells, all equal" in lines
    assert "   refined counts by rho: [2, 3, 2] (formula [2, 3, 2])" in lines


def test_statistics_report_refuses_an_order_before_any_output():
    # at --max-n 8 the report used to print orders 1-7 (over 10 s) before
    # the brute-force cap refused order 8
    for max_n, message in (
        ("0", "order must be at least 1"),
        ("8", "brute-force generating function capped at order 7"),
    ):
        started = time.perf_counter()
        proc = _run_script("statistics_report.py", "--max-n", max_n)
        assert time.perf_counter() - started < 2, max_n
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
