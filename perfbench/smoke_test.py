"""Smoke test of the benchmark harness at tiny orders (n <= 4), so it cannot rot.

    python3 perfbench/smoke_test.py          # or: python3 -m pytest perfbench/smoke_test.py

Runs every workload untraced and the traced layer run through the real
entry point, and checks that each prints a well-formed, correct result.
It also checks that the benchmark refuses to run without the sources.
It takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

END_TO_END = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("env "), lines[0]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
    return result


def test_every_workload_untraced() -> None:
    for workload in WORKLOADS:
        result = _result(_run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", "0", "--tiny"))
        assert set(result["metrics"]) == END_TO_END, workload
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_traced_layers() -> None:
    result = _result(_run(ROOT, "--workload", "det_genfunc", "--seed", "7", "--seconds", "1",
                          "--trace", "1", "--tiny"))
    names = set(result["metrics"])
    for prefix in ("polynomial.", "linalg.", "matrices.", "asm.", "dpp.", "paths.",
                   "sixvertex.", "formulas.", "verify.suite_s.", "cli.", "trace."):
        assert any(n.startswith(prefix) for n in names), prefix


def test_refuses_without_sources() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH_DIR.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = _run(bare, "--workload", "verify_all", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and proc.stdout == "", proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
