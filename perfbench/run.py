"""Benchmark of the asmdpp command line, with a separate traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run it from the root of a source tree; the package need not be
installed, since every child gets the tree's ``src`` on ``PYTHONPATH``.

``--trace 0`` runs the workload's commands (see ``workloads.py``) as a
user does: one fresh ``python -m asmdpp`` process per command, one at a
time.  It first makes one untimed pass at tiny orders, so ``.pyc``
compilation is not timed, then times the start-up probe
``genfunc --n 1`` several times (``setup_s``), then cycles through the
command list until ``--seconds`` is used up (at least one full pass).
Each child's CPU time and max RSS come from ``os.wait4``, so one heavy
command is never charged to the next.  Every command's stdout is checked;
a command that exits nonzero, times out or prints a wrong answer counts
as failed.

``--trace 1`` reports the per-layer metrics instead: spans around calls
into each module, made by ``layers.py`` in one fresh process per group.

The first stdout line records the environment, the lines after it give
every metric by name and unit, and the last line is the result as JSON:
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(every pass, every command, every span) goes to ``perfbench/out/``.
``--tiny`` runs the same code at orders up to 4 and skips the check of
metric names against BENCHMARK.json; the smoke test uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from spans import Tracer, overhead_per_span, self_times
from workloads import SETUP, WORKLOADS, Command, check_output, commands

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 7
IMPORT_REPEATS = 7
CHILD_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0  # a run must end within 180 s
KEEP_STDOUT_BYTES = 4 << 20
GROUPS = ("verify", "det", "dpp", "asm")

UNITS = (("_per_s", "1/s"), ("_us", "us"), ("_mb", "MB"), ("_s", "s"))


def unit_of(name: str) -> str:
    """Unit of a metric, read from the first dotted part of its name with a unit suffix."""
    for part in name.split("."):
        for suffix, unit in UNITS:
            if part.endswith(suffix):
                return unit
    return "count"


@dataclass
class Child:
    label: str
    exit_code: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    first_line_s: float | None
    sha256: str
    lines: int
    stderr_tail: str
    failure: str | None = None


class Runner:
    """Starts children one at a time, inside the run's overall deadline."""

    def __init__(self, started: float) -> None:
        self.deadline = started + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env.pop("ASMDPP_MAX_N", None)
        # Children cache bytecode as an installed package does, so the
        # warm-up pass keeps compilation (about 70 ms a command) out of the timings.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.children: list[Child] = []

    def run(self, label: str, argv: list[str]) -> tuple[Child, bytes | None]:
        """Run one child to completion; return its record and its stdout if small."""
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.perf_counter())
        sha = hashlib.sha256()
        kept = bytearray()
        err = bytearray()
        lines = 0
        first_line = None
        timed_out = False
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                sel.register(proc.stderr, selectors.EVENT_READ)
                while sel.get_map():
                    remaining = start + timeout - time.perf_counter()
                    if remaining <= 0:
                        timed_out = True
                        proc.kill()
                        break
                    for key, _ in sel.select(remaining):
                        data = os.read(key.fd, 1 << 16)
                        if not data:
                            sel.unregister(key.fileobj)
                        elif key.fileobj is proc.stdout:
                            if first_line is None and b"\n" in data:
                                first_line = time.perf_counter() - start
                            sha.update(data)
                            lines += data.count(b"\n")
                            if len(kept) <= KEEP_STDOUT_BYTES:
                                kept += data
                        else:
                            err = (err + data)[-2000:]
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
        child = Child(
            label=label,
            exit_code=proc.returncode,
            timed_out=timed_out,
            wall_s=time.perf_counter() - start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024,
            first_line_s=first_line,
            sha256=sha.hexdigest(),
            lines=lines,
            stderr_tail=err.decode(errors="replace"),
        )
        if timed_out:
            child.failure = f"timed out after {timeout:.0f} s"
        elif child.exit_code != 0:
            child.failure = f"exit code {child.exit_code}: {child.stderr_tail.strip()[-300:]}"
        self.children.append(child)
        return child, (bytes(kept) if len(kept) <= KEEP_STDOUT_BYTES else None)

    def cli(self, cmd: Command) -> Child:
        """Run one asmdpp command and check its output."""
        child, stdout = self.run(cmd.label, [sys.executable, "-m", "asmdpp", *cmd.args])
        if child.failure is None:
            try:
                child.failure = check_output(cmd, stdout, child.sha256, child.lines)
            except (ValueError, KeyError, TypeError) as exc:
                child.failure = f"unreadable output: {type(exc).__name__}: {exc}"
        return child


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float, tiny: bool) -> tuple[dict, dict]:
    """Time the workload's commands in list order, cycling until ``seconds`` is used.

    The first full pass always runs; after it, a command starts only if
    its median time so far still fits.  Each command's samples reduce to
    medians, and ``wall_s``/``cpu_s`` sum them over the list: the time of
    one typical pass.
    """
    for cmd in commands(workload, seed, tiny=True) + [SETUP]:
        runner.cli(cmd)  # warm-up pass: compiles .pyc, fills the page cache
    setup = [runner.cli(SETUP).wall_s for _ in range(SETUP_REPEATS)]
    cmds = commands(workload, seed, tiny)
    samples: dict[str, list[Child]] = {cmd.label: [] for cmd in cmds}
    start = time.perf_counter()
    for i, cmd in enumerate(itertools.cycle(cmds)):
        if i >= len(cmds):
            typical = statistics.median(c.wall_s for c in samples[cmd.label])
            now = time.perf_counter()
            if now - start + typical > seconds or now + 1.5 * typical > runner.deadline:
                break
        child = runner.cli(cmd)
        if cmd.same_as is not None and child.failure is None:
            if child.sha256 != samples[cmd.same_as][-1].sha256:
                child.failure = f"stdout differs from {cmd.same_as}"
        samples[cmd.label].append(child)

    def median_of(field: str) -> dict[str, float]:
        return {label: statistics.median(getattr(c, field) for c in runs) for label, runs in samples.items()}

    first = [c for cmd in cmds if cmd.first_record for c in samples[cmd.label]]
    metrics = {
        "wall_s": sum(median_of("wall_s").values()),
        "cpu_s": sum(median_of("cpu_s").values()),
        "peak_rss_mb": max(median_of("maxrss_mb").values()),
        "first_record_s": statistics.median(
            c.wall_s if c.first_line_s is None else c.first_line_s for c in first
        ),
        "setup_s": statistics.median(setup),
    }
    record = {label: [asdict(c) for c in runs] for label, runs in samples.items()}
    return metrics, {"setup_s": setup, "samples": record}


def per_layer(runner: Runner, seed: int, tiny: bool) -> tuple[dict, dict]:
    runner.cli(SETUP)  # compiles .pyc before anything is timed
    tracer = Tracer()
    failures: list[str] = []
    overhead = 0.0
    attempted = 0
    metrics: dict[str, float] = {}

    bare, imported = [], []
    for _ in range(IMPORT_REPEATS):
        with tracer.span("python.start"):
            bare.append(runner.run("python -c pass", [sys.executable, "-c", "pass"])[0].wall_s)
        with tracer.span("cli.import"):
            imported.append(
                runner.run("import asmdpp.cli", [sys.executable, "-c", "import asmdpp.cli"])[0].wall_s
            )
    metrics["cli.import_s"] = statistics.median(imported) - statistics.median(bare)

    for group in GROUPS:
        argv = [sys.executable, str(BENCH_DIR / "layers.py"), group, "--seed", str(seed),
                "--out-dir", str(OUT)] + (["--tiny"] if tiny else [])
        with tracer.span(f"group.{group}") as rec:
            child, stdout = runner.run(f"layers {group}", argv)
        if child.failure is not None or stdout is None:
            continue
        try:
            doc = json.loads(stdout.decode().rstrip("\n").rsplit("\n", 1)[-1])
        except ValueError as exc:
            child.failure = f"unreadable layer output: {exc}"
            continue
        tracer.adopt(doc["spans"], rec["id"])
        metrics.update(doc["metrics"])
        failures += [f"{group}: {f}" for f in doc["failures"]]
        attempted += doc["attempted"]
        overhead += doc["overhead_s"]
    own_spans = 2 * IMPORT_REPEATS + len(GROUPS)
    metrics["trace.overhead_s"] = overhead + overhead_per_span() * own_spans
    extra = {"spans": tracer.spans, "self_s": self_times(tracer.spans), "layer_failures": failures,
             "layer_checks": attempted}
    return metrics, extra


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "loadavg": os.getloadavg(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def git_sha() -> str | None:
    """HEAD of the tree's own .git, read from its files (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="orders up to 4 (smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "asmdpp" / "cli.py").is_file():
        print(f"error: no asmdpp sources under {SRC}; run from the root of a source tree",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("env " + json.dumps(env), flush=True)

    runner = Runner(started)
    if args.trace:
        metrics, extra = per_layer(runner, args.seed, args.tiny)
        failures = extra["layer_failures"]
        attempted = len(runner.children) + extra["layer_checks"]
    else:
        metrics, extra = end_to_end(runner, args.workload, args.seed, args.seconds, args.tiny)
        failures = []
        attempted = len(runner.children)
    failures += [f"{c.label}: {c.failure}" for c in runner.children if c.failure]
    failed = len(failures)
    metrics = {k: metrics[k] for k in sorted(metrics)}

    # The result carries the metrics BENCHMARK.json declares; first_record_s
    # and failed_ratio are only printed.  Tiny traced runs name other orders.
    declared = declared_metrics(args.trace)
    if args.tiny and args.trace:
        declared = {k: unit_of(k) for k in metrics}
    result = {k: v for k, v in metrics.items() if k in declared}
    if {k: unit_of(k) for k in result} != declared:
        failures.append(f"metrics differ from BENCHMARK.json: missing {sorted(set(declared) - set(result))}")
        failed = len(failures)

    record = {"env": env, "args": vars(args), "metrics": metrics, "failures": failures, **extra}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    if args.trace:
        print("span self time (s), top 15:")
        for name, self_s in sorted(extra["self_s"].items(), key=lambda kv: -kv[1])[:15]:
            print(f"  {name:40s} {self_s:10.4f}")
    for name, value in metrics.items():
        note = "" if name in result else "  (printed only)"
        print(f"{args.workload} {name} = {value:.6g} {unit_of(name)}{note}")
    print(f"{args.workload} failed_ratio = {failed / max(attempted, 1):.6g} ratio  (printed only; "
          f"{failed} of {attempted} failed)")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in result.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
