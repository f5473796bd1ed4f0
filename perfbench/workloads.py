"""Workload command lists, pinned outputs and output checks.

Each workload is a fixed list of ``python -m asmdpp`` commands.  The full
lists are what the benchmark times; the tiny lists (every order at most
4) are the untimed warm-up pass and what the smoke test runs.  The seed
only reaches ``verify --seed``: the other commands are exact and take no
random input.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from math import factorial

WORKLOADS = ("verify_all", "det_genfunc", "family_n7")

VERIFY_CHECKS = 191

# sha256 of each command's stdout at the commit that defined the
# benchmark.  `verify-json` hashes the document with `seed` and every
# `elapsed_s` removed, since those differ from run to run by design.
# `genfunc det/brute-asm/brute-dpp` at n = 7 print the same polynomial.
PINNED = {
    "genfunc det n1": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "verify-text": "e35e70dfdbe5b0dc9129d7bcba08e13eedeab7b73a62ebe42958586317ac3e1c",
    "verify-json": "85dfecac00dba674084977ab2c1bdcad216eb4c0226f4c9ce4e0bf2deb24f7b3",
    "genfunc det n9": "1c4bd646638d96223679af93b109ab11b764d0cc69e5600c95becfcfed6b3993",
    "genfunc det n10": "7dc001a0aed80b999d5027acd44d6b4bea0e647e83e6e14d24c054e074f04f83",
    "genfunc det n11": "203d91100da14c525c5e73e163469982b0670a11e04ade957a7fb45a660be2de",
    "genfunc det-w n10": "fcce4ac3a8b387961d3ee049ae253868c71c4aca1bc23e2795ba9b2b40a24e57",
    "genfunc brute-asm n7": "dea14c1a3a3bb06e255d157746c7cba1f81b73ab7c5f27bf3c05a82b676538f5",
    "genfunc brute-dpp n7": "dea14c1a3a3bb06e255d157746c7cba1f81b73ab7c5f27bf3c05a82b676538f5",
    "enumerate dpp n7": "97bd3791d7a5a4c77e2ebe185fa580039b2681fc3de41f2245fbfeb460be6310",
    "enumerate asm n7 limit1": "ac062be57da3663dc761747cf6ff5c92dcec83fad2c2e56307cb34b552691de5",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must satisfy."""

    label: str
    args: tuple[str, ...]
    n: int
    lines: int | None = None  # exact stdout line count, when known
    checks: int | None = None  # exact number of verify checks, when known
    same_as: str | None = None  # label whose stdout this one must equal
    # Its spawn-to-first-stdout-line time is a sample of `first_record_s`.
    # `family_n7` streams the DPP family; in the other workloads a command
    # prints its first line when its work is done, so there the metric is
    # how long a user waits to see anything of the workload's first command.
    first_record: bool = False

    @property
    def kind(self) -> str:
        return self.args[0]


# The CLI start-up probe timed as `setup_s`.
SETUP = Command("genfunc det n1", ("genfunc", "--n", "1"), 1, lines=1)


def asm_total(n: int) -> int:
    """|ASM(n)| = prod_{k<n} (3k+1)! / (n+k)!, the count every route must sum to."""
    num = den = 1
    for k in range(n):
        num *= factorial(3 * k + 1)
        den *= factorial(n + k)
    return num // den


def _genfunc(method: str, n: int, same_as: str | None = None) -> Command:
    args = ("genfunc", "--method", method, "--n", str(n))
    return Command(f"genfunc {method} n{n}", args, n, lines=1, same_as=same_as)


def commands(workload: str, seed: int, tiny: bool = False) -> list[Command]:
    """The workload's command list, in the fixed order it runs."""
    if workload == "verify_all":
        cap, tag, checks = (("--max-n", "3"), " max3", None) if tiny else ((), "", VERIFY_CHECKS)
        text = ("verify", "--suite", "all", *cap, "--seed", str(seed))
        as_json = ("verify", "--suite", "all", *cap, "--format", "json", "--timings",
                   "--seed", str(seed + 1))
        return [
            Command("verify-text" + tag, text, 6, checks=checks, first_record=True),
            Command("verify-json" + tag, as_json, 6, checks=checks),
        ]
    if workload == "det_genfunc":
        orders, w_order = ((2, 3, 4), 3) if tiny else ((9, 10, 11), 10)
        cmds = [_genfunc("det", n) for n in orders] + [_genfunc("det-w", w_order)]
        cmds[0] = replace(cmds[0], first_record=True)
        return cmds
    if workload == "family_n7":
        n = 4 if tiny else 7
        return [
            _genfunc("brute-asm", n),
            _genfunc("brute-dpp", n, same_as=f"genfunc brute-asm n{n}"),
            Command(f"enumerate dpp n{n}", ("enumerate", "--kind", "dpp", "--n", str(n)), n,
                    lines=asm_total(n), first_record=True),
            Command(f"enumerate asm n{n} limit1",
                    ("enumerate", "--kind", "asm", "--n", str(n), "--limit", "1"), n, lines=1),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def coefficient_sum(text: str) -> int:
    """Value at x = y = z = w = q = 1 of a polynomial printed by ``poly_str``."""
    total = 0
    for term in text.strip().replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        head = term.lstrip("-").split("*", 1)[0]
        total += sign * (int(head) if head.isdigit() else 1)
    return total


def _verify_json_digest(doc: dict) -> str:
    doc = dict(doc)
    doc.pop("seed", None)
    for suite in doc["suites"]:
        for check in suite["checks"]:
            check.pop("elapsed_s", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def check_output(cmd: Command, stdout: bytes | None, digest: str, nlines: int) -> str | None:
    """Return why the command's stdout is wrong, or None when it is right.

    ``stdout`` is None when the output was too large to keep; the digest
    and line count still cover it.
    """
    if cmd.lines is not None and nlines != cmd.lines:
        return f"{nlines} stdout lines, expected {cmd.lines}"
    if cmd.kind == "verify":
        if stdout is None:
            return "verify output not kept"
        text = stdout.decode()
        if "--format" in cmd.args:
            doc = json.loads(text)
            checks = [c for s in doc["suites"] for c in s["checks"]]
            if not doc["passed"] or not all(c["passed"] for c in checks):
                return "verify JSON reports a failing check"
            digest = _verify_json_digest(doc)
            ran = len(checks)
        else:
            last = text.rstrip("\n").rsplit("\n", 1)[-1]
            ok, _, counts = last.partition(": ")
            done, _, total = counts.split(" ", 1)[0].partition("/")
            if ok != "OK" or done != total:
                return f"verify summary is {last!r}"
            ran = int(total)
        if cmd.checks is not None and ran != cmd.checks:
            return f"verify ran {ran} checks, expected {cmd.checks}"
    if cmd.kind == "genfunc":
        if stdout is None:
            return "genfunc output not kept"
        value = coefficient_sum(stdout.decode())
        if value != asm_total(cmd.n):
            return f"genfunc at x=y=z=1 is {value}, expected {asm_total(cmd.n)}"
    pinned = PINNED.get(cmd.label)
    if pinned is not None and digest != pinned:
        return f"stdout sha256 {digest[:12]} differs from pinned {pinned[:12]}"
    return None
