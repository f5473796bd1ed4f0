"""Per-layer timings: spans around calls into each asmdpp module.

Run as ``python3 perfbench/layers.py GROUP --seed N [--tiny] --out-dir DIR``
with the repository's ``src`` on ``PYTHONPATH``; ``run.py --trace 1``
starts one fresh process per group, one after another.  Each group
prints one JSON object as its last stdout line: the metrics, the spans,
the failed checks, the number of checks attempted and the estimated
tracing overhead.

Groups:
  verify  every suite in ``SUITES`` order with cold caches, as the CLI runs them
  det     ``det_poly(build("M_BAR", n))`` at each order, then the
          polynomial, ``det_rat`` and ``matrices`` layers on its results
  dpp     DPP enumeration, statistics and the CLI's JSON stream
  asm     ASM enumeration and statistics, then ``paths``, ``sixvertex``
          and ``formulas``

Allocation peaks are the growth of the process's max RSS across the
call, read with ``resource.getrusage``.  The call runs first in its fresh
process, so nothing earlier has raised the high-water mark.  tracemalloc
would slow ``det_poly`` at order 11 about fifteenfold (172 s against
11.5 s), past the benchmark's time limit.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path
from random import Random

from spans import Tracer, duration, overhead_per_span
from workloads import VERIFY_CHECKS, asm_total

from asmdpp import cli, formulas, matrices, paths, sixvertex, verify
from asmdpp.asm import asm_stats, enumerate_asms
from asmdpp.dpp import dpp_stats, enumerate_dpps
from asmdpp.linalg import det_poly, det_rat
from asmdpp.polynomial import poly_str

# Term counts of det M_BAR(n), pinned at the commit that defined the benchmark.
DET_TERMS = {2: 2, 3: 7, 4: 26, 5: 85, 6: 236, 7: 567, 8: 1212, 9: 2361, 10: 4270, 11: 7271}

FULL = {"det": (8, 9, 10, 11), "mul": (7, 4), "family": 7, "nilp": 6, "lgv": 5,
        "ik": 4, "qfact": 6, "omega": 6, "verify_max_n": None}
TINY = {"det": (2, 3, 4), "mul": (3, 2), "family": 4, "nilp": 3, "lgv": 3,
        "ik": 2, "qfact": 3, "omega": 3, "verify_max_n": 3}

ONES = (1, 1, 1, 1, 1)
REPEATS = 5


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Group:
    """Spans, metrics and check results of one group run."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def repeat(self, name: str, fn, times: int = REPEATS):
        """Call ``fn`` ``times`` times, one span each; return (median s, last result)."""
        durations = []
        for _ in range(times):
            with self.tracer.span(name) as rec:
                result = fn()
            durations.append(duration(rec))
        return statistics.median(durations), result


def run_verify(g: Group, scale: dict, seed: int, out_dir: Path) -> None:
    checks = failed = 0
    for name in verify.SUITES:
        with g.tracer.span(f"verify.suite.{name}") as rec:
            report = verify.run_suite(name, scale["verify_max_n"], seed)
        g.metrics[f"verify.suite_s.{name}"] = duration(rec)
        checks += len(report.checks)
        failed += sum(not c.passed for c in report.checks)
    g.metrics["verify.checks"] = checks
    g.metrics["verify.failed"] = failed
    g.check(failed == 0, f"verify: {failed} of {checks} checks failed")
    if scale["verify_max_n"] is None:
        g.check(checks == VERIFY_CHECKS, f"verify ran {checks} checks, expected {VERIFY_CHECKS}")


def run_det(g: Group, scale: dict, seed: int, out_dir: Path) -> None:
    orders = scale["det"]
    big = orders[-1]
    g.metrics["matrices.build_s"], m_big = g.repeat("matrices.build", lambda: matrices.build("M_BAR", big))
    dets = {}
    before = _maxrss_mb()
    for n in (big,) + orders[:-1]:
        m = m_big if n == big else matrices.build("M_BAR", n)
        with g.tracer.span(f"linalg.det_minors.n{n}") as rec:
            dets[n] = det_poly(m)
        if n == big:
            g.metrics[f"linalg.det_peak_alloc_mb.n{n}"] = _maxrss_mb() - before
        g.metrics[f"linalg.det_minors_s.n{n}"] = duration(rec)
        g.metrics[f"linalg.det_result_terms.n{n}"] = len(dets[n].terms)
        g.check(len(dets[n].terms) == DET_TERMS[n], f"det M_BAR({n}) has {len(dets[n].terms)} terms")
        g.check(dets[n].evaluate(ONES) == asm_total(n), f"det M_BAR({n}) at 1 is not A({n})")

    a_n, b_n = scale["mul"]
    a = det_poly(matrices.build("M_BAR", a_n))
    b = det_poly(matrices.build("M_BAR", b_n))
    mul_s, product = g.repeat("polynomial.mul", lambda: a * b)
    g.metrics["polynomial.mul_s"] = mul_s
    g.metrics["polynomial.mul_pairs_per_s"] = len(a.terms) * len(b.terms) / mul_s
    g.check(product.evaluate(ONES) == asm_total(a_n) * asm_total(b_n), "product at 1")
    second = orders[-2]
    g.metrics["polynomial.add_s"], total = g.repeat("polynomial.add", lambda: dets[big] + dets[second])
    g.check(total.evaluate(ONES) == asm_total(big) + asm_total(second), "sum at 1")
    g.metrics["polynomial.str_s"], text = g.repeat("polynomial.str", lambda: poly_str(dets[big]), 3)
    g.check(text.count(" + ") + 1 == DET_TERMS[big], "poly_str term count")

    # det_rat on M_BAR at a seeded rational point, checked against the
    # symbolic determinant evaluated at the same point.
    rng = Random(seed)
    point = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)) + (1, 1)
    rat = matrices.evaluate_matrix_rat(matrices.build("M_BAR", second), point)
    g.metrics["linalg.det_rat_s"], value = g.repeat("linalg.det_rat", lambda: det_rat(rat))
    g.check(value == dets[second].evaluate(point), f"det_rat of M_BAR({second}) at {point}")

    omega_n = scale["omega"]
    omega_s, holds = g.repeat("matrices.omega_relation", lambda: matrices.check_omega_relation(omega_n))
    g.metrics[f"matrices.omega_relation_s.n{omega_n}"] = omega_s
    g.check(holds, f"omega relation at order {omega_n}")


def run_dpp(g: Group, scale: dict, seed: int, out_dir: Path) -> None:
    n = scale["family"]
    before = _maxrss_mb()
    with g.tracer.span("dpp.enumerate") as whole:
        with g.tracer.span("dpp.first_yield") as first:
            it = enumerate_dpps(n)
            objs = [next(it)]
        g.metrics[f"dpp.peak_alloc_mb.n{n}"] = _maxrss_mb() - before
        objs.extend(it)
    g.metrics[f"dpp.first_yield_s.n{n}"] = duration(first)
    g.metrics[f"dpp.enumerate_per_s.n{n}"] = len(objs) / duration(whole)
    g.check(len(objs) == asm_total(n), f"{len(objs)} DPPs of order {n}")
    with g.tracer.span("dpp.stats") as rec:
        stats = [dpp_stats(d, n) for d in objs]
    g.metrics[f"dpp.stats_us.n{n}"] = duration(rec) / len(objs) * 1e6
    g.check(sum(s.mu == 0 for s in stats) == factorial(n), "DPPs with mu = 0 number n!")
    del objs, stats

    target = out_dir / f"stream-dpp-n{n}.ndjson"
    try:
        with g.tracer.span("cli.stream") as rec:
            code = cli.main(["enumerate", "--kind", "dpp", "--n", str(n), "--output", str(target)])
        with target.open("rb") as fh:
            lines = sum(1 for _ in fh)
    finally:
        target.unlink(missing_ok=True)
    g.metrics["cli.stream_per_s"] = lines / duration(rec)
    g.check(code == 0 and lines == asm_total(n), f"enumerate stream: exit {code}, {lines} lines")


def run_asm(g: Group, scale: dict, seed: int, out_dir: Path) -> None:
    n = scale["family"]
    with g.tracer.span("asm.enumerate") as rec:
        objs = list(enumerate_asms(n))
    g.metrics[f"asm.enumerate_per_s.n{n}"] = len(objs) / duration(rec)
    g.check(len(objs) == asm_total(n), f"{len(objs)} ASMs of order {n}")
    with g.tracer.span("asm.stats") as rec:
        stats = [asm_stats(a) for a in objs]
    g.metrics[f"asm.stats_us.n{n}"] = duration(rec) / len(objs) * 1e6
    g.check(sum(s.mu == 0 for s in stats) == factorial(n), "ASMs with mu = 0 are the n! permutations")
    del objs, stats

    nilp_n = scale["nilp"]
    with g.tracer.span("paths.nilp_enumerate") as rec:
        families = sum(1 for _ in paths.enumerate_nilp_families(nilp_n))
    g.metrics[f"paths.nilp_enumerate_per_s.n{nilp_n}"] = families / duration(rec)
    g.check(families == asm_total(nilp_n), f"{families} path families of order {nilp_n}")
    lgv_n = scale["lgv"]
    lgv_s, fam_sum = g.repeat("paths.lgv_nilp_sum", lambda: paths.lgv_nilp_sum(lgv_n, refined=True))
    g.metrics[f"paths.lgv_nilp_sum_s.n{lgv_n}"] = lgv_s
    g.check(fam_sum.evaluate(ONES) == asm_total(lgv_n), f"LGV family sum of order {lgv_n}")

    ik_n = scale["ik"]
    rng = Random(seed)
    points = [sixvertex.sample_ik_point(ik_n, rng) for _ in range(20)]
    with g.tracer.span("sixvertex.ik_det_rat") as rec:
        dets = [sixvertex.ik_determinant_rat(pt) for pt in points]
    g.metrics[f"sixvertex.ik_det_rat_s.n{ik_n}"] = duration(rec)
    with g.tracer.span("sixvertex.partition_explicit") as rec:
        sums = [sixvertex.partition_function_explicit(ik_n, pt) for pt in points]
    g.metrics[f"sixvertex.partition_explicit_s.n{ik_n}"] = duration(rec)
    g.check(dets == sums, f"Izergin-Korepin determinant against the explicit sum, order {ik_n}")

    q_n = scale["qfact"]
    q_s, product = g.repeat("formulas.q_factorial_product", lambda: formulas.q_factorial_product(q_n))
    g.metrics[f"formulas.q_factorial_product_s.n{q_n}"] = q_s
    g.check(product.evaluate(ONES) == asm_total(q_n), f"q-factorial product of order {q_n} at q = 1")


GROUPS = {"verify": run_verify, "det": run_det, "dpp": run_dpp, "asm": run_asm}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("group", choices=tuple(GROUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    g = Group()
    GROUPS[args.group](g, TINY if args.tiny else FULL, args.seed, Path(args.out_dir))
    result = {
        "metrics": g.metrics,
        "spans": g.tracer.spans,
        "failures": g.failures,
        "attempted": g.attempted,
        "overhead_s": overhead_per_span() * len(g.tracer.spans),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
