"""Named verification suites behind the command-line ``verify``.

Each suite reruns one block of the desk-scale identities and yields one
result per check.  Checks are pure and independent; the report sorts
them by name, so aggregation does not depend on execution order.  All
randomness is drawn from the seed, making reports reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb
from random import Random
from typing import Callable, Iterator

from . import formulas, matrices, oscillating, paths, sixvertex
from .asm import (
    asm_nu_second_form,
    asm_reflect,
    asm_stats,
    enumerate_asms,
    z_asm_brute,
)
from .dpp import (
    dpp_stats,
    enumerate_dpps,
    q_marginal,
    z_dpp_brute,
    z_dpp_brute_w,
    z_dpp_brute_wq,
)
from .linalg import det_poly
from .polynomial import MultiPoly, poly_str

Z3_STRING = "1 + x + x*z + x^2*z + x*y*z + x^2*z^2 + x^3*z^2"


@dataclass(frozen=True)
class CheckResult:
    name: str
    params: dict
    passed: bool
    elapsed: float
    # "<Type>: <message>" of the exception that failed the check, if one did
    error: str | None = None

    def sort_key(self):
        return (self.name, sorted((k, str(v)) for k, v in self.params.items()))


@dataclass
class VerifyReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def sorted_checks(self) -> list[CheckResult]:
        return sorted(self.checks, key=CheckResult.sort_key)

    def text_lines(self) -> list[str]:
        lines = []
        for c in self.sorted_checks():
            status = "PASS" if c.passed else "FAIL"
            params = " ".join(f"{k}={v}" for k, v in sorted(c.params.items()))
            lines.append(f"{status} {self.suite}.{c.name}" + (f" [{params}]" if params else ""))
            if c.error:
                lines.append(f"    error: {c.error}")
        return lines

    def to_json(self, timings: bool = False) -> dict:
        checks = []
        for c in self.sorted_checks():
            item = {"name": c.name, "params": c.params, "passed": c.passed}
            if c.error:
                item["error"] = c.error
            if timings:
                item["elapsed_s"] = round(c.elapsed, 6)
            checks.append(item)
        return {"suite": self.suite, "passed": self.passed, "checks": checks}


@lru_cache(maxsize=8)
def _asms(n: int) -> tuple:
    return tuple(enumerate_asms(n))


@lru_cache(maxsize=8)
def _dpps(n: int) -> tuple:
    return tuple(enumerate_dpps(n))


def _marginal(z: MultiPoly, var: int, value: int) -> int:
    """Number of objects whose statistic number var (0 nu, 1 mu, 2 rho)
    equals value.  The brute-force generating functions are the cell
    counts: the coefficient of x^p y^m z^k counts cell (p, m, k)."""
    return sum(c for exp, c in z.items() if exp[var] == value)


def _timed(run: Callable[[], bool], name: str, params: dict) -> CheckResult:
    start = time.perf_counter()
    error = None
    try:
        ok = bool(run())
    except Exception as exc:
        ok = False
        error = f"{type(exc).__name__}: {exc}"
    return CheckResult(name, params, ok, time.perf_counter() - start, error)


def _suite_theorem1(max_n: int, seed: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        yield _timed(
            lambda n=n: z_asm_brute(n) == z_dpp_brute(n) == matrices.genfunc_det(n),
            "genfunc_triple_equal",
            {"n": n},
        )
    if max_n >= 3:
        yield _timed(
            lambda: poly_str(z_asm_brute(3)) == Z3_STRING,
            "canonical_string",
            {"n": 3},
        )


def _suite_counting(max_n: int, seed: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        yield _timed(
            lambda n=n: len(_asms(n)) == len(_dpps(n)) == formulas.asm_total(n),
            "total_count",
            {"n": n},
        )
        yield _timed(
            lambda n=n: all(
                formulas.refined_total(n, k)
                == _marginal(z_asm_brute(n), 2, k)
                == _marginal(z_dpp_brute(n), 2, k)
                for k in range(n)
            ),
            "refined_count",
            {"n": n},
        )


def _suite_table(max_n: int, seed: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        yield _timed(
            lambda n=n: z_asm_brute(n) == z_dpp_brute(n),
            "cells_agree",
            {"n": n},
        )
    if max_n >= 5:
        yield _timed(
            lambda: z_asm_brute(5).terms.get((3, 1, 2, 0, 0)) == 10
            and z_dpp_brute(5).terms.get((3, 1, 2, 0, 0)) == 10,
            "cell_5_312",
            {"n": 5},
        )


def _sixvertex_checks(n: int) -> bool:
    for a in _asms(n):
        c = sixvertex.asm_to_sixvertex(a)
        if sixvertex.sixvertex_to_asm(c) != a:
            return False
        counts = sixvertex.vertex_counts(c)
        if counts.n_a1 != counts.n_a2 or counts.n_b1 != counts.n_b2:
            return False
        if counts.n_c1 != counts.n_c2 + n:
            return False
        if counts.n_a + counts.n_b + counts.n_c != n * (n - 1) // 2:
            return False
        if counts.row1_a + counts.row1_b != n - 1 or counts.row1_c != 1:
            return False
        s = asm_stats(a)
        if (s.nu, s.mu, s.rho) != (counts.n_a, counts.n_c, counts.row1_a):
            return False
    return True


def _suite_sixvertex(max_n: int, seed: int) -> Iterator[CheckResult]:
    for n in range(1, min(max_n, 5) + 1):
        yield _timed(lambda n=n: _sixvertex_checks(n), "lemmas_and_roundtrip", {"n": n})


def _suite_ik(max_n: int, seed: int) -> Iterator[CheckResult]:
    rng = Random(seed)
    for n in range(2, min(max_n, 4) + 1):
        yield _timed(
            lambda n=n: all(
                sixvertex.ik_determinant_rat(pt)
                == sixvertex.partition_function_explicit(n, pt)
                for pt in (sixvertex.sample_ik_point(n, rng) for _ in range(20))
            ),
            "det_equals_sum",
            {"n": n, "points": 20},
        )
    for n in range(1, min(max_n, 4) + 1):
        yield _timed(
            lambda n=n: sixvertex.check_homogeneous_specialization(
                n, Fraction(3, 2), Fraction(2)
            )
            and sixvertex.check_homogeneous_specialization(n, Fraction(2), Fraction(1, 3)),
            "homogeneous_point",
            {"n": n},
        )
        yield _timed(
            lambda n=n: sixvertex.check_refined_specialization(
                n, Fraction(3, 2), Fraction(2), Fraction(1, 2)
            )
            and sixvertex.check_refined_specialization(
                n, Fraction(2), Fraction(1, 3), Fraction(3)
            ),
            "refined_point",
            {"n": n},
        )


def _suite_lgv(max_n: int, seed: int) -> Iterator[CheckResult]:
    for n in range(1, min(max_n, 5) + 1):
        yield _timed(
            lambda n=n: all(
                paths.path_weight_sum(i, j, n) == paths.direct_path_weight_oracle(i, j, n)
                for i in range(n)
                for j in range(n)
            ),
            "path_sum_oracle",
            {"n": n},
        )
        yield _timed(
            lambda n=n: bool(paths.lgv_nilp_sum(n, refined=True)),
            "family_sum_equals_det",
            {"n": n},
        )
    for n in range(1, max_n + 1):
        yield _timed(
            lambda n=n: det_poly(paths.lgv_matrix(n)) == z_dpp_brute(n),
            "det_equals_brute",
            {"n": n},
        )


def _suite_omega(max_n: int, seed: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        for refined in (False, True):
            yield _timed(
                lambda n=n, refined=refined: matrices.check_omega_relation(n, refined),
                "intertwining",
                {"n": n, "refined": refined},
            )
    yield _timed(
        lambda: not matrices.check_omega_relation(3, True, perturbation=(0, 0)),
        "negative_control",
        {"n": 3},
    )
    for n in range(1, min(max_n, 5) + 1):
        yield _timed(
            lambda n=n: matrices.check_prop_asmdet_rational(n, 20, seed=seed),
            "det_formula_rational",
            {"n": n, "trials": 20},
        )
    for n in range(1, min(max_n, 4) + 1):
        yield _timed(
            lambda n=n: matrices.check_omega_relation_rational(n, 10, seed=seed),
            "det_equality_spot",
            {"n": n, "points": 10},
        )


def _suite_aux(max_n: int, seed: int) -> Iterator[CheckResult]:
    for n in range(1, min(max_n, 5) + 1):
        yield _timed(
            lambda n=n: matrices.check_aux_relations(n), "products_and_dets", {"n": n}
        )
        yield _timed(
            lambda n=n: det_poly(matrices.build("M_BAR_W", n)) == z_dpp_brute_w(n),
            "w_refined_det",
            {"n": n},
        )
        yield _timed(
            lambda n=n: matrices.dpp_det_omega_factor_holds(n),
            "omega_factor",
            {"n": n},
        )
    for n in range(1, min(max_n, 4) + 1):
        yield _timed(
            lambda n=n: matrices.check_weight_determinant(n, Fraction(3, 2), Fraction(2))
            and matrices.check_weight_determinant(n, Fraction(2), Fraction(1, 3)),
            "weight_determinant",
            {"n": n},
        )


def _suite_osc(max_n: int, seed: int) -> Iterator[CheckResult]:
    for p in range(5):
        yield _timed(
            lambda p=p: sum(
                1 for _ in oscillating.enumerate_oscillating((), 2 * p)
            )
            == oscillating.double_factorial_odd(p),
            "empty_shape_size",
            {"p": p},
        )
        yield _timed(
            lambda p=p: oscillating.ascent_distribution(
                oscillating.enumerate_oscillating((), 2 * p)
            )
            == oscillating.delta_ascent_distribution(p),
            "ascent_distribution",
            {"p": p},
        )
        for n in range(1, max_n + 1):
            yield _timed(
                lambda n=n, p=p: _osc_vs_enumeration(n, p),
                "counts_match_enumeration",
                {"n": n, "p": p},
            )
    yield _timed(
        lambda: all(
            oscillating.osc_counts(n, 2)
            == (
                comb(n, 4) + 2 * comb(n + 1, 4),
                comb(n, 4) + 2 * comb(n + 1, 4),
            )
            for n in range(1, 9)
        ),
        "p2_closed_form",
        {},
    )


def _osc_vs_enumeration(n: int, p: int) -> bool:
    asm_side, dpp_side = oscillating.osc_counts(n, p)
    return (
        asm_side == _marginal(z_asm_brute(n), 0, p)
        and dpp_side == _marginal(z_dpp_brute(n), 0, p)
    )


def _m0_roundtrip(n: int) -> bool:
    for a in _asms(n):
        s = asm_stats(a)
        if s.mu != 0:
            continue
        d = formulas.m0_asm_to_dpp(a)
        t = dpp_stats(d, n)
        if (t.nu, t.mu, t.rho) != (s.nu, 0, s.rho):
            return False
        if formulas.m0_dpp_to_asm(d, n) != a:
            return False
    for d in _dpps(n):
        t = dpp_stats(d, n)
        if t.mu != 0:
            continue
        if formulas.m0_asm_to_dpp(formulas.m0_dpp_to_asm(d, n)) != d:
            return False
    return True


def _suite_m0(max_n: int, seed: int) -> Iterator[CheckResult]:
    for n in range(1, max_n + 1):
        yield _timed(lambda n=n: _m0_roundtrip(n), "roundtrip_and_stats", {"n": n})
        yield _timed(
            lambda n=n: z_asm_brute(n).substitute(1, 0) == formulas.z_mu_zero(n)
            and z_dpp_brute(n).substitute(1, 0) == formulas.z_mu_zero(n),
            "mu_zero_genfunc",
            {"n": n},
        )


def _symstat_holds(n: int) -> bool:
    half = n * (n - 1) // 2
    for a in _asms(n):
        r = asm_reflect(a)
        if asm_reflect(r) != a:
            return False
        s, t = asm_stats(a), asm_stats(r)
        if (t.nu, t.mu, t.rho) != (half - s.nu - s.mu, s.mu, n - 1 - s.rho):
            return False
    return True


def _dpp_multiset_symmetry(n: int) -> bool:
    half = n * (n - 1) // 2
    z = z_dpp_brute(n)
    mapped = MultiPoly(
        {(half - p - m, m, n - 1 - k, w, q): c for (p, m, k, w, q), c in z.items()}
    )
    return mapped == z


def _suite_symmetry(max_n: int, seed: int) -> Iterator[CheckResult]:
    for n in range(1, min(max_n, 5) + 1):
        yield _timed(lambda n=n: _symstat_holds(n), "reflection_stats", {"n": n})
        yield _timed(
            lambda n=n: all(
                asm_nu_second_form(a) == asm_stats(a).nu for a in _asms(n)
            ),
            "nu_two_forms",
            {"n": n},
        )
    for n in range(1, max_n + 1):
        yield _timed(
            lambda n=n: _dpp_multiset_symmetry(n), "dpp_multiset", {"n": n}
        )
    for m, order in ((1, 3), (2, 5)):
        if order <= max_n:
            yield _timed(
                lambda m=m, order=order: formulas.vsasm_total(m)
                == sum(1 for a in _asms(order) if asm_reflect(a) == a),
                "reflection_invariant_count",
                {"order": order},
            )


def _suite_parity(max_n: int, seed: int) -> Iterator[CheckResult]:
    for n in range(1, min(max_n, 5) + 1):
        yield _timed(
            lambda n=n: bool(formulas.stanton_parity(n)), "stanton", {"n": n}
        )
        yield _timed(
            lambda n=n: all(lhs == rhs for lhs, rhs in formulas.cdlg_identities(n, 2)),
            "isolated_one_identity",
            {"n": n, "max_m": 2},
        )
    for n in range(1, max_n + 1):
        yield _timed(
            lambda n=n: q_marginal(z_dpp_brute_wq(n)) == formulas.q_factorial_product(n),
            "q_enumeration",
            {"n": n},
        )


def _suite_boundary(max_n: int, seed: int) -> Iterator[CheckResult]:
    for n in range(2, max_n + 1):
        yield _timed(
            lambda n=n: z_asm_brute(n).substitute(2, 0) == z_asm_brute(n - 1).substitute(2, 1)
            and z_dpp_brute(n).substitute(2, 0) == z_dpp_brute(n - 1).substitute(2, 1),
            "z_at_zero_vs_one",
            {"n": n},
        )


SUITES: dict[str, tuple[int, Callable[[int, int], Iterator[CheckResult]]]] = {
    "theorem1": (6, _suite_theorem1),
    "counting": (6, _suite_counting),
    "table": (6, _suite_table),
    "sixvertex": (5, _suite_sixvertex),
    "ik": (4, _suite_ik),
    "lgv": (6, _suite_lgv),
    "omega": (6, _suite_omega),
    "aux": (5, _suite_aux),
    "osc": (6, _suite_osc),
    "m0": (6, _suite_m0),
    "symmetry": (6, _suite_symmetry),
    "parity": (6, _suite_parity),
    "boundary": (6, _suite_boundary),
}


def run_suite(name: str, max_n: int | None = None, seed: int = 0) -> VerifyReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    default_n, fn = SUITES[name]
    bound = default_n if max_n is None else min(max_n, default_n) if max_n > 0 else 1
    report = VerifyReport(name)
    report.checks.extend(fn(bound, seed))
    return report
