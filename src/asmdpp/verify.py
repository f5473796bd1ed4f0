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
from typing import Callable, Iterable, Iterator

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
    q_sum_of_parts,
    z_dpp_brute,
    z_dpp_brute_w,
)
from .limits import check_order
from .linalg import det_poly
from .polynomial import X_IDX, Y_IDX, Z_IDX, MultiPoly, marginal, poly_str

Z3_STRING = "1 + x + x*z + x^2*z + x*y*z + x^2*z^2 + x^3*z^2"

# (q, rho0, s1) of the six-vertex specializations and the weight
# determinant, which reads q and rho0 only
POINTS = (
    (Fraction(3, 2), Fraction(2), Fraction(1, 2)),
    (Fraction(2), Fraction(1, 3), Fraction(3)),
)


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


def _timed(run: Callable[[], bool], name: str, params: dict) -> CheckResult:
    start = time.perf_counter()
    error = None
    try:
        ok = bool(run())
    except Exception as exc:
        ok = False
        error = f"{type(exc).__name__}: {exc}"
    return CheckResult(name, params, ok, time.perf_counter() - start, error)


def _each_n(
    name: str, check: Callable[[int], bool], orders: Iterable[int], **params
) -> Iterator[CheckResult]:
    """One result of ``check(n)`` per order n; ``params`` are reported
    beside n."""
    for n in orders:
        yield _timed(lambda: check(n), name, {"n": n, **params})


def _suite_theorem1(max_n: int, seed: int) -> Iterator[CheckResult]:
    yield from _each_n(
        "genfunc_triple_equal",
        lambda n: z_asm_brute(n) == z_dpp_brute(n) == matrices.genfunc_det(n),
        range(1, max_n + 1),
    )
    if max_n >= 3:
        yield _timed(lambda: poly_str(z_asm_brute(3)) == Z3_STRING, "canonical_string", {"n": 3})


def _refined_count(n: int) -> bool:
    # the coefficient of x^p y^m z^k in a brute-force generating function
    # counts cell (p, m, k), so its z-marginal counts the objects by rho
    asm_side = marginal(z_asm_brute(n), Z_IDX)
    dpp_side = marginal(z_dpp_brute(n), Z_IDX)
    return all(
        formulas.refined_total(n, k) == asm_side[k] == dpp_side[k] for k in range(n)
    )


def _suite_counting(max_n: int, seed: int) -> Iterator[CheckResult]:
    yield from _each_n(
        "total_count",
        lambda n: len(_asms(n)) == len(_dpps(n)) == formulas.asm_total(n),
        range(1, max_n + 1),
    )
    yield from _each_n("refined_count", _refined_count, range(1, max_n + 1))


def _suite_table(max_n: int, seed: int) -> Iterator[CheckResult]:
    yield from _each_n(
        "cells_agree", lambda n: z_asm_brute(n) == z_dpp_brute(n), range(1, max_n + 1)
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
        # the grid holds a1 = a2 = nu, b1 = b2 and c2 = mu, c1 = mu + n;
        # the first row holds rho a1s, then one c1, then b1s
        grid, row1 = sixvertex.vertex_counts(c)
        s = asm_stats(a)
        if not (
            grid["a1"] == grid["a2"]
            and grid["b1"] == grid["b2"]
            and grid["c1"] == grid["c2"] + n
            and grid["a1"] + grid["b1"] + grid["c2"] == n * (n - 1) // 2
            and row1["a1"] + row1["b1"] == n - 1
            and row1["c1"] == 1
            and (s.nu, s.mu, s.rho) == (grid["a1"], grid["c2"], row1["a1"])
        ):
            return False
    return True


def _suite_sixvertex(max_n: int, seed: int) -> Iterator[CheckResult]:
    yield from _each_n("lemmas_and_roundtrip", _sixvertex_checks, range(1, max_n + 1))


def _suite_ik(max_n: int, seed: int) -> Iterator[CheckResult]:
    rng = Random(seed)
    yield from _each_n(
        "det_equals_sum",
        lambda n: all(
            sixvertex.ik_determinant_rat(pt) == sixvertex.partition_function_explicit(n, pt)
            for pt in (sixvertex.sample_ik_point(n, rng) for _ in range(20))
        ),
        range(2, max_n + 1),
        points=20,
    )
    # the homogeneous point is the refined one at s1 = rho0
    yield from _each_n(
        "homogeneous_point",
        lambda n: all(
            sixvertex.check_refined_specialization(n, q, rho0, rho0) for q, rho0, _ in POINTS
        ),
        range(1, max_n + 1),
    )
    yield from _each_n(
        "refined_point",
        lambda n: all(
            sixvertex.check_refined_specialization(n, q, rho0, s1) for q, rho0, s1 in POINTS
        ),
        range(1, max_n + 1),
    )


def _suite_lgv(max_n: int, seed: int) -> Iterator[CheckResult]:
    yield from _each_n(
        "path_sum_oracle",
        lambda n: all(
            paths.path_weight_sum(i, j, n) == paths.direct_path_weight_oracle(i, j, n)
            for i in range(n)
            for j in range(n)
        ),
        range(1, min(max_n, 5) + 1),
    )
    yield from _each_n(
        "family_sum_equals_det",
        lambda n: bool(paths.lgv_nilp_sum(n, refined=True)),
        range(1, min(max_n, 5) + 1),
    )
    yield from _each_n(
        "det_equals_brute",
        lambda n: det_poly(paths.lgv_matrix(n)) == z_dpp_brute(n),
        range(1, max_n + 1),
    )


def _suite_omega(max_n: int, seed: int) -> Iterator[CheckResult]:
    for refined in (False, True):
        yield from _each_n(
            "intertwining",
            lambda n: matrices.check_omega_relation(n, refined),
            range(1, max_n + 1),
            refined=refined,
        )
    yield _timed(
        lambda: not matrices.check_omega_relation(3, True, perturbation=(0, 0)),
        "negative_control",
        {"n": 3},
    )
    yield from _each_n(
        "det_formula_rational",
        lambda n: matrices.check_prop_asmdet_rational(n, 20, seed=seed),
        range(1, min(max_n, 5) + 1),
        trials=20,
    )
    yield from _each_n(
        "det_equality_spot",
        lambda n: matrices.check_omega_relation_rational(n, 10, seed=seed),
        range(1, min(max_n, 4) + 1),
        points=10,
    )


def _suite_aux(max_n: int, seed: int) -> Iterator[CheckResult]:
    yield from _each_n("products_and_dets", matrices.check_aux_relations, range(1, max_n + 1))
    yield from _each_n(
        "w_refined_det",
        lambda n: det_poly(matrices.build("M_BAR_W", n)) == z_dpp_brute_w(n),
        range(1, max_n + 1),
    )
    yield from _each_n("omega_factor", matrices.dpp_det_omega_factor_holds, range(1, max_n + 1))
    yield from _each_n(
        "weight_determinant",
        lambda n: all(matrices.check_weight_determinant(n, q, rho0) for q, rho0, _ in POINTS),
        range(1, min(max_n, 4) + 1),
    )


def _suite_osc(max_n: int, seed: int) -> Iterator[CheckResult]:
    for p in range(5):
        yield _timed(
            lambda: sum(1 for _ in oscillating.enumerate_oscillating((), 2 * p))
            == oscillating.double_factorial_odd(p),
            "empty_shape_size",
            {"p": p},
        )
        yield _timed(
            lambda: oscillating.ascent_distribution(oscillating.enumerate_oscillating((), 2 * p))
            == oscillating.delta_ascent_distribution(p),
            "ascent_distribution",
            {"p": p},
        )
        yield from _each_n(
            "counts_match_enumeration",
            lambda n: oscillating.osc_counts(n, p)
            == (marginal(z_asm_brute(n), X_IDX)[p], marginal(z_dpp_brute(n), X_IDX)[p]),
            range(1, max_n + 1),
            p=p,
        )
    yield _timed(
        lambda: all(
            oscillating.osc_counts(n, 2) == (comb(n, 4) + 2 * comb(n + 1, 4),) * 2
            for n in range(1, 9)
        ),
        "p2_closed_form",
        {},
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
    yield from _each_n("roundtrip_and_stats", _m0_roundtrip, range(1, max_n + 1))
    yield from _each_n(
        "mu_zero_genfunc",
        lambda n: z_asm_brute(n).substitute(Y_IDX, 0)
        == z_dpp_brute(n).substitute(Y_IDX, 0)
        == formulas.z_mu_zero(n),
        range(1, max_n + 1),
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
    yield from _each_n("reflection_stats", _symstat_holds, range(1, min(max_n, 5) + 1))
    yield from _each_n(
        "nu_two_forms",
        lambda n: all(asm_nu_second_form(a) == asm_stats(a).nu for a in _asms(n)),
        range(1, min(max_n, 5) + 1),
    )
    yield from _each_n("dpp_multiset", _dpp_multiset_symmetry, range(1, max_n + 1))
    for m, order in ((1, 3), (2, 5)):
        if order <= max_n:
            yield _timed(
                lambda: formulas.vsasm_total(m)
                == sum(1 for a in _asms(order) if asm_reflect(a) == a),
                "reflection_invariant_count",
                {"order": order},
            )


def _suite_parity(max_n: int, seed: int) -> Iterator[CheckResult]:
    yield from _each_n(
        "stanton", lambda n: bool(formulas.stanton_parity(n)), range(1, min(max_n, 5) + 1)
    )
    yield from _each_n(
        "isolated_one_identity",
        lambda n: all(lhs == rhs for lhs, rhs in formulas.cdlg_identities(n, 2)),
        range(1, min(max_n, 5) + 1),
        max_m=2,
    )
    yield from _each_n(
        "q_enumeration",
        lambda n: q_sum_of_parts(n) == formulas.q_factorial_product(n),
        range(1, max_n + 1),
    )


def _suite_boundary(max_n: int, seed: int) -> Iterator[CheckResult]:
    yield from _each_n(
        "z_at_zero_vs_one",
        lambda n: z_asm_brute(n).substitute(Z_IDX, 0) == z_asm_brute(n - 1).substitute(Z_IDX, 1)
        and z_dpp_brute(n).substitute(Z_IDX, 0) == z_dpp_brute(n - 1).substitute(Z_IDX, 1),
        range(2, max_n + 1),
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
    if max_n is not None:
        check_order(max_n)
    bound = default_n if max_n is None else min(max_n, default_n)
    report = VerifyReport(name)
    report.checks.extend(fn(bound, seed))
    return report
