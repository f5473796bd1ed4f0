"""Named verification suites behind the command-line ``verify``.

``SUITES`` is the one table of checks: each suite is a tuple of
``Check`` rows, and a row's ``orders`` is the only place its order range
is stated (``--max-n`` can only lower it).  A result depends only on
the order and the seed, so checks are pure, independent and
reproducible; the report sorts them by name, so aggregation does not
depend on execution order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb
from random import Random
from typing import Callable

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
class Check:
    """One row of a suite: ``run(n, seed)`` checks one identity at each
    order n of ``orders``, reported as ``{key: n, **params}``.  A row
    whose ``orders`` is None runs once, with n None, at every --max-n."""

    name: str
    run: Callable[[int | None, int], bool]
    orders: range | None
    params: dict = field(default_factory=dict)
    key: str = "n"


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


@lru_cache(maxsize=16)
def _ik_points(n: int, seed: int) -> tuple:
    """The points det_equals_sum checks at order n: the 20 that one
    Random(seed) draws at n after drawing 20 at each order 2..n-1."""
    rng = Random(seed)
    draws = [[sixvertex.sample_ik_point(m, rng) for _ in range(20)] for m in range(2, n + 1)]
    return tuple(draws[-1])


def _refined_count(n: int) -> bool:
    # the coefficient of x^p y^m z^k in a brute-force generating function
    # counts cell (p, m, k), so its z-marginal counts the objects by rho
    asm_side = marginal(z_asm_brute(n), Z_IDX)
    dpp_side = marginal(z_dpp_brute(n), Z_IDX)
    return all(
        formulas.refined_total(n, k) == asm_side[k] == dpp_side[k] for k in range(n)
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


def _m0_roundtrip(n: int) -> bool:
    for a in _asms(n):
        # mu counts the -1 entries, so a matrix with one is off the slice
        if any(-1 in row for row in a.rows):
            continue
        s = asm_stats(a)
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


SUITES: dict[str, tuple[Check, ...]] = {
    "theorem1": (
        Check(
            "genfunc_triple_equal",
            lambda n, seed: z_asm_brute(n) == z_dpp_brute(n) == matrices.genfunc_det(n),
            range(1, 7),
        ),
        Check(
            "canonical_string", lambda n, seed: poly_str(z_asm_brute(n)) == Z3_STRING, range(3, 4)
        ),
    ),
    "counting": (
        Check(
            "total_count",
            lambda n, seed: len(_asms(n)) == len(_dpps(n)) == formulas.asm_total(n),
            range(1, 7),
        ),
        Check("refined_count", lambda n, seed: _refined_count(n), range(1, 7)),
    ),
    "table": (
        Check("cells_agree", lambda n, seed: z_asm_brute(n) == z_dpp_brute(n), range(1, 7)),
        Check(
            "cell_5_312",
            lambda n, seed: z_asm_brute(n).terms.get((3, 1, 2, 0, 0)) == 10
            and z_dpp_brute(n).terms.get((3, 1, 2, 0, 0)) == 10,
            range(5, 6),
        ),
    ),
    "sixvertex": (
        Check("lemmas_and_roundtrip", lambda n, seed: _sixvertex_checks(n), range(1, 6)),
    ),
    "ik": (
        Check(
            "det_equals_sum",
            lambda n, seed: all(
                sixvertex.ik_determinant_rat(pt) == sixvertex.partition_function_explicit(n, pt)
                for pt in _ik_points(n, seed)
            ),
            range(2, 5),
            {"points": 20},
        ),
        # the homogeneous point is the refined one at s1 = rho0
        Check(
            "homogeneous_point",
            lambda n, seed: all(
                sixvertex.check_refined_specialization(n, q, rho0, rho0) for q, rho0, _ in POINTS
            ),
            range(1, 5),
        ),
        Check(
            "refined_point",
            lambda n, seed: all(
                sixvertex.check_refined_specialization(n, q, rho0, s1) for q, rho0, s1 in POINTS
            ),
            range(1, 5),
        ),
    ),
    "lgv": (
        Check(
            "path_sum_oracle",
            lambda n, seed: all(
                paths.path_weight_sum(i, j, n) == paths.direct_path_weight_oracle(i, j, n)
                for i in range(n)
                for j in range(n)
            ),
            range(1, 6),
        ),
        Check(
            "family_sum_equals_det",
            lambda n, seed: bool(paths.lgv_nilp_sum(n, refined=True)),
            range(1, 6),
        ),
        Check(
            "det_equals_brute",
            lambda n, seed: det_poly(paths.lgv_matrix(n)) == z_dpp_brute(n),
            range(1, 7),
        ),
    ),
    "omega": (
        *(
            Check(
                "intertwining",
                lambda n, seed, refined=refined: matrices.check_omega_relation(n, refined),
                range(1, 7),
                {"refined": refined},
            )
            for refined in (False, True)
        ),
        Check(
            "negative_control",
            lambda n, seed: not matrices.check_omega_relation(n, True, perturbation=(0, 0)),
            range(3, 4),
        ),
        Check(
            "det_formula_rational",
            lambda n, seed: matrices.check_prop_asmdet_rational(n, 20, seed=seed),
            range(1, 6),
            {"trials": 20},
        ),
        Check(
            "det_equality_spot",
            lambda n, seed: matrices.check_omega_relation_rational(n, 10, seed=seed),
            range(1, 5),
            {"points": 10},
        ),
    ),
    "aux": (
        Check("products_and_dets", lambda n, seed: matrices.check_aux_relations(n), range(1, 6)),
        Check(
            "w_refined_det",
            lambda n, seed: det_poly(matrices.build("M_BAR_W", n)) == z_dpp_brute_w(n),
            range(1, 6),
        ),
        Check("omega_factor", lambda n, seed: matrices.dpp_det_omega_factor_holds(n), range(1, 6)),
        Check(
            "weight_determinant",
            lambda n, seed: all(
                matrices.check_weight_determinant(n, q, rho0) for q, rho0, _ in POINTS
            ),
            range(1, 5),
        ),
    ),
    "osc": (
        *(
            check
            for p in range(5)
            for check in (
                Check(
                    "empty_shape_size",
                    lambda n, seed, p=p: oscillating.double_factorial_odd(p)
                    == sum(1 for _ in oscillating.enumerate_oscillating((), 2 * p)),
                    None,
                    {"p": p},
                ),
                Check(
                    "ascent_distribution",
                    lambda n, seed, p=p: oscillating.ascent_distribution(
                        oscillating.enumerate_oscillating((), 2 * p)
                    )
                    == oscillating.delta_ascent_distribution(p),
                    None,
                    {"p": p},
                ),
                Check(
                    "counts_match_enumeration",
                    lambda n, seed, p=p: oscillating.osc_counts(n, p)
                    == (marginal(z_asm_brute(n), X_IDX)[p], marginal(z_dpp_brute(n), X_IDX)[p]),
                    range(1, 7),
                    {"p": p},
                ),
            )
        ),
        Check(
            "p2_closed_form",
            lambda n, seed: all(
                oscillating.osc_counts(m, 2) == (comb(m, 4) + 2 * comb(m + 1, 4),) * 2
                for m in range(1, 9)
            ),
            None,
        ),
    ),
    "m0": (
        Check("roundtrip_and_stats", lambda n, seed: _m0_roundtrip(n), range(1, 7)),
        Check(
            "mu_zero_genfunc",
            lambda n, seed: z_asm_brute(n).substitute(Y_IDX, 0)
            == z_dpp_brute(n).substitute(Y_IDX, 0)
            == formulas.z_mu_zero(n),
            range(1, 7),
        ),
    ),
    "symmetry": (
        Check("reflection_stats", lambda n, seed: _symstat_holds(n), range(1, 6)),
        Check(
            "nu_two_forms",
            lambda n, seed: all(asm_nu_second_form(a) == asm_stats(a).nu for a in _asms(n)),
            range(1, 6),
        ),
        Check("dpp_multiset", lambda n, seed: _dpp_multiset_symmetry(n), range(1, 7)),
        # order 2m + 1 has vsasm_total(m) vertically symmetric ASMs
        Check(
            "reflection_invariant_count",
            lambda n, seed: formulas.vsasm_total((n - 1) // 2)
            == sum(1 for a in _asms(n) if asm_reflect(a) == a),
            range(3, 6, 2),
            key="order",
        ),
    ),
    "parity": (
        Check("stanton", lambda n, seed: bool(formulas.stanton_parity(n)), range(1, 6)),
        Check(
            "isolated_one_identity",
            lambda n, seed: all(lhs == rhs for lhs, rhs in formulas.cdlg_identities(n, 2)),
            range(1, 6),
            {"max_m": 2},
        ),
        Check(
            "q_enumeration",
            lambda n, seed: q_sum_of_parts(n) == formulas.q_factorial_product(n),
            range(1, 7),
        ),
    ),
    "boundary": (
        Check(
            "z_at_zero_vs_one",
            lambda n, seed: z_asm_brute(n).substitute(Z_IDX, 0)
            == z_asm_brute(n - 1).substitute(Z_IDX, 1)
            and z_dpp_brute(n).substitute(Z_IDX, 0) == z_dpp_brute(n - 1).substitute(Z_IDX, 1),
            range(2, 7),
        ),
    ),
}


def run_suite(name: str, max_n: int | None = None, seed: int = 0) -> VerifyReport:
    """Run each row of suite ``name`` at its orders up to ``max_n``."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if max_n is not None:
        check_order(max_n)
    report = VerifyReport(name)
    for check in SUITES[name]:
        for n in (None,) if check.orders is None else check.orders:
            if n is not None and max_n is not None and n > max_n:
                continue
            start = time.perf_counter()
            error = None
            try:
                ok = bool(check.run(n, seed))
            except Exception as exc:
                ok = False
                error = f"{type(exc).__name__}: {exc}"
            params = check.params if n is None else {check.key: n, **check.params}
            elapsed = time.perf_counter() - start
            report.checks.append(CheckResult(check.name, params, ok, elapsed, error))
    return report
