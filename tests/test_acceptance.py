"""Acceptance suite: every headline identity at its full desk-scale bound,
one printed pass/fail line per criterion.

All equalities are exact (integer, rational or canonical-polynomial);
there are no tolerances anywhere.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from random import Random

from asmdpp import formulas, matrices, oscillating, paths, sixvertex
from asmdpp.asm import asm_reflect, asm_stats, z_asm_brute
from asmdpp.dpp import dpp_stats, q_sum_of_parts, z_dpp_brute, z_dpp_brute_w
from asmdpp.linalg import det_poly
from asmdpp.polynomial import poly_str
from helpers import asm_list, asm_triples, cells, dpp_list, dpp_triples

Z3_STRING = "1 + x + x*z + x^2*z + x*y*z + x^2*z^2 + x^3*z^2"


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} PASS  {label}  ({elapsed:.1f}s)")


def test_01_generating_functions_agree():
    with criterion(1, "brute ASM == brute DPP == determinant, n <= 6"):
        for n in range(1, 7):
            za, zd = z_asm_brute(n), z_dpp_brute(n)
            assert za == zd, n
            assert matrices.genfunc_det(n) == za, n
        assert poly_str(z_asm_brute(3)) == Z3_STRING


def test_02_counting_formulas():
    with criterion(2, "product formulas match enumeration, n <= 6"):
        expected = [1, 2, 7, 42, 429, 7436]
        for n in range(1, 7):
            assert formulas.asm_total(n) == expected[n - 1]
            assert len(asm_list(n)) == expected[n - 1]
            assert len(dpp_list(n)) == expected[n - 1]
            for k in range(n):
                r = formulas.refined_total(n, k)
                assert r == sum(1 for t in asm_triples(n) if t[2] == k), (n, k)
                assert r == sum(1 for t in dpp_triples(n) if t[2] == k), (n, k)


def test_03_pmk_table():
    with criterion(3, "per-(p,m,k) cell counts agree, n <= 6"):
        for n in range(1, 7):
            assert cells(asm_triples(n)) == cells(dpp_triples(n)), n
        assert cells(asm_triples(5))[(3, 1, 2)] == 10


def test_04_sixvertex_lemmas():
    with criterion(4, "six-vertex bijection and count lemmas, n <= 5"):
        for n in range(1, 6):
            half = n * (n - 1) // 2
            for a in asm_list(n):
                c = sixvertex.asm_to_sixvertex(a)
                assert sixvertex.sixvertex_to_asm(c) == a
                grid, row1 = sixvertex.vertex_counts(c)
                assert grid["a1"] == grid["a2"]
                assert grid["b1"] == grid["b2"]
                assert grid["c1"] == grid["c2"] + n
                assert grid["a1"] + grid["b1"] + grid["c2"] == half
                assert row1["a1"] + row1["b1"] == n - 1 and row1["c1"] == 1
                s = asm_stats(a)
                assert (s.nu, s.mu, s.rho) == (grid["a1"], grid["c2"], row1["a1"])


def test_05_izergin_korepin():
    with criterion(5, "determinant == explicit partition function, n in 2..4"):
        rng = Random(20260811)
        for n in (2, 3, 4):
            for _ in range(20):
                pt = sixvertex.sample_ik_point(n, rng)
                assert sixvertex.ik_determinant_rat(pt) == (
                    sixvertex.partition_function_explicit(n, pt)
                ), (n, pt)
        for n in range(1, 5):
            # the homogeneous point is the refined one at s1 = rho0
            assert sixvertex.check_refined_specialization(
                n, Fraction(3, 2), Fraction(2), Fraction(2)
            )
            assert sixvertex.check_refined_specialization(
                n, Fraction(2), Fraction(1, 3), Fraction(1, 3)
            )
            assert sixvertex.check_refined_specialization(
                n, Fraction(3, 2), Fraction(2), Fraction(1, 2)
            )
            assert sixvertex.check_refined_specialization(
                n, Fraction(2), Fraction(1, 3), Fraction(3)
            )


def test_06_lgv():
    with criterion(6, "path sums, family sum == det, det == brute, n <= 6"):
        for n in range(1, 6):
            for i in range(n):
                for j in range(n):
                    assert paths.path_weight_sum(i, j, n) == paths.direct_path_weight_oracle(
                        i, j, n
                    ), (n, i, j)
            paths.lgv_nilp_sum(n, refined=True)
            paths.lgv_nilp_sum(n, refined=False)
        for n in range(1, 7):
            assert det_poly(paths.lgv_matrix(n)) == z_dpp_brute(n)


def test_07_omega_machinery():
    with criterion(7, "omega intertwining (symbolic n <= 6) and rational checks"):
        for n in range(1, 7):
            assert matrices.check_omega_relation(n, refined=True), n
            assert matrices.check_omega_relation(n, refined=False), n
        assert not matrices.check_omega_relation(3, refined=True, perturbation=(0, 0))
        for n in range(1, 6):
            assert matrices.check_prop_asmdet_rational(n, 20, seed=7 + n), n
        for n in range(1, 5):
            assert matrices.check_omega_relation_rational(n, 10, seed=70 + n), n


def test_08_auxiliary_matrices():
    with criterion(8, "alternative matrices and w-refined determinant, n <= 5"):
        for n in range(1, 6):
            assert matrices.check_aux_relations(n), n
            assert det_poly(matrices.build("M_BAR_W", n)) == z_dpp_brute_w(n), n
            assert matrices.dpp_det_omega_factor_holds(n), n


def test_09_oscillating_tableaux():
    with criterion(9, "oscillating tableau sizes, ascents and counts"):
        for p in range(5):
            size = sum(1 for _ in oscillating.enumerate_oscillating((), 2 * p))
            assert size == oscillating.double_factorial_odd(p), p
            left = oscillating.ascent_distribution(
                oscillating.enumerate_oscillating((), 2 * p)
            )
            right: dict = {}
            for kappa in oscillating.strict_partitions(p):
                shape = oscillating.delta_diagram(kappa)
                for t in oscillating.enumerate_oscillating(shape, 2 * p):
                    a = oscillating.ascent_count(t)
                    right[a] = right.get(a, 0) + 1
            assert left == right, p
            assert sum(right.values()) == oscillating.double_factorial_odd(p)
        for n in range(1, 7):
            for p in range(5):
                asm_side, dpp_side = oscillating.osc_counts(n, p)
                assert asm_side == sum(1 for t in asm_triples(n) if t[0] == p), (n, p)
                assert dpp_side == sum(1 for t in dpp_triples(n) if t[0] == p), (n, p)
        for n in range(1, 9):
            expected = comb(n, 4) + 2 * comb(n + 1, 4)
            assert oscillating.osc_counts(n, 2) == (expected, expected)


def test_10_m0_bijection():
    with criterion(10, "special-part-free bijection and its genfunc, n <= 6"):
        for n in range(1, 7):
            for a in asm_list(n):
                s = asm_stats(a)
                if s.mu:
                    continue
                d = formulas.m0_asm_to_dpp(a)
                t = dpp_stats(d, n)
                assert (t.nu, t.mu, t.rho) == (s.nu, 0, s.rho)
                assert formulas.m0_dpp_to_asm(d, n) == a
            for d in dpp_list(n):
                if dpp_stats(d, n).mu:
                    continue
                assert formulas.m0_asm_to_dpp(formulas.m0_dpp_to_asm(d, n)) == d
            expected = formulas.z_mu_zero(n)
            assert z_asm_brute(n).substitute(1, 0) == expected
            assert z_dpp_brute(n).substitute(1, 0) == expected


def test_11_symmetry():
    with criterion(11, "reflection statistics, multiset symmetry, invariant counts"):
        for n in range(1, 6):
            half = n * (n - 1) // 2
            for a in asm_list(n):
                r = asm_reflect(a)
                assert asm_reflect(r) == a
                s, t = asm_stats(a), asm_stats(r)
                assert (t.nu, t.mu, t.rho) == (half - s.nu - s.mu, s.mu, n - 1 - s.rho)
        for n in range(1, 7):
            half = n * (n - 1) // 2
            counts = cells(dpp_triples(n))
            mapped = {}
            for (p, m, k), c in counts.items():
                key = (half - p - m, m, n - 1 - k)
                mapped[key] = mapped.get(key, 0) + c
            assert mapped == counts, n
        for m, order in ((1, 3), (2, 5)):
            invariant = sum(1 for a in asm_list(order) if asm_reflect(a) == a)
            assert formulas.vsasm_total(m) == invariant
        assert formulas.vsasm_total(1) == 1 and formulas.vsasm_total(2) == 3


def test_12_parity_and_isolated_ones():
    with criterion(12, "parity gaps, isolated-1 identity, q-enumeration"):
        for n in range(1, 6):
            formulas.stanton_parity(n)  # raises on any mismatch
            for m in range(3):
                lhs, rhs = formulas.cdlg_identities(n, 2)[m]
                assert lhs == rhs, (n, m)
        for n in range(1, 7):
            assert q_sum_of_parts(n) == formulas.q_factorial_product(n), n


def test_13_boundary_relation():
    with criterion(13, "generating function at z=0 vs order n-1 at z=1"):
        for n in range(2, 7):
            assert z_asm_brute(n).substitute(2, 0) == z_asm_brute(n - 1).substitute(2, 1), n
            assert z_dpp_brute(n).substitute(2, 0) == z_dpp_brute(n - 1).substitute(2, 1), n
