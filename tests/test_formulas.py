import pytest

from asmdpp.asm import Asm, asm_reflect, asm_stats, enumerate_asms, z_asm_brute
from asmdpp.dpp import Dpp, dpp_stats, q_sum_of_parts, z_dpp_brute
from asmdpp.errors import ValidationError
from asmdpp.formulas import (
    asm_total,
    cdlg_identities,
    m0_asm_to_dpp,
    m0_dpp_to_asm,
    q_factorial_product,
    refined_total,
    stanton_parity,
    vsasm_total,
    z_mu_zero,
)
from asmdpp.polynomial import poly_str
from helpers import asm_list, asm_triples, dpp_list, dpp_triples


def test_totals():
    assert [asm_total(n) for n in range(1, 7)] == [1, 2, 7, 42, 429, 7436]


def test_totals_match_enumeration():
    for n in range(1, 6):
        assert asm_total(n) == len(asm_list(n)) == len(dpp_list(n))


def test_refined_totals():
    assert refined_total(1, 0) == 1
    assert [refined_total(3, k) for k in range(3)] == [2, 3, 2]
    for n in range(1, 7):
        assert sum(refined_total(n, k) for k in range(n)) == asm_total(n)
    with pytest.raises(ValidationError):
        refined_total(3, 3)


def test_refined_totals_match_enumeration():
    for n in range(1, 6):
        for k in range(n):
            expected = refined_total(n, k)
            assert expected == sum(1 for t in asm_triples(n) if t[2] == k)
            assert expected == sum(1 for t in dpp_triples(n) if t[2] == k)


def test_vsasm_totals():
    assert [vsasm_total(m) for m in range(3)] == [1, 1, 3]
    for m in range(3):
        assert vsasm_total(m) == sum(asm_reflect(a) == a for a in enumerate_asms(2 * m + 1)), m
    # order 2m + 1 goes through the one order rule
    with pytest.raises(ValidationError, match="order must be at least 1"):
        vsasm_total(-1)


def test_z_mu_zero():
    assert poly_str(z_mu_zero(1)) == "1"
    assert z_mu_zero(3) == z_asm_brute(3).substitute(1, 0)
    for n in range(1, 6):
        expected = z_mu_zero(n)
        assert z_asm_brute(n).substitute(1, 0) == expected
        assert z_dpp_brute(n).substitute(1, 0) == expected


def test_m0_identity_and_anti_identity():
    ident = Asm(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert m0_asm_to_dpp(ident).rows == ()
    anti2 = Asm(((0, 1), (1, 0)))
    assert m0_asm_to_dpp(anti2) == Dpp(((2,),))
    assert m0_dpp_to_asm(Dpp(((2,),)), 2) == anti2


def test_m0_rejects_special_inputs():
    center = Asm(((0, 1, 0), (1, -1, 1), (0, 1, 0)))
    with pytest.raises(ValidationError):
        m0_asm_to_dpp(center)
    with pytest.raises(ValidationError):
        m0_dpp_to_asm(Dpp(((3, 1),)), 3)  # the trailing 1 is special


def test_m0_refuses_every_asm_with_one_minus_one_entry():
    # the guard reads the entries, not asm_stats; mu = 1 is the least a
    # refused matrix can have
    for n in range(3, 6):
        single = [a for a in asm_list(n) if asm_stats(a).mu == 1]
        assert single
        for a in single:
            with pytest.raises(ValidationError, match="^input must have no -1 entries$"):
                m0_asm_to_dpp(a)


def test_m0_roundtrip_preserves_statistics():
    for n in range(1, 6):
        for a in asm_list(n):
            s = asm_stats(a)
            if s.mu:
                continue
            d = m0_asm_to_dpp(a)
            t = dpp_stats(d, n)
            assert (t.nu, t.mu, t.rho) == (s.nu, 0, s.rho)
            assert m0_dpp_to_asm(d, n) == a
        for d in dpp_list(n):
            if dpp_stats(d, n).mu:
                continue
            assert m0_asm_to_dpp(m0_dpp_to_asm(d, n)) == d


def test_stanton_small_values():
    assert stanton_parity(1) == (1, 1, 1, 1)
    assert stanton_parity(3) == (3, 1, 3, 1)
    for n in (2, 4):
        gaps = stanton_parity(n)  # raises on mismatch
        assert gaps[0] == gaps[2] and gaps[1] == gaps[3]


def test_cdlg_identity_small():
    for n in range(1, 5):
        for m in range(3):
            lhs, rhs = cdlg_identities(n, 2)[m]
            assert lhs == rhs


def test_q_factorial_product():
    assert poly_str(q_factorial_product(2)) == "1 + q^2"
    for n in range(1, 6):
        assert q_factorial_product(n) == q_sum_of_parts(n)


def test_special_families_nu_one():
    # nu = 1 families: n-m-2 elements at k = 0 for m <= n-3, exactly one
    # at k = 1 for m <= n-2, nothing else
    for n in range(2, 6):
        for triples in (asm_triples(n), dpp_triples(n)):
            for m in range(n - 2):
                assert sum(1 for t in triples if t == (1, m, 0)) == max(n - m - 2, 0)
            for m in range(n - 1):
                assert sum(1 for t in triples if t == (1, m, 1)) == 1
            others = [
                t for t in triples if t[0] == 1 and (t[2] >= 2 or t[1] > n - 2)
            ]
            assert others == []


def test_extreme_cell_is_unique():
    # the cell (k(k+1)/2, k(n-k-1), k) holds exactly one element per family
    for n in range(1, 6):
        for k in range(n):
            cell = (k * (k + 1) // 2, k * (n - k - 1), k)
            assert sum(1 for t in asm_triples(n) if t == cell) == 1
            assert sum(1 for t in dpp_triples(n) if t == cell) == 1
