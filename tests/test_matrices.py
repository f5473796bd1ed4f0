from fractions import Fraction

import pytest

from asmdpp.asm import z_asm_brute
from asmdpp.dpp import z_dpp_brute, z_dpp_brute_w
from asmdpp.errors import ResourceLimitError, ValidationError
from asmdpp.limits import DET_POLY_MAX_N
from asmdpp.linalg import det_poly
from asmdpp.matrices import (
    FAMILY_NAMES,
    _bmat,
    _mdprime,
    asmdet_holds_at,
    build,
    check_aux_relations,
    check_omega_relation,
    check_omega_relation_rational,
    check_prop_asmdet_rational,
    check_weight_determinant,
    dpp_det_omega_factor_holds,
    genfunc_det,
    matrix_to_json,
    omega_parameterization,
    shift_matrix,
)
from asmdpp.polynomial import ONE, Z_IDX, ZERO, binom, poly_str
from helpers import reference_build


def test_mbar_order_1():
    m = build("M_BAR", 1)
    assert m.entries == ((ONE,),)
    assert det_poly(m) == ONE


def test_shift_matrix():
    s = shift_matrix(3)
    assert [[int(bool(e)) for e in row] for row in s.entries] == [
        [0, 0, 0],
        [1, 0, 0],
        [0, 1, 0],
    ]


def test_mdpp_at_unit_point_is_binomial():
    # entries at x = y = z = 1 are -delta(i,j+1) + C(i+j, i)
    n = 5
    m = build("M_DPP", n, refined=False)
    for i in range(n):
        for j in range(n):
            expected = binom(i + j, i) - (1 if i == j + 1 else 0)
            assert m.entries[i][j].evaluate((1, 1, 1, 1, 1)) == expected


def test_mprime_at_unit_point():
    # delta(i,j) + C(i+j, i-1) at x = y = z = 1
    n = 5
    m = build("M_PRIME", n, refined=False)
    for i in range(n):
        for j in range(n):
            expected = binom(i + j, i - 1) + (1 if i == j else 0)
            assert m.entries[i][j].evaluate((1, 1, 1, 1, 1)) == expected


def test_unknown_name_rejected():
    with pytest.raises(ValidationError):
        build("M_NOPE", 3)


def test_genfunc_det_small():
    assert poly_str(genfunc_det(1)) == "1"
    assert (
        poly_str(genfunc_det(3)) == "1 + x + x*z + x^2*z + x*y*z + x^2*z^2 + x^3*z^2"
    )
    for n in (1, 2, 3, 4):
        assert genfunc_det(n) == z_asm_brute(n) == z_dpp_brute(n)


def test_theorem_1_at_order_7():
    # the only tier-1 check of the three routes past n = 6: a bug in a
    # brute pass that shows first at n = 7 passes verify, which stops at 6
    assert z_asm_brute(7) == z_dpp_brute(7) == genfunc_det(7)


def test_w_refined_determinant():
    for n in (1, 2, 3, 4):
        assert det_poly(build("M_BAR_W", n)) == z_dpp_brute_w(n)


def test_omega_relation_small():
    for n in (1, 2, 3, 4):
        assert check_omega_relation(n, refined=True)
        assert check_omega_relation(n, refined=False)


def test_omega_relation_negative_control():
    assert not check_omega_relation(3, refined=True, perturbation=(0, 0))
    assert not check_omega_relation(2, refined=False, perturbation=(1, 1))


def test_aux_relations_small():
    for n in (1, 2, 3, 4):
        assert check_aux_relations(n)


def test_dpp_det_omega_factor():
    for n in (1, 2, 3, 4):
        assert dpp_det_omega_factor_holds(n)


def test_omega_parameterization():
    assert omega_parameterization(Fraction(2), Fraction(1)) == 4
    with pytest.raises(ValidationError):
        omega_parameterization(Fraction(1), Fraction(1))


def test_asmdet_hand_case():
    # omega = 2, y = 1 gives x = 4; at n = 2, z = 1 the determinant is
    # 1*9 - 2*2 = 5 = Z(2, 4, 1, 1)
    assert asmdet_holds_at(build("M_ASM", 2), Fraction(2), Fraction(1), Fraction(1))


def test_asmdet_rational_trials():
    for n in (1, 2, 3):
        assert check_prop_asmdet_rational(n, 8, seed=1)


def test_omega_relation_rational_spot():
    for n in (1, 2, 3):
        assert check_omega_relation_rational(n, 5, seed=2)


def test_weight_determinant_matches_partition_function():
    for n in (1, 2, 3, 4):
        assert check_weight_determinant(n, Fraction(3, 2), Fraction(2))
        assert check_weight_determinant(n, Fraction(2), Fraction(1, 3))


def test_l_builder_matches_rational_instance():
    from asmdpp.matrices import l_matrix_rat

    n = 4
    alpha, beta = Fraction(2, 3), Fraction(-5, 2)
    sym = build("L", n)
    point = (alpha, beta, Fraction(1), Fraction(1), Fraction(1))
    assert [
        [e.evaluate(point) for e in row] for row in sym.entries
    ] == l_matrix_rat(n, alpha, beta)


def test_b_builder_is_unitriangular():
    # so det B = 1, and B M_DPRIME = M_BAR makes det M_DPRIME = det M_BAR
    for n in range(1, DET_POLY_MAX_N + 1):
        b = build("B", n)
        for i in range(n):
            assert b.entries[i][i] == ONE, (n, i)
            assert all(b.entries[i][j] == ZERO for j in range(i + 1, n)), (n, i)


@pytest.mark.parametrize("w_weight", [False, True])
@pytest.mark.parametrize("refined", [False, True])
def test_b_times_mdprime_is_mbar(refined, w_weight):
    target = "M_BAR_W" if w_weight else "M_BAR"
    for n in range(1, DET_POLY_MAX_N + 1):
        mdprime = _mdprime(n, w_weight)
        if not refined:
            mdprime = mdprime.substitute(Z_IDX, 1)
        assert _bmat(n) @ mdprime == build(target, n, refined), n


def test_mdprime_entries_have_at_most_two_terms_off_the_refined_column():
    for n in range(1, DET_POLY_MAX_N + 1):
        m = _mdprime(n, w_weight=True)
        assert all(len(row[j].terms) <= 2 for row in m.entries for j in range(n - 1)), n
        # at z = 1 the last column has at most two terms as well
        plain = m.substitute(Z_IDX, 1)
        assert all(len(e.terms) <= 2 for row in plain.entries for e in row), n


def test_genfunc_det_refuses_an_order_before_building_the_matrix():
    with pytest.raises(ValidationError):
        genfunc_det(0)
    with pytest.raises(ResourceLimitError, match="determinant capped at order 12"):
        genfunc_det(10**6, w_refined=True)
    with pytest.raises(ResourceLimitError, match="determinant capped at order 12"):
        genfunc_det(DET_POLY_MAX_N + 1)


@pytest.mark.parametrize("w_refined", [False, True])
def test_genfunc_det_equals_det_of_mbar(w_refined):
    name = "M_BAR_W" if w_refined else "M_BAR"
    for n in range(1, 10):
        assert genfunc_det(n, w_refined) == det_poly(build(name, n)), n


def test_matrix_json_shapes():
    plain = matrix_to_json(build("M_BAR", 2))
    assert isinstance(plain[0][0], list)
    omega = matrix_to_json(build("M_ASM", 2))
    assert "omega" in omega[0][0]


def test_masm_entries_have_omega_degree_one():
    m = build("M_ASM", 3)
    assert all(e.degree <= 1 for row in m.entries for e in row)


def test_mdpp_omega_only_in_last_column():
    m = build("M_DPP", 4, refined=True)
    for i in range(4):
        for j in range(4):
            if j < 3:
                assert m.entries[i][j].degree <= 0
    assert any(m.entries[i][3].degree == 1 for i in range(4))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_builders_match_the_reference_builders(name):
    # matrix_to_json also tells an OmegaPoly entry from a MultiPoly one
    for n in range(1, 13):
        for refined in (False, True):
            assert matrix_to_json(build(name, n, refined)) == matrix_to_json(
                reference_build(name, n, refined)
            ), (name, n, refined)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_refined_at_z_one_is_unrefined(name):
    # against the reference's own unrefined rules; for M_DPP a degree-0
    # OmegaPoly entry equals the MultiPoly one
    for n in range(1, 10):
        refined = build(name, n, refined=True)
        assert refined.substitute(Z_IDX, 1) == reference_build(name, n, refined=False), (name, n)
