import json
from fractions import Fraction
from random import Random

import pytest

from asmdpp.asm import Asm, asm_stats
from asmdpp.errors import DegenerateParameterError, ValidationError
from asmdpp.matrices import check_weight_determinant
from asmdpp.sixvertex import (
    IkPoint,
    SixVertexConfig,
    asm_to_sixvertex,
    check_homogeneous_specialization,
    check_refined_specialization,
    config_to_json,
    enumerate_configs,
    ik_determinant_rat,
    partition_function_explicit,
    sample_ik_point,
    sixvertex_to_asm,
    vertex_counts,
    weight_a,
    weight_b,
    weight_c,
)
from helpers import ASMEX, asm_list


def test_single_vertex_is_c1():
    c = asm_to_sixvertex(Asm(((1,),)))
    assert c.types == (("c1",),)
    assert sixvertex_to_asm(c) == Asm(((1,),))


def test_worked_example_configuration():
    # first two rows read off the partial-sum picture by hand
    c = asm_to_sixvertex(ASMEX)
    assert c.types[0] == ("a1", "a1", "a1", "c1", "b1", "b1")
    assert c.types[1] == ("a1", "c1", "b1", "c2", "c1", "b1")
    assert sixvertex_to_asm(c) == ASMEX
    counts = vertex_counts(c)
    assert (counts.n_a, counts.n_b, counts.n_c) == (5, 7, 3)
    assert counts.row1_a == 3


def test_identity_counts():
    ident = Asm(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    counts = vertex_counts(asm_to_sixvertex(ident))
    assert (counts.n_a, counts.n_b, counts.n_c) == (0, 3, 0)


def test_roundtrip_order_4():
    for a in asm_list(4):
        assert sixvertex_to_asm(asm_to_sixvertex(a)) == a


def test_count_lemmas_order_4():
    for n in (1, 2, 3, 4):
        for a in asm_list(n):
            counts = vertex_counts(asm_to_sixvertex(a))
            assert counts.n_a1 == counts.n_a2
            assert counts.n_b1 == counts.n_b2
            assert counts.n_c1 == counts.n_c2 + n
            assert counts.n_a + counts.n_b + counts.n_c == n * (n - 1) // 2
            assert counts.row1_a + counts.row1_b == n - 1
            assert counts.row1_c == 1
            s = asm_stats(a)
            assert (s.nu, s.mu, s.rho) == (counts.n_a, counts.n_c, counts.row1_a)


def test_invalid_config_rejected():
    with pytest.raises(ValidationError):
        SixVertexConfig((("a1",),))  # boundary needs c1 at order 1
    with pytest.raises(ValidationError):
        SixVertexConfig((("c1", "c1"), ("b1", "c1")))  # edge conflict


def test_config_enumeration_matches_asm_listing():
    configs = list(enumerate_configs(3))
    assert len(configs) == 7
    assert [sixvertex_to_asm(c) for c in configs] == list(asm_list(3))


def test_ik_point_validation():
    with pytest.raises(DegenerateParameterError):
        IkPoint(Fraction(0), (Fraction(1),), (Fraction(1),))
    with pytest.raises(DegenerateParameterError):
        IkPoint(Fraction(2), (Fraction(0),), (Fraction(1),))


def test_partition_function_order_1():
    pt = IkPoint(Fraction(2), (Fraction(3),), (Fraction(5),))
    expected = (Fraction(4) - Fraction(1, 4)) * Fraction(3, 5)
    assert partition_function_explicit(1, pt) == expected
    assert ik_determinant_rat(pt) == expected


def test_partition_function_order_2_hand_sum():
    q = Fraction(2)
    s = (Fraction(1), Fraction(2))
    t = (Fraction(3), Fraction(5))
    pt = IkPoint(q, s, t)
    u = [v * v for v in s]
    v = [w * w for w in t]
    # the two configurations: identity (c b / b c) and the other (a c / c a)
    hand = weight_c(s[0], t[0], q) * weight_b(u[0], v[1], q) * weight_b(
        u[1], v[0], q
    ) * weight_c(s[1], t[1], q) + weight_a(u[0], v[0], q) * weight_c(
        s[0], t[1], q
    ) * weight_c(s[1], t[0], q) * weight_a(u[1], v[1], q)
    assert partition_function_explicit(2, pt) == hand
    assert ik_determinant_rat(pt) == hand


def test_ik_determinant_rejects_degenerate_points():
    pt = IkPoint(Fraction(2), (Fraction(1), Fraction(-1)), (Fraction(2), Fraction(3)))
    with pytest.raises(DegenerateParameterError):
        ik_determinant_rat(pt)  # equal squares
    pole = IkPoint(Fraction(2), (Fraction(1),), (Fraction(2),))
    with pytest.raises(DegenerateParameterError):
        ik_determinant_rat(pole)  # u*v = 4 = q^2


def test_ik_oracle_equivalence_random_points():
    rng = Random(42)
    for n in (2, 3):
        for _ in range(5):
            pt = sample_ik_point(n, rng)
            assert ik_determinant_rat(pt) == partition_function_explicit(n, pt)


def test_homogeneous_specialization_small():
    for n in (1, 2, 3):
        assert check_homogeneous_specialization(n, Fraction(3, 2), Fraction(2))
        assert check_homogeneous_specialization(n, Fraction(2), Fraction(1, 3))


def test_refined_specialization_small():
    for n in (1, 2, 3):
        assert check_refined_specialization(n, Fraction(3, 2), Fraction(2), Fraction(1, 2))


@pytest.mark.parametrize(
    "check, args",
    [
        (check_homogeneous_specialization, (2, 0, 2)),
        (check_homogeneous_specialization, (2, Fraction(3, 2), 0)),
        (check_refined_specialization, (2, 0, 2, Fraction(1, 2))),
        (check_weight_determinant, (2, 0, 2)),
        (check_weight_determinant, (2, Fraction(3, 2), 0)),
    ],
    ids=["homogeneous-q0", "homogeneous-rho0", "refined-q0", "weight_det-q0", "weight_det-rho0"],
)
def test_homogeneous_point_with_zero_q_or_rho0_is_degenerate(check, args):
    # the weights divide by q and rho0, so they are refused before dividing
    with pytest.raises(DegenerateParameterError):
        check(*args)


def test_json_roundtrip():
    # the JSON text read back through the validating constructor
    for n in range(1, 6):
        for a in asm_list(n):
            c = asm_to_sixvertex(a)
            text = json.dumps(config_to_json(c))
            assert SixVertexConfig(tuple(map(tuple, json.loads(text)))) == c
