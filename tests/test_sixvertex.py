import hashlib
import json
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from asmdpp.asm import Asm, asm_stats
from asmdpp.errors import DegenerateParameterError, ResourceLimitError, ValidationError
from asmdpp.limits import IK_SAMPLE_MAX_N
from asmdpp.matrices import check_weight_determinant
from asmdpp.sixvertex import (
    IkPoint,
    SixVertexConfig,
    _degeneracy,
    asm_to_sixvertex,
    check_refined_specialization,
    enumerate_configs,
    homogeneous_point,
    ik_determinant_rat,
    partition_function_explicit,
    sample_ik_point,
    sixvertex_to_asm,
    vertex_counts,
    weight_a,
    weight_b,
    weight_c,
)
from asmdpp.verify import _ik_points
from helpers import ASMEX, asm_list, fraction_degeneracy, fraction_ik_determinant_rat, per_config_partition_function


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
    grid, row1 = vertex_counts(c)
    assert (grid["a1"], grid["b1"], grid["c2"]) == (5, 7, 3)
    assert row1["a1"] == 3


def test_identity_counts():
    ident = Asm(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    grid, _ = vertex_counts(asm_to_sixvertex(ident))
    assert (grid["a1"], grid["b1"], grid["c2"]) == (0, 3, 0)


def test_roundtrip_order_4():
    for a in asm_list(4):
        assert sixvertex_to_asm(asm_to_sixvertex(a)) == a


def test_count_lemmas_order_4():
    for n in (1, 2, 3, 4):
        for a in asm_list(n):
            grid, row1 = vertex_counts(asm_to_sixvertex(a))
            assert grid["a1"] == grid["a2"]
            assert grid["b1"] == grid["b2"]
            assert grid["c1"] == grid["c2"] + n
            assert grid["a1"] + grid["b1"] + grid["c2"] == n * (n - 1) // 2
            assert row1["a1"] + row1["b1"] == n - 1
            assert row1["c1"] == 1
            s = asm_stats(a)
            assert (s.nu, s.mu, s.rho) == (grid["a1"], grid["c2"], row1["a1"])


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


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", range(2, IK_SAMPLE_MAX_N + 1))
def test_ik_determinant_matches_the_fraction_kernel(n, seed):
    # every point verify's det_equals_sum checks at this order and seed,
    # past verify's order 6 up to the sampling cap
    for pt in _ik_points(n, seed):
        got = ik_determinant_rat(pt)
        assert type(got) is Fraction
        assert got == fraction_ik_determinant_rat(pt), pt


def test_degeneracy_matches_the_fraction_test():
    # coordinates +-a/b with a, b <= 4 make many equal squares and poles;
    # about half of these points are degenerate
    rng = Random(3)

    def frac():
        return Fraction(rng.randint(1, 4), rng.randint(1, 4)) * rng.choice((1, -1))

    reasons = Counter()
    for n in (1, 2, 3):
        for _ in range(400):
            q = frac()
            u = tuple(frac() ** 2 for _ in range(n))
            v = tuple(frac() ** 2 for _ in range(n))
            reason = _degeneracy(q, u, v)
            assert reason == fraction_degeneracy(q, u, v), (q, u, v)
            reasons[reason is None or reason.split()[0]] += 1
    assert reasons[True] > 200 and reasons["pole"] > 100 and sum(reasons.values()) - reasons[True] - reasons["pole"] > 100


@pytest.mark.parametrize("n", range(1, 6))
def test_partition_function_matches_the_per_configuration_sum(n):
    rng = Random(27 + n)
    points = [sample_ik_point(n, rng) for _ in range(2 if n == 5 else 6)]
    # every c weight is 0 at q = 1, and every a weight at q = 1/4, rho0 = 2
    homogeneous = ((2, Fraction(1, 3)), (Fraction(-3, 2), Fraction(5, 2)), (1, 2), (Fraction(1, 4), 2))
    points += [homogeneous_point(n, q, rho0) for q, rho0 in homogeneous]
    for pt in points:
        got = partition_function_explicit(n, pt)
        assert type(got) is Fraction
        assert got == per_config_partition_function(n, pt), pt


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ik_identity_fails_when_one_spectral_parameter_moves(n):
    # negative control of verify's det_equals_sum, at its seed-0 points:
    # doubling one t_j on the explicit side only must break the identity
    for k, pt in enumerate(_ik_points(n, 0)):
        det = ik_determinant_rat(pt)
        assert det != 0
        assert det == partition_function_explicit(n, pt)
        j = k % n
        moved = IkPoint(pt.q, pt.s, pt.t[:j] + (2 * pt.t[j],) + pt.t[j + 1 :])
        explicit = partition_function_explicit(n, moved)
        assert explicit != 0
        assert explicit != det, (pt, j)


# sha256 of 20 successive sample_ik_point(n, Random(0)) draws, one line
# "q s_1 .. s_n t_1 .. t_n" per point, pinned before the order cap
SAMPLE_SHA256 = {
    1: "c6d2511863ae1925c8fa00fd5c336a70e49ee7d9691eff6cee09023acf3681dd",
    2: "b89d624d97e997105d35bd47ea10be6e0a1a5a8bdb52acf28687363fb709e3f9",
    3: "43c29764080dd91f0303e7bdb6155d07634faccb82ab2aa19e74793e5319981a",
    4: "0cd0a4d8cf42c42319b2aac075b8fead1c92175e40766e76d6f8eb54ac882af9",
    5: "1f84c98cc46ea2c1d6e417946bde48758210652a37e4e093680ac629e7f87a0e",
}


@pytest.mark.parametrize("n", sorted(SAMPLE_SHA256))
def test_sample_ik_point_draws_are_unchanged(n):
    rng = Random(0)
    lines = []
    for _ in range(20):
        pt = sample_ik_point(n, rng)
        lines.append(" ".join(map(str, (pt.q, *pt.s, *pt.t))))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SAMPLE_SHA256[n]


def test_sample_ik_point_refuses_orders_past_the_cap_before_drawing():
    for n in (IK_SAMPLE_MAX_N + 1, 37):
        rng = Random(0)
        state = rng.getstate()
        with pytest.raises(ResourceLimitError):
            sample_ik_point(n, rng)
        assert rng.getstate() == state


def test_sample_ik_point_draws_at_the_cap():
    pt = sample_ik_point(IK_SAMPLE_MAX_N, Random(0))
    assert pt.n == IK_SAMPLE_MAX_N


def test_homogeneous_specialization_small():
    # at s1 = rho0 the refined point is the homogeneous one (z = 1)
    for n in (1, 2, 3):
        assert check_refined_specialization(n, Fraction(3, 2), Fraction(2), Fraction(2))
        assert check_refined_specialization(n, Fraction(2), Fraction(1, 3), Fraction(1, 3))


def test_refined_specialization_small():
    for n in (1, 2, 3):
        assert check_refined_specialization(n, Fraction(3, 2), Fraction(2), Fraction(1, 2))


@pytest.mark.parametrize(
    "check, args",
    [
        (check_refined_specialization, (2, 0, 2, 2)),
        (check_refined_specialization, (2, Fraction(3, 2), 0, 0)),
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
            text = json.dumps(c.types)
            assert SixVertexConfig(tuple(map(tuple, json.loads(text)))) == c
