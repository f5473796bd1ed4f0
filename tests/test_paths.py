import pytest

from asmdpp.dpp import Dpp, dpp_stats
from asmdpp.errors import ValidationError
from asmdpp.paths import (
    LatticePath,
    NilpSet,
    direct_path_weight_oracle,
    dpp_to_nilp,
    enumerate_nilp_families,
    lgv_nilp_sum,
    nilp_statistics,
    nilp_to_dpp,
    path_weight_sum,
)
from asmdpp.polynomial import ONE, monomial, poly_str
from helpers import dpp_list

DPPEX = Dpp(((6, 6, 6, 5, 2), (4, 4, 1), (3,)))


def test_empty_dpp_maps_to_single_descending_path():
    fam = dpp_to_nilp(Dpp(()), 4)
    assert len(fam.paths) == 1
    assert fam.paths[0].start == (0, 3)
    assert fam.paths[0].steps == ("D", "D", "D")
    assert nilp_statistics(fam) == (0, 0, 0)


def test_worked_example_paths():
    fam = dpp_to_nilp(DPPEX, 6)
    assert ["".join(p.steps) for p in fam.paths] == [
        "RRRDRDDDRD",
        "DRRDDDR",
        "RDD",
        "",
    ]
    assert [p.start for p in fam.paths] == [(0, 5), (0, 4), (0, 2), (0, 0)]
    assert nilp_statistics(fam) == (7, 2, 3)
    assert nilp_to_dpp(fam) == DPPEX


def test_bijection_roundtrip_and_stats():
    for n in range(1, 7):
        for d in dpp_list(n):
            fam = dpp_to_nilp(d, n)
            assert nilp_to_dpp(fam) == d
            s = dpp_stats(d, n)
            assert nilp_statistics(fam) == (s.nu, s.mu, s.rho)


def test_family_enumeration_matches_bijection():
    for n in range(1, 7):
        fams = list(enumerate_nilp_families(n))
        assert len(fams) == len(dpp_list(n))
        assert {nilp_to_dpp(f) for f in fams} == set(dpp_list(n))
        for f in fams:
            assert dpp_to_nilp(nilp_to_dpp(f), n) == f


def test_nilp_validation():
    with pytest.raises(ValidationError):
        NilpSet(2, ())
    p1 = LatticePath((0, 1), ("R", "D"))
    p2 = LatticePath((0, 0), ())
    NilpSet(2, (p1, p2))  # the order-2 family for the one-part array
    with pytest.raises(ValidationError):
        # DR routes the first path through (0, 0), where the second sits
        NilpSet(2, (LatticePath((0, 1), ("D", "R")), p2))
    with pytest.raises(ValidationError):
        # second path must start at (0, 0) for this profile
        NilpSet(2, (p1, LatticePath((0, 1), ("D",))))


def test_path_weight_sum_examples():
    for j in range(3):
        assert path_weight_sum(0, j, 3) == ONE
    assert poly_str(path_weight_sum(2, 1, 3)) == "x^2 + 2*x*y"
    assert path_weight_sum(1, 0, 3) == monomial(1, x=1)
    assert poly_str(path_weight_sum(1, 1, 2)) == "x + x*z"
    with pytest.raises(ValidationError):
        path_weight_sum(3, 0, 3)


def test_path_weight_sum_matches_oracle():
    for n in (1, 2, 3, 4):
        for i in range(n):
            for j in range(n):
                assert path_weight_sum(i, j, n) == direct_path_weight_oracle(i, j, n)


def test_lgv_small_values():
    assert poly_str(lgv_nilp_sum(1)) == "1"
    assert poly_str(lgv_nilp_sum(3, refined=False)) == "1 + 2*x + 2*x^2 + x*y + x^3"
    assert (
        poly_str(lgv_nilp_sum(3, refined=True))
        == "1 + x + x*z + x^2*z + x*y*z + x^2*z^2 + x^3*z^2"
    )


def test_family_weight_counts_steps():
    fam = dpp_to_nilp(DPPEX, 6)
    assert nilp_statistics(fam) == (7, 2, 3)
