import json
from collections import Counter
from fractions import Fraction
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asmdpp.errors import ResourceLimitError, ValidationError
from asmdpp.linalg import divide_exact
from asmdpp.polynomial import (
    MAX_EXPONENT,
    NVARS,
    MultiPoly,
    OmegaPoly,
    ONE,
    ZERO,
    X,
    Y,
    Z,
    _pack,
    binom,
    marginal,
    monomial,
    omega_congruent_zero,
    poly_str,
)

from helpers import TupleOmega, TuplePoly, tuple_divide_exact

exponents = st.tuples(*[st.integers(0, 3)] * NVARS)
coeffs = st.integers(-6, 6).filter(bool)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(MultiPoly)
points = st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=4)] * NVARS)


def test_binomial_conventions():
    assert binom(-1, 0) == 1
    assert binom(5, 0) == 1
    assert binom(-1, 2) == 0
    assert binom(3, -1) == 0
    assert binom(3, 5) == 0
    assert binom(5, 2) == 10


def test_difference_of_squares():
    assert (X + ONE) * (X - ONE) == X * X - ONE


def test_zero_absorbs():
    p = X * Y + monomial(3) * Z
    assert p * monomial(0) == ZERO


def test_square_of_one_plus_xz():
    p = ONE + X * Z
    assert p * p == ONE + monomial(2) * X * Z + monomial(1, x=2, z=2)


def test_eval_examples():
    assert (X + Y).evaluate((Fraction(1, 2), Fraction(1, 3), 0, 0, 0)) == Fraction(5, 6)
    assert (X * X * X).evaluate((2, 0, 0, 0, 0)) == 8
    z3 = (
        ONE
        + monomial(1, x=3, z=2)
        + X
        + monomial(1, x=2, z=2)
        + X * Z
        + monomial(1, x=2, z=1)
        + X * Y * Z
    )
    assert z3.evaluate((1, 1, 1, 1, 1)) == 7


def test_exponents_and_points_have_five_entries():
    with pytest.raises(ValueError):
        MultiPoly({(1, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly([[[1, 0, 0, 0, 0, 0], 1]])
    with pytest.raises(ValueError):
        X.evaluate((1, 2))


def test_canonical_string():
    p = ONE + X + X * Z + monomial(1, x=2, z=1) + X * Y * Z
    assert poly_str(p) == "1 + x + x*z + x^2*z + x*y*z"
    assert poly_str(ZERO) == "0"
    assert poly_str(monomial(-2) * X - ONE) == "-1 - 2*x"


def test_substitute():
    p = ONE + X * Z + monomial(1, x=2, z=2)
    assert p.substitute(2, 0) == ONE
    assert p.substitute(2, 1) == ONE + X + X * X


def test_marginal_sums_coefficients_by_one_exponent():
    p = monomial(3) + X * Z - monomial(2, x=2, z=1) + monomial(5, y=4, q=7)
    assert marginal(p, 2) == {0: 8, 1: -1}
    assert marginal(p, 0) == {0: 8, 1: 1, 2: -2}
    assert marginal(p, 4) == {0: 2, 7: 5}
    assert marginal(ZERO, 1)[0] == 0


@settings(max_examples=50)
@given(polys, st.integers(0, NVARS - 1))
def test_marginal_matches_the_term_list(p, var):
    expected = {}
    for exp, c in p.items():
        expected[exp[var]] = expected.get(exp[var], 0) + c
    assert marginal(p, var) == expected


def test_term_list_roundtrip():
    # the genfunc JSON form; test_cli reads back the command's own output
    p = ONE + monomial(4) * X * Y - monomial(3, z=2)
    assert MultiPoly(p.to_term_list()) == p
    assert MultiPoly(json.loads(json.dumps(p.to_term_list()))) == p


def test_pairs_sum_repeated_exponents_and_drop_cancelled_terms():
    one, xz, y = (0, 0, 0, 0, 0), (1, 0, 1, 0, 0), (0, 1, 0, 0, 0)
    pairs = [(xz, 2), (one, 1), (list(xz), 3), (y, 4), (y, -4)]
    p = MultiPoly(pairs)
    assert p == MultiPoly({xz: 5, one: 1}) == monomial(5, x=1, z=1) + ONE
    assert p.terms == {xz: 5, one: 1}
    assert MultiPoly([(xz, 1), (xz, -1)]) == ZERO == MultiPoly() == MultiPoly({})
    # a generator of pairs is consumed once, like the brute-force tallies
    assert MultiPoly((exp, c) for exp, c in pairs) == p


@pytest.mark.parametrize(
    "pair, error",
    [
        (((1, 0, 0, 0), 1), ValueError),
        (((1, 0, 0, 0, 0, 0), 1), ValueError),
        (((1, -1, 0, 0, 0), 1), ValueError),
        (((1.0, 0, 0, 0, 0), 1), ValueError),
        (((1, 0, 0, 0, 0), 1.5), ValueError),
        (((1, 0, 0, 0, 0), "1"), ValueError),
        (((0, 0, 0, 0, MAX_EXPONENT + 1), 1), ResourceLimitError),
    ],
)
def test_a_bad_pair_raises_as_the_mapping_does(pair, error):
    exp, coeff = pair
    with pytest.raises(error) as from_mapping:
        MultiPoly({exp: coeff})
    with pytest.raises(error) as from_pairs:
        MultiPoly([((0, 0, 0, 0, 0), 1), pair])
    assert str(from_pairs.value) == str(from_mapping.value)


@settings(max_examples=150)
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100)
@given(polys, polys, points)
def test_evaluation_is_a_homomorphism(a, b, pt):
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


@settings(max_examples=100)
@given(polys)
def test_no_zero_terms_stored(p):
    assert all(c != 0 for _, c in p.items())
    assert (p - p) == ZERO


def test_omega_quadratic_itself_is_congruent():
    quad = OmegaPoly((X, ONE - X - Y, Y))
    assert omega_congruent_zero(quad)


def test_omega_alone_is_not_congruent():
    assert not omega_congruent_zero(OmegaPoly((ZERO, ONE)))


def test_omega_multiple_of_quadratic_is_congruent():
    quad = OmegaPoly((X, ONE - X - Y, Y))
    assert omega_congruent_zero(quad * (X + ONE))


def test_omega_degree_cap():
    w = OmegaPoly((ZERO, ONE))
    with pytest.raises(ValueError):
        _ = (w * w) * w


def test_omega_mixes_with_multipoly_and_int():
    p = OmegaPoly((ONE, X))  # 1 + x*omega
    assert OmegaPoly((X,)) == X and X == OmegaPoly((X,))
    assert p + Y == OmegaPoly((ONE + Y, X))
    assert p - Y == OmegaPoly((ONE - Y, X))
    assert Y + p == p + Y
    assert Y - p == -(p - Y) == OmegaPoly((Y - ONE, -X))
    assert p * Y == Y * p == OmegaPoly((Y, X * Y))
    assert p * 3 == 3 * p == OmegaPoly((3 * ONE, 3 * X))
    assert p != "1 + x*omega"
    with pytest.raises(TypeError):
        p + 1
    with pytest.raises(TypeError):
        p - "x"


def test_omega_evaluate():
    p = OmegaPoly((ONE, X))  # 1 + x*omega
    val = p.evaluate((Fraction(2), 0, 0, 0, 0), Fraction(3))
    assert val == 1 + 2 * 3


# coordinates that are zero, negative or ints as well as fractions
mixed = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5))
mixed_points = st.tuples(*[mixed] * NVARS)


@settings(max_examples=150, deadline=None)
@given(polys, mixed_points)
@example(ZERO, (Fraction(1, 2), -1, 0, 2, Fraction(-3, 4)))
@example(monomial(-7), (0, 0, 0, 0, 0))
@example(X * X * Z - 3 * Y + monomial(4), (0, Fraction(-1, 2), 3, 0, 0))
def test_evaluate_matches_the_term_by_term_reference(p, pt):
    got = p.evaluate(pt)
    assert type(got) is Fraction
    assert got == TuplePoly.of(p).evaluate(pt)


@settings(max_examples=100, deadline=None)
@given(st.lists(polys, max_size=3).map(OmegaPoly), mixed_points, mixed)
@example(OmegaPoly(()), (1, 2, 3, 4, 5), Fraction(1, 3))
@example(OmegaPoly((monomial(5),)), (0, 0, 0, 0, 0), 0)
@example(OmegaPoly((ZERO, ZERO, X)), (Fraction(-2, 3), 0, 0, 0, 0), Fraction(-5, 2))
def test_omega_evaluate_matches_the_term_by_term_reference(e, pt, omega):
    got = e.evaluate(pt, omega)
    assert type(got) is Fraction
    assert got == TupleOmega.of(e).evaluate(pt, omega)


def _packed_and_tuple(live):
    # exponents of the variables past the first `live` stay 0
    exps = [st.integers(0, 4)] * live + [st.just(0)] * (NVARS - live)
    terms = st.dictionaries(st.tuples(*exps), st.integers(-6, 6), max_size=6)
    return terms.map(lambda d: (MultiPoly(d), TuplePoly(NVARS, d)))


def _divide(divide, p, q):
    try:
        return divide(p, q)
    except ValidationError:
        return "not exact"


def _same(packed, ref) -> bool:
    if isinstance(ref, str):
        return packed == ref
    return dict(packed.terms) == ref._terms and packed.sorted_terms() == ref.sorted_terms()


# With two live variables the operands are denser, so sums and products
# cancel terms more often.
@pytest.mark.parametrize("live", [5, 2])
def test_packed_kernel_matches_the_tuple_kernel(live):
    pairs = _packed_and_tuple(live)
    point = st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * NVARS)

    @settings(max_examples=80, deadline=None)
    @given(pairs, pairs, st.integers(0, NVARS - 1), st.integers(-2, 2), point)
    def check(a, b, index, value, pt):
        (pa, ta), (pb, tb) = a, b
        assert _same(pa, ta)
        assert _same(pa + pb, ta + tb)
        assert _same(pa - pb, ta - tb)
        assert _same(pa * pb, ta * tb)
        assert _same(pa.substitute(index, value), ta.substitute(index, value))
        assert pa.evaluate(pt) == ta.evaluate(pt)
        if pb:
            assert _same(_divide(divide_exact, pa * pb, pb), _divide(tuple_divide_exact, ta * tb, tb))
            assert _same(_divide(divide_exact, pa, pb), _divide(tuple_divide_exact, ta, tb))

    check()


# A small acyclic graph with exponent-tuple step weights: d has three
# readers (b once, c twice over equal steps), e is a dead end that is not
# final, and the final state d still has a step.
GRAPH = {
    "a": [((1, 0, 0, 0, 0), "b"), ((0, 1, 0, 0, 0), "c")],
    "b": [((0, 0, 1, 0, 0), "d"), ((1, 0, 0, 0, 0), "e"), ((0, 0, 0, 1, 0), "f")],
    "c": [((1, 1, 0, 0, 0), "d"), ((1, 1, 0, 0, 0), "d")],
    "d": [((0, 0, 0, 0, 1), "f")],
    "e": [],
    "f": [],
}
FINAL = {"d", "f"}


def _every_walk(state, exp):
    # the exponent sum of each walk from state that stops at a final state
    if state in FINAL:
        yield exp
    for step, nxt in GRAPH[state]:
        yield from _every_walk(nxt, tuple(map(add, exp, step)))


@pytest.mark.parametrize("start", sorted(GRAPH))
def test_step_sum_matches_the_sum_over_every_walk(start):
    got = MultiPoly._step_sum(
        start,
        lambda state: [nxt for _, nxt in GRAPH[state]],
        lambda state: [(_pack(step), nxt) for step, nxt in GRAPH[state]],
        FINAL.__contains__,
    )
    assert got == MultiPoly(Counter(_every_walk(start, (0,) * NVARS)))
    if start == "a":
        assert poly_str(got) == "x*z + x*w + 2*x*y^2 + x*z*q + 2*x*y^2*q"


def test_exponent_at_the_field_limit():
    assert MultiPoly({(MAX_EXPONENT, 0, 0, 0, 1): 1}).to_term_list() == [
        [[MAX_EXPONENT, 0, 0, 0, 1], 1]
    ]
    with pytest.raises(ResourceLimitError):
        MultiPoly({(0, MAX_EXPONENT + 1, 0, 0, 0): 1})
    with pytest.raises(ResourceLimitError):
        monomial(1, q=MAX_EXPONENT + 1)


def test_product_past_the_field_limit_raises():
    top = monomial(1, x=MAX_EXPONENT, y=1)
    assert monomial(1, x=MAX_EXPONENT - 1, y=1) * X == top
    # x^MAX_EXPONENT * x sets the guard bit of the x field; the doubled
    # exponent is one step short of carrying into the next field
    for other in (X, top, X + Y):
        with pytest.raises(ResourceLimitError):
            top * other
    half = monomial(1, x=(MAX_EXPONENT + 1) // 2)
    with pytest.raises(ResourceLimitError):
        half * half
