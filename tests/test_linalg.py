from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmdpp import linalg
from asmdpp.errors import ValidationError
from asmdpp.linalg import (
    PolyMatrix,
    det_poly,
    det_rat,
    divide_exact,
)
from asmdpp.matrices import FAMILY_NAMES, build, evaluate_matrix_rat, l_matrix_rat, shift_matrix
from asmdpp.polynomial import NVARS, ZERO, MultiPoly, OmegaPoly, ONE, X, Y, monomial

from helpers import TupleOmega, TuplePoly, gauss_det_rat, rat_matmul, tuple_det_minors

small_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * NVARS),
    st.integers(-4, 4).filter(bool),
    max_size=3,
).map(MultiPoly)


def poly_matrix(n, rng):
    def rand_poly():
        t = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(NVARS))
            t[e] = t.get(e, 0) + rng.randint(-3, 3)
        return MultiPoly(t)

    return [[rand_poly() for _ in range(n)] for _ in range(n)]


def test_det_identity_matrix():
    for n in (1, 2, 3, 5):
        assert det_poly(PolyMatrix.identity(n)) == ONE


def test_det_2x2_cofactor():
    m = PolyMatrix(((X, Y), (ONE, X)))
    assert det_poly(m) == X * X - Y


def test_entrywise_sum_and_difference():
    a = PolyMatrix(((ONE, X), (Y, ZERO)))
    b = PolyMatrix(((X, X), (ONE, Y)))
    assert a + b == PolyMatrix(((ONE + X, X + X), (Y + ONE, Y)))
    assert a - b == PolyMatrix(((ONE - X, ZERO), (Y - ONE, -Y)))
    with pytest.raises(ValidationError, match="matrix shapes differ"):
        a + PolyMatrix(((ONE, X),))
    with pytest.raises(ValidationError, match="matrix shapes differ"):
        a - PolyMatrix(((ONE,), (X,)))


def test_det_rat_examples():
    assert det_rat([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 1
    assert det_rat([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2
    assert det_rat([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]]) == 0


def test_det_non_square_rejected():
    with pytest.raises(ValidationError):
        det_poly(PolyMatrix(((X, Y),)))


def test_det_commutes_with_evaluation():
    rng = Random(11)
    for n in (2, 3, 4, 5, 6):
        m = poly_matrix(n, rng)
        point = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(NVARS))
        sym = det_poly(PolyMatrix(tuple(map(tuple, m)))).evaluate(point)
        num = det_rat([[e.evaluate(point) for e in row] for row in m])
        assert sym == num


def test_det_of_mbar_evaluated_matches_det_rat():
    m = build("M_BAR", 3)
    point = (Fraction(2), Fraction(3), Fraction(5), Fraction(1), Fraction(1))
    assert det_poly(m).evaluate(point) == det_rat(
        [[e.evaluate(point) for e in row] for row in m.entries]
    )


def _rational_matrix(n, rng, ints=False):
    def entry():
        num = rng.randint(-9, 9)
        return num if ints else Fraction(num, rng.randint(1, 7))

    return [[entry() for _ in range(n)] for _ in range(n)]


def test_det_rat_matches_gaussian_elimination():
    assert det_rat([]) == gauss_det_rat([]) == 1
    rng = Random(27)
    for n in range(1, 33):
        cases = [_rational_matrix(n, rng), _rational_matrix(n, rng, ints=True)]
        # zeros atop the first column: the first pivot is a swapped-in row
        swap = _rational_matrix(n, rng)
        for row in swap[: (n + 1) // 2]:
            row[0] = Fraction(0)
        cases.append(swap)
        singular = []
        if n > 1:
            # the last row a rational combination of the first two (or of
            # the first alone at n = 2), and a zero column
            m = _rational_matrix(n, rng)
            m[-1] = [Fraction(2, 3) * a - 5 * b for a, b in zip(m[0], m[1 % (n - 1)])]
            singular = [m, [[Fraction(0)] + row[1:] for row in _rational_matrix(n, rng)]]
        for m in cases + singular:
            got = det_rat(m)
            assert type(got) is Fraction
            assert got == gauss_det_rat(m), n
        assert not any(map(det_rat, singular))


# The refined 2-enumeration of Mills, Robbins and Rumsey: at y = 1 + x the
# determinant of order n is (1+x)^C(n-1,2) (1+xz)^(n-1).
ANCHOR_X, ANCHOR_Z = Fraction(2, 3), Fraction(-4, 7)
ANCHOR_POINT = (ANCHOR_X, 1 + ANCHOR_X, ANCHOR_Z, 1, 1)


def _two_enumeration(n):
    return (1 + ANCHOR_X) ** comb(n - 1, 2) * (1 + ANCHOR_X * ANCHOR_Z) ** (n - 1)


@pytest.mark.parametrize("name, top", [("M_DPRIME", 32), ("M_BAR", 24)])
def test_det_rat_anchors_the_refined_two_enumeration(name, top):
    for n in range(1, top + 1):
        rat = evaluate_matrix_rat(build(name, n), ANCHOR_POINT)
        assert det_rat(rat) == _two_enumeration(n), (name, n)


@pytest.mark.parametrize("name, n", [("M_DPRIME", 32), ("M_BAR", 24)])
def test_two_enumeration_anchor_fails_on_a_bumped_entry(name, n):
    rat = evaluate_matrix_rat(build(name, n), ANCHOR_POINT)
    rat[n // 2][0] += 1
    assert det_rat(rat) != _two_enumeration(n)


@settings(max_examples=60)
@given(small_polys, small_polys)
def test_divide_exact_inverts_multiplication(a, b):
    if not a or not b:
        return
    assert divide_exact(a * b, b) == a


def test_divide_exact_rejects_inexact():
    with pytest.raises(ValidationError):
        divide_exact(X + ONE, Y)
    with pytest.raises(ValidationError):
        divide_exact(X, monomial(2))


def test_det_decomposition_against_shift():
    # det(A - S) equals the sum over subsets T of {1..n-1} of the minors
    # with rows {0} u T and columns (T - 1) u {n-1}
    rng = Random(7)
    n = 4
    for _ in range(4):
        a = poly_matrix(n, rng)
        lhs = det_poly(PolyMatrix(tuple(map(tuple, a))) - shift_matrix(n))
        rhs = ZERO
        for size in range(n):
            for t_set in combinations(range(1, n), size):
                rows = sorted({0} | set(t_set))
                cols = sorted({t - 1 for t in t_set} | {n - 1})
                sub = PolyMatrix.square(len(rows), lambda i, j: a[rows[i]][cols[j]])
                rhs = rhs + det_poly(sub)
        assert lhs == rhs


def _fractions(rng, nonzero=True):
    while True:
        f = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if not nonzero or f:
            return f


def test_l_matrix_determinant_and_composition():
    rng = Random(3)
    n = 4
    trials = 0
    while trials < 6:
        a1, b1, a2, b2 = (_fractions(rng) for _ in range(4))
        if a2 == a1:
            continue
        l1 = l_matrix_rat(n, a1, b1)
        assert det_rat(l1) == (a1 * b1) ** (n * (n - 1) // 2)
        mid = l_matrix_rat(n, (a2 - a1) / (a1 * b1), a2 * b2 / (a2 - a1))
        assert rat_matmul(l1, mid) == l_matrix_rat(n, a2, b2)
        trials += 1


def test_matrix_requires_homogeneous_entries():
    with pytest.raises(ValidationError):
        PolyMatrix(((ONE, OmegaPoly.from_poly(ONE)),))


def _reference(e):
    return TupleOmega.of(e) if isinstance(e, OmegaPoly) else TuplePoly.of(e)


def _outcome(det):
    """The determinant, or the message of the omega-degree cap it hit."""
    try:
        return det()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_det_matches_the_tuple_kernel(name):
    for refined in (True, False):
        for n in range(1, 8):
            m = build(name, n, refined)
            ref = [[_reference(e) for e in row] for row in m.entries]
            got = _outcome(lambda: _reference(det_poly(m)))
            assert got == _outcome(lambda: tuple_det_minors(ref)), (n, refined)


def _term_counts(m):
    # terms of the last row and of the last column
    return sum(len(e.terms) for e in m.entries[-1]), sum(len(row[-1].terms) for row in m.entries)


def _heavy_poly(rng):
    exps = rng.sample([tuple(rng.randint(0, 2) for _ in range(NVARS)) for _ in range(40)], 8)
    return MultiPoly({e: rng.choice((-2, -1, 1, 2)) for e in set(exps)})


def test_det_of_random_matrices_matches_the_tuple_kernel():
    rng = Random(5)
    for n in (1, 2, 3, 4, 5):
        m = poly_matrix(n, rng)
        ref = tuple_det_minors([[TuplePoly.of(e) for e in row] for row in m])
        assert TuplePoly.of(det_poly(PolyMatrix(tuple(map(tuple, m))))) == ref
    # a heavy last row, and a heavy last column
    for heavy_row in (True, False):
        for n in (2, 3, 4, 5):
            m = poly_matrix(n, rng)
            for i in range(n):
                if heavy_row:
                    m[-1][i] = _heavy_poly(rng)
                else:
                    m[i][-1] = _heavy_poly(rng)
            pm = PolyMatrix(tuple(map(tuple, m)))
            row, col = _term_counts(pm)
            assert row > col if heavy_row else col > row
            ref = tuple_det_minors([[TuplePoly.of(e) for e in r] for r in m])
            assert TuplePoly.of(det_poly(pm)) == ref, (n, heavy_row)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_both_orientations_give_the_same_determinant(name):
    for refined in (True, False):
        for n in range(1, 9):
            m = build(name, n, refined)
            rows = _outcome(lambda: linalg._det_minors(m.entries))
            cols = _outcome(lambda: linalg._det_minors(m.transpose().entries))
            assert rows == cols == _outcome(lambda: det_poly(m)), (n, refined)
            assert _outcome(lambda: det_poly(m.transpose())) == rows, (n, refined)


def test_det_expands_along_the_last_column(monkeypatch):
    seen = []
    kernel = linalg._det_minors
    monkeypatch.setattr(linalg, "_det_minors", lambda e: seen.append(e) or kernel(e))
    # z sits in the refined last column; the unrefined last column is no
    # heavier than the last row, and det_poly still takes the transpose
    for refined in (True, False):
        m = build("M_BAR", 5, refined=refined)
        assert m.entries != m.transpose().entries
        det_poly(m)
        assert seen.pop() == m.transpose().entries, refined
    assert not seen
