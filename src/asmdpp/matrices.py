"""The determinant matrices behind the weighted enumerations, and the
exact relations between them.

All matrices are n x n, indexed 0 <= i, j <= n-1, over Z[x, y, z, w, q]
(with the omega extension where needed), and each is one entry rule on
PolyMatrix.square:

  M_BAR      -delta(i,j+1) + sum_k C(i-1,i-k) C(j+1,k) x^k y^(i-k), the
             path weight sums of paths.path_weight_sum assembled by
             paths.lgv_matrix.  Its determinant is the full generating
             function of both families.
  M_BAR_W    M_BAR with the binomial sum (not the -delta term) multiplied
             by w; the determinant then also tracks the row count.
  M_ASM      (1-omega) delta(i,j) + omega sum_k C(i,k) C(j,k) x^k y^(i-k).
  M_DPP      M_BAR, with the last column multiplied by 1 + omega (z-1).
  M_PRIME    delta(i,j) + sum_{k<i} sum_l C(j,l) C(k,l) x^(l+1) y^(k-l).
  M_DPRIME   C(j+1,i) x^i - C(i-1,i-j-1) (-y)^(i-j-1), with B M_DPRIME =
             M_BAR; with w on the binomial part, B M_DPRIME_w = M_BAR_W.
  S          subdiagonal shift, delta(i,j+1).
  B          C(i-1,i-j) y^(i-j), lower triangular with unit diagonal.
  L          C(i,j) x^i y^j (the two-parameter triangular family, with
             the parameters played by x and y; rational instances are
             built by l_matrix_rat).

The z-refinement tracks the column of the first-row 1 on the ASM side
and the number of parts equal to n on the DPP side, and every entry rule
applies it.  It touches the last column alone, and there one rule,
paths.split_binom, splits the binomial whose top index is the column:

  C(top, k) = sum_l C(top-1-l, k-l),  part l weighted z^(l+n-top),

with top = j+1 in M_BAR and M_DPRIME and top = j in M_ASM and M_PRIME.
The unrefined matrix is the refined one at z = 1, and build alone makes
it, by that substitution; unrefined M_DPP is M_BAR, since its last-column
factor 1 + omega (z-1) is 1 at z = 1.  det_poly expands every matrix,
refined or not, along its last column, so z is multiplied in only at the
top layer of the minor expansion.

genfunc_det expands M_DPRIME (or its w form), not M_BAR: det B = 1, so
the two determinants are equal, and an M_DPRIME entry has at most two
terms outside the refined last column where an M_BAR entry in row i has
up to i + 1.  M_BAR stays the matrix of the LGV, aux and omega checks.

omega is a root of  y*omega^2 + (1 - x - y)*omega + x = 0.  Symbolic
checks never pick a root: they test divisibility by the quadratic, which
is valid for both roots.  Numeric checks parameterize (omega, y) -> x
rationally, so no square roots appear anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from random import Random
from typing import Iterator

from .asm import z_asm_brute
from .errors import ValidationError
from .limits import DET_POLY_MAX_N, MATRIX_BUILD_MAX_N, check_order
from .linalg import PolyMatrix, det_poly, det_rat
from .paths import lgv_matrix, path_weight_sum, split_binom
from .polynomial import (
    ONE,
    Z_IDX,
    ZERO,
    MultiPoly,
    OmegaPoly,
    binom,
    monomial,
    omega_congruent_zero,
)
from .sixvertex import homogeneous_point, homogeneous_weights, partition_function_explicit

def _delta(i: int, j: int) -> MultiPoly:
    return ONE if i == j else ZERO


def _masm(n: int) -> PolyMatrix:
    def entry(i: int, j: int) -> OmegaPoly:
        g = MultiPoly(
            ((k, i - k, l, 0, 0), binom(i, k) * c)
            for k in range(i + 1)
            for l, c in split_binom(j, k, j, n)
        )
        return OmegaPoly((_delta(i, j), g - _delta(i, j)))

    return PolyMatrix.square(n, entry)


def _mdpp(n: int) -> PolyMatrix:
    mbar = lgv_matrix(n)
    z_minus_1 = monomial(1, z=1) - ONE
    return PolyMatrix.square(
        n,
        lambda i, j: OmegaPoly((mbar[i, j], z_minus_1 * mbar[i, j] if j == n - 1 else ZERO)),
    )


def _mprime(n: int) -> PolyMatrix:
    def entry(i: int, j: int) -> MultiPoly:
        return _delta(i, j) + MultiPoly(
            ((l + 1, k - l, m, 0, 0), binom(k, l) * c)
            for k in range(i)
            for l in range(k + 1)
            for m, c in split_binom(j, l, j, n)
        )

    return PolyMatrix.square(n, entry)


def _mdprime(n: int, w_weight: bool = False) -> PolyMatrix:
    """M_DPRIME; with w_weight its binomial part, not the (-y) part, is
    multiplied by w, so that B M_DPRIME = M_BAR_W."""
    w = 1 if w_weight else 0

    def entry(i: int, j: int) -> MultiPoly:
        terms = [((i, 0, l, w, 0), c) for l, c in split_binom(j + 1, i, j, n)]
        if i > j:
            e = i - j - 1
            terms.append(((0, e, 0, 0, 0), (-1) ** (e + 1) * binom(i - 1, e)))
        return MultiPoly(terms)

    return PolyMatrix.square(n, entry)


def shift_matrix(n: int) -> PolyMatrix:
    return PolyMatrix.square(n, lambda i, j: _delta(i, j + 1))


def _bmat(n: int) -> PolyMatrix:
    return PolyMatrix.square(
        n, lambda i, j: monomial(binom(i - 1, i - j), y=i - j) if i >= j else ZERO
    )


def _lmat(n: int) -> PolyMatrix:
    return PolyMatrix.square(n, lambda i, j: monomial(binom(i, j), x=i, y=j))


# name -> builder(n) of the z-refined matrix; the order is that of
# `matrix --name`
_BUILDERS = {
    "M_ASM": _masm,
    "M_DPP": _mdpp,
    "M_BAR": lgv_matrix,
    "M_BAR_W": lambda n: lgv_matrix(n, w_weight=True),
    "M_PRIME": _mprime,
    "M_DPRIME": _mdprime,
    "S": shift_matrix,
    "B": _bmat,
    "L": _lmat,
}

FAMILY_NAMES = tuple(_BUILDERS)


def build(name: str, n: int, refined: bool = True) -> PolyMatrix:
    """Construct one of the named matrices at order n; unless refined,
    the z-refined matrix at z = 1.

    M_ASM always has OmegaPoly entries; M_DPP does when refined (the
    omega factor sits only in the last column, and is 1 at z = 1).
    Everything else is omega-free MultiPoly.
    """
    check_order(n, MATRIX_BUILD_MAX_N, "matrix construction")
    if name not in _BUILDERS:
        raise ValidationError(f"unknown matrix family {name!r}")
    if refined:
        return _BUILDERS[name](n)
    return _BUILDERS["M_BAR" if name == "M_DPP" else name](n).substitute(Z_IDX, 1)


def l_matrix_rat(n: int, alpha: Fraction, beta: Fraction) -> list[list[Fraction]]:
    """Rational instance of the triangular family C(i,j) alpha^i beta^j."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    return [
        [binom(i, j) * alpha**i * beta**j for j in range(n)] for i in range(n)
    ]


def genfunc_det(n: int, w_refined: bool = False) -> MultiPoly:
    """The determinant route to the generating function: det M_BAR (det
    M_BAR_W when w_refined), z-refined, computed as det M_DPRIME.

    B M_DPRIME = M_BAR with B unit lower triangular, so det B = 1 and the
    two determinants are equal at every order; the same holds for the
    w-weighted pair.  An M_DPRIME entry has at most two terms outside
    the refined last column, where an M_BAR entry in row i has up to
    i + 1, so every product in the minor expansion is smaller.  The
    determinant cap is checked before the matrix is built."""
    check_order(n, DET_POLY_MAX_N, "determinant")
    return det_poly(_mdprime(n, w_weight=w_refined))


def check_omega_relation(
    n: int, refined: bool = True, perturbation: tuple[int, int] | None = None
) -> bool:
    """Exact intertwining of the two family matrices:

        (I + (x - omega y - 1) S) M_ASM  -  M_DPP (I + (omega - 1) S^t)

    must vanish modulo the omega quadratic, entry by entry.  An optional
    perturbation adds 1 to one M_ASM entry (negative control)."""
    masm = build("M_ASM", n, refined)
    mdpp = build("M_DPP", n, refined)
    if perturbation is not None:
        masm = masm + PolyMatrix.square(
            n, lambda i, j: ONE if (i, j) == perturbation else ZERO
        )
    x_minus_1 = monomial(1, x=1) - ONE
    neg_y = monomial(-1, y=1)
    left = PolyMatrix.square(
        n,
        lambda i, j: OmegaPoly(
            (_delta(i, j) + x_minus_1 * _delta(i, j + 1), neg_y * _delta(i, j + 1))
        ),
    )
    right = PolyMatrix.square(
        n, lambda i, j: OmegaPoly((_delta(i, j) - _delta(j, i + 1), _delta(j, i + 1)))
    )
    diff = (left @ masm) - (mdpp @ right)
    return all(omega_congruent_zero(e) for row in diff.entries for e in row)


def check_aux_relations(n: int) -> bool:
    """The alternative matrices reduce to the main one:

        (I - S) M_PRIME = M_BAR (I - S^t),   B M_DPRIME = M_BAR,

    in both the plain and the z-refined form, and all three determinants
    agree."""
    s = shift_matrix(n)
    ident = PolyMatrix.identity(n)
    i_minus_s = ident - s
    i_minus_st = ident - s.transpose()
    b = _bmat(n)
    for refined in (False, True):
        mbar = build("M_BAR", n, refined)
        mprime = build("M_PRIME", n, refined)
        mdprime = build("M_DPRIME", n, refined)
        if (i_minus_s @ mprime) != (mbar @ i_minus_st):
            return False
        if (b @ mdprime) != mbar:
            return False
        target = det_poly(mbar)
        if det_poly(mprime) != target or det_poly(mdprime) != target:
            return False
    return True


def dpp_det_omega_factor_holds(n: int) -> bool:
    """det M_DPP = (1 + omega (z-1)) det M_BAR identically in omega (the
    factor sits in the last column alone)."""
    det_dpp = det_poly(build("M_DPP", n, refined=True))
    det_bar = det_poly(build("M_BAR", n, refined=True))
    z_minus_1 = monomial(1, z=1) - ONE
    return det_dpp == OmegaPoly((det_bar, z_minus_1 * det_bar))


def omega_parameterization(omega: Fraction, y: Fraction) -> Fraction:
    """The x for which omega satisfies the quadratic at the given y."""
    omega, y = Fraction(omega), Fraction(y)
    if omega == 1:
        raise ValidationError("omega = 1 is a pole of the parameterization")
    return omega * (y * omega + 1 - y) / (omega - 1)


def evaluate_matrix_rat(
    m: PolyMatrix, point: tuple, omega: Fraction | None = None
) -> list[list[Fraction]]:
    out = []
    for row in m.entries:
        vals = []
        for e in row:
            if isinstance(e, OmegaPoly):
                if omega is None:
                    raise ValidationError("omega value required")
                vals.append(e.evaluate(point, omega))
            else:
                vals.append(e.evaluate(point))
        out.append(vals)
    return out


def _sample_fraction(rng: Random, lo: int = -6, hi: int = 6, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _omega_points(seed: int) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
    """Endless random (omega, y, z) with omega not in {0, 1}; a degenerate
    omega is redrawn before y and z are drawn."""
    rng = Random(seed)
    while True:
        omega = _sample_fraction(rng)
        if omega not in (0, 1):
            yield omega, _sample_fraction(rng), _sample_fraction(rng)


def asmdet_holds_at(masm: PolyMatrix, omega: Fraction, y: Fraction, z: Fraction) -> bool:
    """Check det M_ASM = (1 + omega (z-1)) Z at one admissible point, for
    the refined M_ASM of some order."""
    omega, y, z = Fraction(omega), Fraction(y), Fraction(z)
    x = omega_parameterization(omega, y)
    if y * omega**2 + (1 - x - y) * omega + x != 0:
        raise ValidationError("parameterization failed to satisfy the quadratic")
    point = (x, y, z, Fraction(1), Fraction(1))
    rat = evaluate_matrix_rat(masm, point, omega)
    expected = (1 + omega * (z - 1)) * z_asm_brute(masm.n_rows).evaluate(point)
    return det_rat(rat) == expected


def check_prop_asmdet_rational(n: int, trials: int, seed: int = 0) -> bool:
    """Randomized rational verification of the omega determinant formula.

    Each trial samples omega not in {0, 1} and free y, z, then solves for
    the x that puts omega on the quadratic; M_ASM is built once."""
    masm = build("M_ASM", n, refined=True)
    return all(asmdet_holds_at(masm, *pt) for pt in islice(_omega_points(seed), trials))


def check_omega_relation_rational(n: int, points: int, seed: int = 0) -> bool:
    """Spot-check that the intertwining forces equal determinants at
    rational points of the omega variety."""
    masm = build("M_ASM", n, refined=True)
    mdpp = build("M_DPP", n, refined=True)
    for omega, y, z in islice(_omega_points(seed), points):
        point = (omega_parameterization(omega, y), y, z, Fraction(1), Fraction(1))
        da = det_rat(evaluate_matrix_rat(masm, point, omega))
        dd = det_rat(evaluate_matrix_rat(mdpp, point, omega))
        if da != dd:
            return False
    return True


def homogeneous_weight_determinant(n: int, q: Fraction, rho0: Fraction) -> Fraction:
    """Partition function of the homogeneous model written directly in the
    vertex weights:

        c^n det( -b^(2i) delta(i,j+1)
                 + sum_k C(i-1,i-k) C(j+1,k) a^(2k) c^(2(i-k)) ),

    the path weight sum taken at x = a^2, y = c^2.
    """
    a, b, c = homogeneous_weights(q, rho0)
    point = (a**2, c**2, 1, 1, 1)
    rows = [
        [
            path_weight_sum(i, j, n).evaluate(point) - (b ** (2 * i) if i == j + 1 else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return c**n * det_rat(rows)


def check_weight_determinant(n: int, q: Fraction, rho0: Fraction) -> bool:
    lhs = homogeneous_weight_determinant(n, q, rho0)
    rhs = partition_function_explicit(n, homogeneous_point(n, q, rho0))
    return lhs == rhs


def matrix_to_json(m: PolyMatrix) -> list:
    """Entries as canonical term lists; omega entries list their
    coefficients by omega degree."""
    out = []
    for row in m.entries:
        json_row = []
        for e in row:
            if isinstance(e, OmegaPoly):
                json_row.append({"omega": [c.to_term_list() for c in e.coeffs]})
            else:
                json_row.append(e.to_term_list())
        out.append(json_row)
    return out
