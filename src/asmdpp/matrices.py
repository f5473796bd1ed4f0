"""The determinant matrices behind the weighted enumerations, and the
exact relations between them.

All matrices are n x n, indexed 0 <= i, j <= n-1, over Z[x, y, z, w, q]
(with the omega extension where needed):

  M_BAR      -delta(i,j+1) + sum_k C(i-1,i-k) C(j+1,k) x^k y^(i-k); in the
             refined form the last column carries the z-refined sum
             sum_{k,l} C(i-1,i-k) C(n-l-1,k-l) x^k y^(i-k) z^l.  Its
             determinant is the full generating function of both families.
             The entries are the path weight sums of paths.path_weight_sum,
             assembled by paths.lgv_matrix.
  M_BAR_W    M_BAR with the binomial sum (not the -delta term) multiplied
             by w; the determinant then also tracks the row count.
  M_ASM      (1-omega) delta(i,j) + omega sum_k C(i,k) C(j,k) x^k y^(i-k),
             last column z-refined with z^(l+1) and C(n-l-2, k-l).
  M_DPP      M_BAR with the last column multiplied by 1 + omega (z-1).
  M_PRIME    delta(i,j) + sum_{k<i} sum_l C(j,l) C(k,l) x^(l+1) y^(k-l),
             last column z-refined.
  M_DPRIME   C(j+1,i) x^i - C(i-1,i-j-1) (-y)^(i-j-1), last column
             z-refined to sum_k C(n-k-1,i-k) x^i z^k.
  S          subdiagonal shift, delta(i,j+1).
  B          C(i-1,i-j) y^(i-j), lower triangular with unit diagonal.
  L          C(i,j) x^i y^j (the two-parameter triangular family, with
             the parameters played by x and y; rational instances are
             built by l_matrix_rat).

omega is a root of  y*omega^2 + (1 - x - y)*omega + x = 0.  Symbolic
checks never pick a root: they test divisibility by the quadratic, which
is valid for both roots.  Numeric checks parameterize (omega, y) -> x
rationally, so no square roots appear anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .asm import z_asm_brute
from .errors import ResourceLimitError, ValidationError
from .limits import MATRIX_BUILD_MAX_N
from .linalg import PolyMatrix, det_poly, det_rat, lift_to_omega
from .paths import lgv_matrix, path_weight_sum
from .polynomial import (
    ONE,
    ZERO,
    MultiPoly,
    OmegaPoly,
    binom,
    monomial,
    omega_congruent_zero,
)
from .sixvertex import homogeneous_point, homogeneous_weights, partition_function_explicit

FAMILY_NAMES = (
    "M_ASM",
    "M_DPP",
    "M_BAR",
    "M_BAR_W",
    "M_PRIME",
    "M_DPRIME",
    "S",
    "B",
    "L",
)


def _masm_entry_poly(i: int, j: int, n: int, refined: bool) -> MultiPoly:
    terms: dict[tuple, int] = {}
    if refined and j == n - 1:
        for k in range(i + 1):
            for l in range(k + 1):
                c = binom(i, k) * binom(n - l - 2, k - l)
                if c:
                    exp = (k, i - k, l + 1, 0, 0)
                    terms[exp] = terms.get(exp, 0) + c
    else:
        for k in range(min(i, j) + 1):
            c = binom(i, k) * binom(j, k)
            if c:
                terms[(k, i - k, 0, 0, 0)] = c
    return MultiPoly(terms)


def _masm(n: int, refined: bool) -> PolyMatrix:
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            g = _masm_entry_poly(i, j, n, refined)
            d0 = ONE if i == j else ZERO
            row.append(OmegaPoly((d0, g - d0)))
        rows.append(tuple(row))
    return PolyMatrix(tuple(rows))


def _mdpp(n: int, refined: bool) -> PolyMatrix:
    mbar = lgv_matrix(n, refined)
    if not refined:
        return mbar
    z_minus_1 = monomial(1, z=1) - ONE
    return PolyMatrix(
        tuple(
            tuple(OmegaPoly((e,)) for e in row[:-1])
            + (OmegaPoly((row[-1], z_minus_1 * row[-1])),)
            for row in mbar.entries
        )
    )


def _mprime(n: int, refined: bool) -> PolyMatrix:
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms: dict[tuple, int] = {}
            if refined and j == n - 1:
                for k in range(i):
                    for l in range(k + 1):
                        for m in range(l + 1):
                            c = binom(n - m - 2, l - m) * binom(k, l)
                            if c:
                                exp = (l + 1, k - l, m + 1, 0, 0)
                                terms[exp] = terms.get(exp, 0) + c
            else:
                for k in range(i):
                    for l in range(min(j, k) + 1):
                        c = binom(j, l) * binom(k, l)
                        if c:
                            exp = (l + 1, k - l, 0, 0, 0)
                            terms[exp] = terms.get(exp, 0) + c
            e = MultiPoly(terms)
            if i == j:
                e = e + ONE
            row.append(e)
        rows.append(tuple(row))
    return PolyMatrix(tuple(rows))


def _mdprime(n: int, refined: bool) -> PolyMatrix:
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms: dict[tuple, int] = {}
            if refined and j == n - 1:
                for k in range(i + 1):
                    c = binom(n - k - 1, i - k)
                    if c:
                        terms[(i, 0, k, 0, 0)] = c
            else:
                c = binom(j + 1, i)
                if c:
                    terms[(i, 0, 0, 0, 0)] = c
                d = binom(i - 1, i - j - 1)
                if d:
                    e = i - j - 1
                    exp = (0, e, 0, 0, 0)
                    sign = -1 if e % 2 == 0 else 1
                    terms[exp] = terms.get(exp, 0) + sign * d
            row.append(MultiPoly(terms))
        rows.append(tuple(row))
    return PolyMatrix(tuple(rows))


def shift_matrix(n: int) -> PolyMatrix:
    return PolyMatrix(
        tuple(
            tuple(ONE if i == j + 1 else ZERO for j in range(n)) for i in range(n)
        )
    )


def _bmat(n: int) -> PolyMatrix:
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            c = binom(i - 1, i - j)
            row.append(monomial(c, y=i - j) if c else ZERO)
        rows.append(tuple(row))
    return PolyMatrix(tuple(rows))


def _lmat(n: int) -> PolyMatrix:
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            c = binom(i, j)
            row.append(monomial(c, x=i, y=j) if c else ZERO)
        rows.append(tuple(row))
    return PolyMatrix(tuple(rows))


def build(name: str, n: int, refined: bool = True) -> PolyMatrix:
    """Construct one of the named matrices at order n.

    M_ASM always has OmegaPoly entries; M_DPP does when refined (the
    omega factor sits only in the last column).  Everything else is
    omega-free MultiPoly.
    """
    if n < 1:
        raise ValidationError("order must be at least 1")
    if n > MATRIX_BUILD_MAX_N:
        raise ResourceLimitError(f"matrix construction capped at order {MATRIX_BUILD_MAX_N}")
    if name == "M_BAR":
        return lgv_matrix(n, refined)
    if name == "M_BAR_W":
        return lgv_matrix(n, refined, w_weight=True)
    if name == "M_ASM":
        return _masm(n, refined)
    if name == "M_DPP":
        return _mdpp(n, refined)
    if name == "M_PRIME":
        return _mprime(n, refined)
    if name == "M_DPRIME":
        return _mdprime(n, refined)
    if name == "S":
        return shift_matrix(n)
    if name == "B":
        return _bmat(n)
    if name == "L":
        return _lmat(n)
    raise ValidationError(f"unknown matrix family {name!r}")


def l_matrix_rat(n: int, alpha: Fraction, beta: Fraction) -> list[list[Fraction]]:
    """Rational instance of the triangular family C(i,j) alpha^i beta^j."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    return [
        [binom(i, j) * alpha**i * beta**j for j in range(n)] for i in range(n)
    ]


def genfunc_det(n: int, w_refined: bool = False) -> MultiPoly:
    """The determinant route to the generating function."""
    name = "M_BAR_W" if w_refined else "M_BAR"
    return det_poly(build(name, n, refined=True))


def check_omega_relation(
    n: int, refined: bool = True, perturbation: tuple[int, int] | None = None
) -> bool:
    """Exact intertwining of the two family matrices:

        (I + (x - omega y - 1) S) M_ASM  -  M_DPP (I + (omega - 1) S^t)

    must vanish modulo the omega quadratic, entry by entry.  An optional
    perturbation adds 1 to one M_ASM entry (negative control)."""
    masm = build("M_ASM", n, refined)
    mdpp = lift_to_omega(build("M_DPP", n, refined))
    if perturbation is not None:
        i, j = perturbation
        bumped = masm.entries[i][j] + OmegaPoly((ONE,))
        rows = [list(r) for r in masm.entries]
        rows[i][j] = bumped
        masm = PolyMatrix(tuple(tuple(r) for r in rows))
    s = shift_matrix(n)
    x_minus_1 = monomial(1, x=1) - ONE
    neg_y = monomial(-1, y=1)
    left = PolyMatrix(
        tuple(
            tuple(
                OmegaPoly(
                    (
                        (ONE if i == j else ZERO) + x_minus_1 * s.entries[i][j],
                        neg_y * s.entries[i][j],
                    )
                )
                for j in range(n)
            )
            for i in range(n)
        )
    )
    st = s.transpose()
    right = PolyMatrix(
        tuple(
            tuple(
                OmegaPoly(
                    (
                        (ONE if i == j else ZERO) - st.entries[i][j],
                        st.entries[i][j],
                    )
                )
                for j in range(n)
            )
            for i in range(n)
        )
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


def asmdet_holds_at(n: int, omega: Fraction, y: Fraction, z: Fraction) -> bool:
    """Check det M_ASM = (1 + omega (z-1)) Z at one admissible point."""
    omega, y, z = Fraction(omega), Fraction(y), Fraction(z)
    x = omega_parameterization(omega, y)
    if y * omega**2 + (1 - x - y) * omega + x != 0:
        raise ValidationError("parameterization failed to satisfy the quadratic")
    point = (x, y, z, Fraction(1), Fraction(1))
    rat = evaluate_matrix_rat(build("M_ASM", n, refined=True), point, omega)
    expected = (1 + omega * (z - 1)) * z_asm_brute(n).evaluate(point)
    return det_rat(rat) == expected


def check_prop_asmdet_rational(n: int, trials: int, seed: int = 0) -> bool:
    """Randomized rational verification of the omega determinant formula.

    Each trial samples omega not in {0, 1} and free y, z, then solves for
    the x that puts omega on the quadratic.  Degenerate draws resample."""
    rng = Random(seed)
    for _ in range(trials):
        while True:
            omega = _sample_fraction(rng)
            if omega in (0, 1):
                continue
            y = _sample_fraction(rng)
            z = _sample_fraction(rng)
            break
        if not asmdet_holds_at(n, omega, y, z):
            return False
    return True


def check_omega_relation_rational(n: int, points: int, seed: int = 0) -> bool:
    """Spot-check that the intertwining forces equal determinants at
    rational points of the omega variety."""
    rng = Random(seed)
    done = 0
    while done < points:
        omega = _sample_fraction(rng)
        if omega in (0, 1):
            continue
        y = _sample_fraction(rng)
        z = _sample_fraction(rng)
        x = omega_parameterization(omega, y)
        point = (x, y, z, Fraction(1), Fraction(1))
        da = det_rat(evaluate_matrix_rat(build("M_ASM", n, refined=True), point, omega))
        dd = det_rat(evaluate_matrix_rat(build("M_DPP", n, refined=True), point, omega))
        if da != dd:
            return False
        done += 1
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
