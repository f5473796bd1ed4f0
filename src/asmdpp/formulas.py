"""Closed-form counts, q-analogues, the special-part-free bijection, and
the parity identities.

Every product formula is evaluated with exact integer arithmetic; the
divisions are asserted to be exact (a failed division would indicate a
transcription bug, not a rounding problem).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .asm import (
    Asm,
    count_asm_no_isolated_by_mu,
    count_rotation_invariant,
    z_asm_brute,
)
from .dpp import Dpp, dpp_stats, z_dpp_brute_wq
from .errors import InvariantError, ValidationError
from .limits import check_order
from .linalg import divide_exact
from .polynomial import ONE, Q_IDX, Y_IDX, MultiPoly, marginal


def _exact_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise InvariantError(f"{what} is not an integer: {value}")
    return value.numerator


def asm_total(n: int) -> int:
    """prod_{i=0}^{n-1} (3i+1)! / (n+i)!  (counts both families)."""
    check_order(n)
    value = Fraction(1)
    for i in range(n):
        value *= Fraction(factorial(3 * i + 1), factorial(n + i))
    return _exact_int(value, "total count")


def refined_total(n: int, k: int) -> int:
    """Count of order-n elements with rho = k:

    (n+k-1)! (2n-k-2)! / ((2n-2)! k! (n-k-1)!) * prod (3i+1)!/(n+i-1)!.
    """
    check_order(n)
    if not 0 <= k <= n - 1:
        raise ValidationError(f"k = {k} out of range 0..{n - 1}")
    value = Fraction(
        factorial(n + k - 1) * factorial(2 * n - k - 2),
        factorial(2 * n - 2) * factorial(k) * factorial(n - k - 1),
    )
    for i in range(n - 1):
        value *= Fraction(factorial(3 * i + 1), factorial(n + i - 1))
    return _exact_int(value, "refined count")


def vsasm_total(n: int) -> int:
    """Number of order-(2n+1) matrices invariant under the vertical
    reflection: prod_{i=1}^{n} (6i-2)! / (2n+2i)!, which is 1 at n = 0."""
    check_order(2 * n + 1)
    value = Fraction(1)
    for i in range(1, n + 1):
        value *= Fraction(factorial(6 * i - 2), factorial(2 * n + 2 * i))
    return _exact_int(value, "symmetric count")


def q_int(k: int) -> MultiPoly:
    """[k]_q = 1 + q + ... + q^(k-1)."""
    return MultiPoly({(0, 0, 0, 0, e): 1 for e in range(k)})


def q_factorial(k: int) -> MultiPoly:
    out = ONE
    for j in range(1, k + 1):
        out = out * q_int(j)
    return out


def q_factorial_product(n: int) -> MultiPoly:
    """prod_{i=0}^{n-1} [3i+1]_q! / [n+i]_q!, computed by exact polynomial
    division (the quotient is a genuine polynomial)."""
    num = ONE
    den = ONE
    for i in range(n):
        num = num * q_factorial(3 * i + 1)
        den = den * q_factorial(n + i)
    return divide_exact(num, den)


def xz_int(k: int) -> MultiPoly:
    """[k]_{xz} = 1 + xz + ... + (xz)^(k-1)."""
    return MultiPoly({(e, 0, e, 0, 0): 1 for e in range(k)})


def z_mu_zero(n: int) -> MultiPoly:
    """[n]_{xz} [n-1]_x!, the generating function over elements with no
    -1 entries / no special parts."""
    check_order(n)
    out = xz_int(n)
    for k in range(1, n):
        out = out * MultiPoly({(e, 0, 0, 0, 0): 1 for e in range(k)})
    return out


def m0_asm_to_dpp(a: Asm) -> Dpp:
    """Bijection on the mu = 0 slice, permutation-matrix side to array
    side.  chi_i counts the 1 entries below-left of row i's 1; the array
    takes chi_i copies of the part n+1-i, placed greedily left to right,
    breaking to a new row as soon as the row length would exceed the part
    being placed."""
    if any(-1 in row for row in a.rows):
        raise ValidationError("input must have no -1 entries")
    n = a.n
    pi = [row.index(1) for row in a.rows]
    parts: list[int] = []
    for i in range(n):
        chi = sum(1 for i2 in range(i + 1, n) if pi[i2] < pi[i])
        parts.extend([n - i] * chi)
    parts.sort(reverse=True)
    rows: list[list[int]] = []
    current: list[int] = []
    for part in parts:
        if len(current) + 1 <= part:
            current.append(part)
        else:
            rows.append(current)
            current = [part]
    if current:
        rows.append(current)
    return Dpp(tuple(tuple(r) for r in rows))


def m0_dpp_to_asm(d: Dpp, n: int) -> Asm:
    """Inverse bijection: chi_i is the number of parts equal to n+1-i and
    row i's 1 goes to the (chi_i + 1)-th smallest column still free."""
    if d.rows and dpp_stats(d, n).mu != 0:
        raise ValidationError("input must have no special parts")
    counts = [0] * (n + 1)
    for row in d.rows:
        for part in row:
            counts[part] += 1
    remaining = list(range(1, n + 1))
    pi = []
    for i in range(1, n + 1):
        chi = counts[n + 1 - i]
        if chi >= len(remaining):
            raise ValidationError("part multiplicities are not an inversion table")
        pi.append(remaining.pop(chi))
    rows = tuple(
        tuple(1 if col == target else 0 for col in range(1, n + 1)) for target in pi
    )
    return Asm(rows)


def stanton_parity(n: int) -> tuple[int, int, int, int]:
    """(even - odd, mod-4 gap, half-turn count, quarter-turn count).

    The part-sum parity gaps over the arrays equal the rotation-invariant
    matrix counts; both equalities are asserted before returning."""
    by_parts_sum = marginal(z_dpp_brute_wq(n), Q_IDX)
    by_mod4 = [sum(c for e, c in by_parts_sum.items() if e % 4 == r) for r in range(4)]
    half, quarter = count_rotation_invariant(n)
    even_minus_odd = by_mod4[0] + by_mod4[2] - by_mod4[1] - by_mod4[3]
    mod4_gap = by_mod4[0] - by_mod4[2]
    if even_minus_odd != half:
        raise InvariantError(
            f"parity gap {even_minus_odd} != half-turn count {half} at order {n}"
        )
    if mod4_gap != quarter:
        raise InvariantError(
            f"mod-4 gap {mod4_gap} != quarter-turn count {quarter} at order {n}"
        )
    return (even_minus_odd, mod4_gap, half, quarter)


def cdlg_identities(n: int, max_m: int) -> list[tuple[int, int]]:
    """Isolated-1 decomposition of the mu-level count:

        |{A : mu(A) = m}| = sum_i (n!)^2 / ((i!)^2 (n-i)!) * C(i, m),

    C(i, m) counting order-i matrices with m entries -1 and no isolated 1.
    The sum runs over 0 <= i <= min(3m, n); the i = 0 term (C(0,0) = 1)
    carries the whole m = 0 case.  Returns (enumerated count, sum) for
    m = 0..max_m, from one ``z_asm_brute(n)`` and one pass over each
    family of order i <= min(3 max_m, n)."""
    by_mu = marginal(z_asm_brute(n), Y_IDX)
    no_isolated = [count_asm_no_isolated_by_mu(i) for i in range(min(3 * max_m, n) + 1)]
    sides = []
    for m in range(max_m + 1):
        rhs = Fraction(0)
        for i in range(0, min(3 * m, n) + 1):
            c_im = no_isolated[i][m]
            if c_im:
                rhs += Fraction(
                    factorial(n) ** 2, factorial(i) ** 2 * factorial(n - i)
                ) * c_im
        sides.append((by_mu[m], _exact_int(rhs, "isolated-1 sum")))
    return sides
