"""Alternating sign matrices: validation, enumeration and statistics.

An order-n alternating sign matrix has entries in {-1, 0, 1}, nonzero
entries alternating in sign along every row and column, and all row and
column sums equal to 1.  Equivalently every partial row and column sum
lies in {0, 1}, which is the form the validator checks and the invariant
the enumerator maintains.

Statistics, for the generating function in (x, y, z):

    nu  - sum of A[i][j]*A[i'][j'] over i < i', j' <= j (inversion count)
    mu  - number of -1 entries
    rho - number of 0's left of the 1 in the first row

Every statistic is a sum of per-row terms: a row's entries v at column
j close the pairs of nu with every entry above them at a column j' >= j,
which adds v * (col[j] + ... + col[n-1]) where col holds the column sums
of the rows above; its -1 entries add to mu; and the first row, the one
with col all zeros, adds rho.  So a row's share depends only on the row
and col, and one step table per column vector, ``_row_steps``, serves
both the enumeration and the generating function.  ``enumerate_asms``
walks the tables and hands out validated ``Asm`` objects, one per
matrix.  ``z_asm_brute`` sums over them instead, through the shared
``MultiPoly._step_sum``: the rest of a matrix below a column vector
contributes the same polynomial whatever rows led there, so it is summed
once per vector, 2^n of them, and no matrix is visited.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Iterator

from .errors import ValidationError
from .limits import ASM_SUM_MAX_N, BRUTE_FORCE_LIMIT, check_order
from .polynomial import MultiPoly, _pack


@dataclass(frozen=True)
class Asm:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.rows) is not tuple:
            raise ValidationError(f"rows must be a tuple, not {type(self.rows).__name__}")
        for r in self.rows:
            if type(r) is not tuple:
                raise ValidationError(f"each row must be a tuple, not {type(r).__name__}")
        n = len(self.rows)
        if n == 0:
            raise ValidationError("empty matrix")
        if any(len(r) != n for r in self.rows):
            raise ValidationError("matrix must be square")
        for r in self.rows:
            s = 0
            for v in r:
                if type(v) is not int:
                    raise ValidationError(f"entry {v!r} is not an int")
                if v not in (-1, 0, 1):
                    raise ValidationError(f"entry {v} outside {{-1,0,1}}")
                s += v
                if s not in (0, 1):
                    raise ValidationError("partial row sums must stay in {0,1}")
            if s != 1:
                raise ValidationError("row sum must be 1")
        for j in range(n):
            s = 0
            for i in range(n):
                s += self.rows[i][j]
                if s not in (0, 1):
                    raise ValidationError("partial column sums must stay in {0,1}")
            if s != 1:
                raise ValidationError("column sum must be 1")

    @property
    def n(self) -> int:
        return len(self.rows)

    def nonzeros(self) -> list[tuple[int, int, int]]:
        """(row, col, value) triples, row-major, 0-based."""
        return [
            (i, j, v)
            for i, row in enumerate(self.rows)
            for j, v in enumerate(row)
            if v
        ]


@dataclass(frozen=True)
class AsmStats:
    nu: int
    mu: int
    rho: int

    @property
    def nu_prime(self) -> int:
        return self.nu + self.mu


def _row_candidates(col: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every row that may follow rows whose column partial sums are col:
    its own partial sums and each col[j] + row[j] stay in {0,1} and the
    row sums to 1.  Ascending lexicographic with -1 < 0 < 1."""
    n = len(col)
    out: list[tuple[int, ...]] = []
    row = [0] * n

    def rec(j: int, rowsum: int) -> None:
        if j == n:
            if rowsum == 1:
                out.append(tuple(row))
            return
        if col[j] == 1 and rowsum == 1:
            row[j] = -1
            rec(j + 1, 0)
            row[j] = 0
        rec(j + 1, rowsum)
        if col[j] == 0 and rowsum == 0:
            row[j] = 1
            rec(j + 1, 1)
            row[j] = 0

    rec(0, 0)
    return tuple(out)


@cache
def _row_steps(col: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """The steps from column state col: (row, next state, weight) for each
    row of ``_row_candidates(col)``, in its order.  The weight is the
    packed key of x^d_nu y^d_mu z^d_rho: d_nu is the row's share of nu,
    the sum of v * (col[j] + ... + col[n-1]) over its entries v at column
    j, d_mu its number of -1 entries, and d_rho the column of its 1 in a
    first row (col all zeros), else 0.  Cached for the life of the
    process; an order-n walk or sum reaches 2^n vectors (128 at n = 7)."""
    suffix = [0] * (len(col) + 1)
    for j in reversed(range(len(col))):
        suffix[j] = suffix[j + 1] + col[j]
    first = not any(col)
    return tuple(
        (
            row,
            tuple(c + v for c, v in zip(col, row)),
            _pack((sum(v * s for v, s in zip(row, suffix)), row.count(-1), row.index(1) if first else 0, 0, 0)),
        )
        for row in _row_candidates(col)
    )


def _walk(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The rows of every order-n matrix, in the enumeration order.  They
    come from the step tables and are not validated again."""

    def walk(rows: tuple[tuple[int, ...], ...], col: tuple[int, ...]):
        if len(rows) == n:
            yield rows
            return
        for row, nxt, _ in _row_steps(col):
            yield from walk(rows + (row,), nxt)

    return walk((), (0,) * n)


def enumerate_asms(n: int) -> Iterator[Asm]:
    """Yield every order-n alternating sign matrix exactly once, each one
    a validated ``Asm``.

    Deterministic order: ascending lexicographic in the concatenated rows
    with entries compared as integers (-1 < 0 < 1).  The walk runs row
    by row over the vector of column partial sums, which stays in
    {0,1}^n; that vector also encodes the last nonzero sign seen in each
    column, so sign alternation needs no extra state.  The rows that may
    follow a vector come from its step table ``_row_steps``, built once
    per vector.
    """
    check_order(n)
    for rows in _walk(n):
        yield Asm(rows)


def asm_stats(a: Asm) -> AsmStats:
    nz = a.nonzeros()
    nu = 0
    for idx, (i, j, v) in enumerate(nz):
        for i2, j2, v2 in nz[idx + 1 :]:
            if i2 > i and j2 <= j:
                nu += v * v2
    mu = sum(1 for _, _, v in nz if v == -1)
    rho = a.rows[0].index(1)
    return AsmStats(nu, mu, rho)


def asm_nu_second_form(a: Asm) -> int:
    """The companion double sum for nu (over i <= i', j' < j); cross-check."""
    nz = a.nonzeros()
    total = 0
    for i, j, v in nz:
        for i2, j2, v2 in nz:
            if i <= i2 and j2 < j:
                total += v * v2
    return total


def asm_reflect(a: Asm) -> Asm:
    """Reflection in the central vertical line: entry (i, j) -> (i, n-1-j)."""
    return Asm(tuple(tuple(reversed(row)) for row in a.rows))


def rotation_invariance(a: Asm, angle: str) -> bool:
    """Invariance under rotation by pi ('half') or pi/2 ('quarter')."""
    n = a.n
    if angle == "half":
        return all(
            a.rows[i][j] == a.rows[n - 1 - i][n - 1 - j]
            for i in range(n)
            for j in range(n)
        )
    if angle == "quarter":
        rotated = tuple(
            tuple(a.rows[n - 1 - j][i] for j in range(n)) for i in range(n)
        )
        return a.rows == rotated
    raise ValidationError(f"unknown angle {angle!r}")


def isolated_ones_count(a: Asm) -> int:
    """Entries 1 whose whole row and column are otherwise zero."""
    count = 0
    n = a.n
    for i in range(n):
        for j in range(n):
            if a.rows[i][j] != 1:
                continue
            if any(a.rows[i][jj] for jj in range(n) if jj != j):
                continue
            if any(a.rows[ii][j] for ii in range(n) if ii != i):
                continue
            count += 1
    return count


def count_asm_no_isolated_by_mu(n: int) -> Counter[int]:
    """mu -> number of order-n matrices with that many entries -1 and no
    isolated 1, from one pass over the family."""
    if n == 0:
        return Counter({0: 1})
    check_order(n, BRUTE_FORCE_LIMIT, "family enumeration")
    return Counter(asm_stats(a).mu for a in enumerate_asms(n) if isolated_ones_count(a) == 0)


def count_rotation_invariant(n: int) -> tuple[int, int]:
    """Numbers of order-n matrices invariant under the half turn and under
    the quarter turn."""
    check_order(n, BRUTE_FORCE_LIMIT, "family enumeration")
    half = quarter = 0
    for a in enumerate_asms(n):
        half += rotation_invariance(a, "half")
        quarter += rotation_invariance(a, "quarter")
    return half, quarter


@cache
def z_asm_brute(n: int) -> MultiPoly:
    """Sum of x^nu * y^mu * z^rho over all order-n matrices, memoized,
    summed over the step tables instead of over the matrices: one
    ``MultiPoly._step_sum`` from the zero column vector, whose walks end
    at the all-ones vector, through the steps of ``_row_steps``.  There
    are 2^n states, each summed once on packed keys."""
    check_order(n, ASM_SUM_MAX_N, "ASM step-table sum")
    return MultiPoly._step_sum(
        (0,) * n,
        lambda col: [nxt for _, nxt, _ in _row_steps(col)],
        lambda col: [(weight, nxt) for _, nxt, weight in _row_steps(col)],
        all,
    )


def asm_row_word(a: Asm) -> str:
    """Compact text form: per row, the 1-based columns of the nonzero
    entries joined by '.', rows joined by '/'.  Signs are implied by the
    alternation rule (+1, -1, +1, ...)."""
    return "/".join(
        ".".join(str(j + 1) for j, v in enumerate(row) if v) for row in a.rows
    )

