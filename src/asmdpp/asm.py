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
both the enumeration and the generating function.  ``z_asm_brute`` sums
over the tables through the shared ``MultiPoly._step_sum``: the rest of
a matrix below a column vector contributes the same polynomial whatever
rows led there, so it is summed once per vector, 2^n of them, and no
matrix is visited.

The rules split the same way.  A matrix is valid exactly when each row
is a valid step from the column vector above it (``_check_step``: the
row's entries, its partial sums and row sum, and each col[j] + row[j] in
{0, 1}) and the last vector is all ones (``_check_last``).  The walk
reads a vector's steps from ``_confirmed_steps``, which runs the step
check on each row of the table, and the last-vector check after a last
row, the first time it is asked for them: once per distinct step, 1,093
at n = 7 for 218,348 matrices.  ``enumerate_asms`` hands out the
matrices the walk confirmed, without the rule loop; ``Asm(rows)`` runs
the whole loop on every array a caller passes in, and neither reads nor
writes the walk's tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator

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
            _check_row(r)
        for j in range(n):
            s = 0
            for i in range(n):
                s += self.rows[i][j]
                if s not in (0, 1):
                    raise ValidationError("partial column sums must stay in {0,1}")
            if s != 1:
                raise ValidationError("column sum must be 1")

    @classmethod
    def _confirmed(cls, rows: tuple[tuple[int, ...], ...]) -> "Asm":
        # internal constructor for the matrices of _walk: _confirmed_steps
        # ran the step check on every row of rows from the column vector
        # above it, and the last-vector check after its last row, and an
        # array passes the rule loop exactly when those pass, so the loop
        # would only repeat them
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        return self

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


def _check_row(row: tuple[int, ...]) -> None:
    """The rules of one row on its own: int entries in {-1, 0, 1}, partial
    row sums in {0, 1} and row sum 1."""
    s = 0
    for v in row:
        if type(v) is not int:
            raise ValidationError(f"entry {v!r} is not an int")
        if v not in (-1, 0, 1):
            raise ValidationError(f"entry {v} outside {{-1,0,1}}")
        s += v
        if s not in (0, 1):
            raise ValidationError("partial row sums must stay in {0,1}")
    if s != 1:
        raise ValidationError("row sum must be 1")


def _check_step(col: tuple[int, ...], row: tuple[int, ...]) -> None:
    """The rules of a row under rows whose column partial sums are col, in
    {0, 1}: a tuple as long as col that passes ``_check_row``, with each
    col[j] + row[j] in {0, 1}.  The messages are those of ``Asm``."""
    if type(row) is not tuple:
        raise ValidationError(f"each row must be a tuple, not {type(row).__name__}")
    if len(row) != len(col):
        raise ValidationError("matrix must be square")
    _check_row(row)
    if any(c + v not in (0, 1) for c, v in zip(col, row)):
        raise ValidationError("partial column sums must stay in {0,1}")


def _check_last(col: tuple[int, ...]) -> None:
    """The rule of the column sums of a whole matrix: every one is 1."""
    if any(c != 1 for c in col):
        raise ValidationError("column sum must be 1")


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


@cache
def _confirmed_steps(col: tuple[int, ...], i: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The steps of row i from column vector col, as (row, next vector)
    pairs in the order of ``_row_steps(col)``.  Each row is confirmed by
    ``_check_step`` and its next vector made from it here, and after a
    last row (i = n - 1) that vector is confirmed by ``_check_last``.  The
    table is built, and the rules run, once per (col, i); as i is the sum
    of col on every walk, that is once per distinct step: 364 at n = 6,
    1,093 at n = 7.  A broken rule raises its ValidationError, and the
    vector's table is not kept."""
    last = i == len(col) - 1
    out = []
    for row, _, _ in _row_steps(col):
        _check_step(col, row)
        nxt = tuple(c + v for c, v in zip(col, row))
        if last:
            _check_last(nxt)
        out.append((row, nxt))
    return tuple(out)


def _walk(n: int, steps: Callable | None = None) -> Iterator[tuple]:
    """Every order-n matrix in the enumeration order, as the tuple of the
    items of its steps, row by row.  steps(col, i) gives the (item, next
    vector) pairs of row i from column vector col; by default
    ``_confirmed_steps``, whose items are the rows.  A table is asked for
    before any matrix through it is yielded, so a broken rule stops the
    walk after a prefix of the family."""
    steps = steps or _confirmed_steps

    def walk(items: tuple, col: tuple[int, ...], i: int):
        if i == n - 1:
            for item, _ in steps(col, i):
                yield items + (item,)
            return
        for item, nxt in steps(col, i):
            yield from walk(items + (item,), nxt, i + 1)

    return walk((), (0,) * n, 0)


def enumerate_asms(n: int) -> Iterator[Asm]:
    """Yield every order-n alternating sign matrix exactly once, each one
    an ``Asm`` whose steps the walk confirmed.

    Deterministic order: ascending lexicographic in the concatenated rows
    with entries compared as integers (-1 < 0 < 1).  The walk runs row
    by row over the vector of column partial sums, which stays in
    {0,1}^n; that vector also encodes the last nonzero sign seen in each
    column, so sign alternation needs no extra state.  The rows that may
    follow a vector come from its step table ``_row_steps``, confirmed
    once per distinct step by ``_confirmed_steps``; the objects are made
    by ``Asm._confirmed``, without the rule loop.
    """
    check_order(n)
    yield from map(Asm._confirmed, _walk(n))


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
    return "/".join(map(_row_word, a.rows))


@cache
def _row_word(row: tuple[int, ...]) -> str:
    # one entry per distinct row (64 at order 7)
    return ".".join(str(j + 1) for j, v in enumerate(row) if v)

