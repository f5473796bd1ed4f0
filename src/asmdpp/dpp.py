"""Descending plane partitions: validation, enumeration and statistics.

A descending plane partition is a shifted array of positive parts: row i
(1-based) occupies absolute columns i .. i + len(row_i) - 1.  Parts
decrease weakly along rows and strictly down columns, and first parts
interlace the row lengths:

    D[1][1] > len_1 >= D[2][2] > len_2 >= ... >= D[t][t] > len_t.

The empty array is a valid element.  ``DPP(n)`` is the set of all such
arrays with every part at most n; an array does not carry its ambient n,
so the statistics take n as an argument.

A part in row i at 0-based offset k (absolute column i + k) is special
when it is <= k; nu counts nonspecial parts, mu special parts, rho the
parts equal to n.

Every statistic is a sum of per-row terms, since a part's offset within
its row decides whether it is special.  ``enumerate_dpps`` walks the
rows and hands out validated ``Dpp`` objects, one per array.
``z_dpp_brute_wq`` sums over the same rows instead, through the shared
``MultiPoly._step_sum``: the rows that may follow a row depend only on
that row less its first part, its tail, so the part of the generating
function below it is summed once per tail, and no array is visited.

The walk fills each row from a cache keyed on the first part, the
length, the least part at offset 1 and the parts of the row above that
cap the new row: 2,091 keys at order 7 (10,094 at order 8) for about
242,000 rows placed.  Every cached row is one shared tuple object, 1,078
of them at order 7 (4,081 at order 8), so the arrays of the walk, and
any cache keyed on rows, hold those objects and no copies.

The rules of a DPP look at one row, or one row and the row above it, at
a time.  So ``Dpp(rows)`` accepts an array at once when the full rule
loop accepted each of its row objects and each consecutive pair of them
before, and runs the loop otherwise, which gives the same first error.
The loop records what it accepts, but only rows that are shared tuples
of the walk, by object identity: a value-equal row such as (3, 1.0) is
another object and takes the loop.  After DPP(7) the record holds 1,078
rows and 42,238 pairs, one bit each in a mask per row (about 0.2 MB; 4,081
rows and 527,136 pairs at order 8), and validating all 218,348 arrays
costs a few lookups per row instead of the loop (about 0.6 s in place of
1.4 s on one core of a 2-vCPU machine).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import Iterator

from .errors import ValidationError
from .limits import DPP_SUM_MAX_N, check_order
from .polynomial import Q_IDX, W_IDX, MultiPoly, _pack, marginal, monomial


@dataclass(frozen=True)
class Dpp:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = self.rows
        if type(rows) is not tuple:
            raise ValidationError(f"rows must be a tuple, not {type(rows).__name__}")
        for row in rows:
            if type(row) is not tuple:
                raise ValidationError(f"each row must be a tuple, not {type(row).__name__}")
        if not _accepted_before(rows):
            _check_rows(rows)
            _remember(rows)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def max_part(self) -> int:
        return self.rows[0][0] if self.rows else 0

    def parts_sum(self) -> int:
        return sum(sum(row) for row in self.rows)


@dataclass(frozen=True)
class DppStats:
    nu: int
    mu: int
    rho: int
    parts_sum: int
    row_count: int


def dpp_stats(d: Dpp, n: int) -> DppStats:
    nu = mu = rho = 0
    for row in d.rows:
        for k, part in enumerate(row):
            if part > n:
                raise ValidationError(f"part {part} exceeds ambient order {n}")
            if part <= k:
                mu += 1
            else:
                nu += 1
            if part == n:
                rho += 1
    return DppStats(nu, mu, rho, d.parts_sum(), d.row_count)


# the cache of _row_fillings, and the one tuple object kept for each
# distinct row it holds (1,078 at order 7, against 29,509 row tuples
# unshared)
_FILLINGS: dict[tuple, tuple[tuple[int, ...], ...]] = {}
_SHARED_ROWS: dict[tuple[int, ...], tuple[int, ...]] = {}

# what _check_rows has accepted, keyed on the id of a shared row: the row
# itself, held so that no other object takes its id, its serial number,
# and a mask with the bits of the serials of the shared rows accepted
# directly below it (1,078 rows and 42,238 pairs after DPP(7))
_ACCEPTED: dict[int, list] = {}


def _check_rows(rows: tuple[tuple[int, ...], ...]) -> None:
    """The rules of a DPP, row by row: each row passes the row rules and
    each row passes the pair rules with the row above it.  Raises
    ValidationError at the first rule broken."""
    prev = None
    for row in rows:
        if not row:
            raise ValidationError("rows must be nonempty")
        if any(type(p) is not int or p < 1 for p in row):
            raise ValidationError("parts must be positive integers")
        if any(row[k] < row[k + 1] for k in range(len(row) - 1)):
            raise ValidationError("parts must decrease weakly along rows")
        if prev is not None:
            # chain: len(prev) >= row[0] and, below, prev row covers this one
            if len(prev) < row[0]:
                raise ValidationError("row length chain violated")
            if len(row) > len(prev) - 1:
                raise ValidationError("row extends past the row above")
            # strict decrease down columns; offset k here sits under
            # offset k+1 of the previous row
            for k, part in enumerate(row):
                if part >= prev[k + 1]:
                    raise ValidationError("parts must decrease strictly down columns")
        if row[0] <= len(row):
            raise ValidationError("first part must exceed the row length")
        prev = row


def _accepted_before(rows: tuple[tuple[int, ...], ...]) -> bool:
    """Whether ``_check_rows`` accepted each of these row objects, and
    each consecutive pair of them, before.  The rules look at one row or
    one pair at a time, so then it accepts the array too.  Identity, not
    equality, decides: (3, 1.0) equals (3, 1) but breaks a rule."""
    below = -1  # a first row has no row above it to pass
    for row in rows:
        seen = _ACCEPTED.get(id(row))
        if seen is None or not below >> seen[1] & 1:
            return False
        below = seen[2]
    return True


def _remember(rows: tuple[tuple[int, ...], ...]) -> None:
    """Record the rows and consecutive pairs of an accepted array that are
    shared rows of ``_row_fillings``; a caller's own tuples are not kept."""
    above = None
    for row in rows:
        if _SHARED_ROWS.get(row) is not row:
            above = None
            continue
        seen = _ACCEPTED.get(id(row))
        if seen is None:
            seen = _ACCEPTED[id(row)] = [row, len(_ACCEPTED), 0]
        if above is not None:
            above[2] |= 1 << seen[1]
        above = seen


def _row_fillings(first: int, length: int, low: int, above: tuple[int, ...] | None) -> tuple[tuple[int, ...], ...]:
    """All weakly decreasing positive rows with the given first part and
    length, part at offset 1 at least low, strictly below the row above
    where columns overlap; in ascending order.  The part at offset k sits
    under offset k + 1 of the row above and is at most that part less
    one, its cap, so only the parts at offsets 2..length of the row
    above, ``above``, decide the rows (None for the top row).  They are
    cached on those parts: 2,091 keys at order 7, where the whole row
    above gives 17,096."""
    key = (first, length, low, above)
    rows = _FILLINGS.get(key)
    if rows is not None:
        return rows
    out: list[tuple[int, ...]] = []
    parts = [first]

    def rec(k: int, lo: int) -> None:
        if k == length:
            row = tuple(parts)
            out.append(_SHARED_ROWS.setdefault(row, row))
            return
        hi = parts[-1] if above is None else min(parts[-1], above[k - 1] - 1)
        for v in range(lo, hi + 1):
            parts.append(v)
            rec(k + 1, 1)
            parts.pop()

    rec(1, low)
    rows = _FILLINGS[key] = tuple(out)
    return rows


@cache
def _row_weight(row: tuple[int, ...], n: int) -> int:
    """The packed key of x^nu y^mu z^rho w q^(sum of parts) of one row of
    an element of DPP(n), its factor in ``z_dpp_brute_wq``.  Cached per
    distinct row; order 7 has 1,078."""
    mu = sum(part <= k for k, part in enumerate(row))
    return _pack((len(row) - mu, mu, row.count(n), 1, sum(row)))


def _walk(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The rows of every element of DPP(n), in the enumeration order.
    They are filled within the bounds that make the array valid and are
    not validated again."""
    rows: list[tuple[int, ...]] = []

    def fill(firsts: tuple[int, ...], lengths: tuple[int, ...]):
        i = len(rows)
        if i == len(firsts):
            yield tuple(rows)
            return
        low = firsts[i + 1] + 1 if i + 1 < len(firsts) else 1
        above = rows[-1][2 : lengths[i] + 1] if rows else None
        for row in _row_fillings(firsts[i], lengths[i], low, above):
            rows.append(row)
            yield from fill(firsts, lengths)
            rows.pop()

    for t in range(n):
        # combinations of a descending range come in descending order
        for firsts in reversed(list(combinations(range(n, 1, -1), t))):
            below = firsts[1:] + (1,)
            for lengths in product(*map(range, below, firsts)):
                yield from fill(firsts, lengths)


def enumerate_dpps(n: int) -> Iterator[Dpp]:
    """Yield every element of DPP(n) exactly once, in ascending order of
    the key (row count, first parts, row lengths, full part tuples), the
    order used by every fixture and by the command-line enumerator.

    The family is generated in that order, one array at a time, with
    nothing stored or sorted: for each row count t, the first parts
    f_1 > ... > f_t >= 2 in ascending lexicographic order, then the row
    lengths f_i > len_i >= f_(i+1) (f_(t+1) = 1) likewise, then the rows
    top to bottom, each filled in ascending order.  A row's part at
    offset 1 must exceed the next row's first part, which sits under it.
    """
    check_order(n)
    for rows in _walk(n):
        yield Dpp(rows)


def _next_rows(tail: tuple[int, ...] | None, n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The steps of ``z_dpp_brute_wq``: (weight, tail) of every row that
    may follow a row with parts past the first tail in an element of
    DPP(n), or start one when tail is None.  Its first part sits under
    tail[0], so it is below that part and at most the length of the row
    above, and the row is shorter than both its first part and the row
    above, whose first part decides none of this."""
    if tail is None:
        top, longest = n, n
    elif tail:
        top, longest = min(len(tail) + 1, tail[0] - 1), len(tail)
    else:
        return
    for first in range(2, top + 1):
        for length in range(1, min(first - 1, longest) + 1):
            for row in _row_fillings(first, length, 1, None if tail is None else tail[1:length]):
                yield _row_weight(row, n), row[1:]


@cache
def z_dpp_brute_wq(n: int) -> MultiPoly:
    """Sum of x^nu * y^mu * z^rho * w^(rows+1) * q^(sum of parts) over
    DPP(n), memoized, summed over the rows instead of over the arrays.

    It is w times one ``MultiPoly._step_sum`` from None, the top, through
    the steps of ``_next_rows``: a state is a row less its first part,
    and a walk may stop at every state.  The first part of a row does
    not bound the rows below it, so there are 792 states at n = 7 (3,003
    at n = 8), each summed once on packed keys and dropped once its last
    reader has used it.  This is the one pass that counts DPP
    statistics; the other DPP generating functions are substitutions or
    marginals of it."""
    check_order(n, DPP_SUM_MAX_N, "DPP step-table sum")
    z = MultiPoly._step_sum(
        None,
        lambda tail: _next_rows(tail, n),
        lambda tail: True,
    )
    return z * monomial(1, w=1)


def z_dpp_brute_w(n: int) -> MultiPoly:
    """Sum of w^(rows+1) * x^nu * y^mu * z^rho over DPP(n)."""
    return z_dpp_brute_wq(n).substitute(Q_IDX, 1)


@cache
def z_dpp_brute(n: int) -> MultiPoly:
    """Sum of x^nu * y^mu * z^rho over DPP(n), memoized."""
    return z_dpp_brute_w(n).substitute(W_IDX, 1)


def q_sum_of_parts(n: int) -> MultiPoly:
    """Sum of q^(sum of parts) over DPP(n): the q-marginal of the one-pass
    sum, as a polynomial in q."""
    by_parts_sum = marginal(z_dpp_brute_wq(n), Q_IDX)
    return MultiPoly(((0, 0, 0, 0, e), c) for e, c in by_parts_sum.items())
