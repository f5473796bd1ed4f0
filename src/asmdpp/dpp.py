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
its row decides whether it is special.  ``dpp_walk`` walks the rows one
group at a time, a group being one choice of first parts and row
lengths.  Within a group the rows that may follow a row depend only on
its parts at offsets 2..length of the next row, so a state, (row index,
those parts), has one tuple of rows that may fill it and one tuple of
completions, the forms of the arrays' rows from there down, each built
once as row + completion below it and reused on every later visit; the
memo is dropped when the group ends.  Order 7 has 14,393 states in its
211 groups of two or more rows, and at most 9,792 completions held in
one group.  ``enumerate_dpps`` has the walk build rows as tuples and
makes one ``Dpp`` object of each array; the command-line stream has it
build the text of a line from the cached text of each row, and builds
no ``Dpp``.  ``z_dpp_brute_wq`` sums over the same rows instead,
through the shared ``MultiPoly._step_sum``: the rows that may follow a
row depend only on that row less its first part, its tail, so the part
of the generating function below it is summed once per tail, and no
array is visited.

The walk fills each row from a cache keyed on the first part, the
length, the least part at offset 1 and the parts of the row above that
cap the new row: 2,091 keys at order 7 (10,094 at order 8), asked for
3,921 times by the walk, once per key it confirms (below).
Every cached row is one shared tuple object, 1,078 of them at order 7
(4,081 at order 8), so the arrays of the walk, and any cache keyed on
rows, hold those objects and no copies.

The rules of a DPP look at one row, or one row and the row above it, at
a time, so they are three functions: a row's head rules, the pair rules,
and a row's first part against its length.  ``_check_rows``, the full
loop, runs them in that order on each row.  The pair rules read only the
length of the row above and its parts at offsets 1..length of the row
below, so the walk confirms its rows per key of what the rules read:
``_confirmed_fillings`` runs the three rules on each row of a cached
fillings tuple, in the loop's order and with its first error, once per
key: (first part, length, least offset-1 part) on top, and under a row
above those with that row's length and its parts at offsets 1..length.
Every visit of a state, a remembered one too, asks for its key before
any array holding its rows is yielded, so once a key is confirmed the
walk pays one lookup for it per visit and nothing per array: 714 keys
after DPP(6), 3,921 after DPP(7) and 20,376 after DPP(8).  The ASM and
six-vertex walks confirm their step tables in the same way, one cached
table per key.

The keyed confirmations belong to the walk.  ``Dpp(rows)`` runs the full
loop on every array a caller passes in, and neither reads nor writes
them; only ``enumerate_dpps`` makes its objects without the loop, since
the walk confirmed every row of an array under the row above it before
yielding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import Callable, Iterator

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
        _check_rows(rows)

    @classmethod
    def _confirmed(cls, rows: tuple[tuple[int, ...], ...]) -> "Dpp":
        # internal constructor for the arrays of _walk: _confirmed_fillings
        # confirmed that the rules accept every row of rows under the row
        # above it before the walk yielded it, so the rule loop would only
        # repeat that
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        return self

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

# the fillings the rules have accepted, keyed on every field they read:
# (first, length, low) on top, and under a row above also its length and
# its parts at offsets 1..length (714 keys after DPP(6), 3,921 after
# DPP(7), 20,376 after DPP(8))
_CONFIRMED: dict[tuple, tuple[tuple[int, ...], ...]] = {}


def _check_row_head(row: tuple[int, ...]) -> None:
    """The rules of one row, but its first part against its length."""
    if not row:
        raise ValidationError("rows must be nonempty")
    if any(type(p) is not int or p < 1 for p in row):
        raise ValidationError("parts must be positive integers")
    if any(row[k] < row[k + 1] for k in range(len(row) - 1)):
        raise ValidationError("parts must decrease weakly along rows")


def _check_pair(prev: tuple[int, ...], row: tuple[int, ...]) -> None:
    """The rules of a row under the row above it, both passing
    ``_check_row_head``."""
    # chain: len(prev) >= row[0] and, below, prev row covers this one
    if len(prev) < row[0]:
        raise ValidationError("row length chain violated")
    if len(row) > len(prev) - 1:
        raise ValidationError("row extends past the row above")
    # strict decrease down columns; offset k here sits under offset k+1 of
    # the previous row
    for k, part in enumerate(row):
        if part >= prev[k + 1]:
            raise ValidationError("parts must decrease strictly down columns")


def _check_first_part(row: tuple[int, ...]) -> None:
    if row[0] <= len(row):
        raise ValidationError("first part must exceed the row length")


def _check_rows(rows: tuple[tuple[int, ...], ...]) -> None:
    """The rules of a DPP, row by row: each row passes its head rules, the
    pair rules with the row above it, then its first part against its
    length.  Raises ValidationError at the first rule broken."""
    prev = None
    for row in rows:
        _check_row_head(row)
        if prev is not None:
            _check_pair(prev, row)
        _check_first_part(row)
        prev = row


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


def _confirmed_fillings(first: int, length: int, low: int, above: tuple[int, ...] | None) -> tuple[tuple[int, ...], ...]:
    """The rows of ``_row_fillings`` with the given first part, length and
    least offset-1 part under the row above (None on top), each confirmed
    by the rules in the order of ``_check_rows``: its head rules, the pair
    rules with above, then its first part against its length.  The pair
    rules read only len(above) and above[1 : length + 1], so the rows are
    confirmed, and the rules run, once per key of those fields: 714 keys
    at n = 6, 3,921 at n = 7.  A broken rule raises its ValidationError,
    and the key is not kept."""
    key = (first, length, low) if above is None else (first, length, low, len(above), above[1 : length + 1])
    rows = _CONFIRMED.get(key)
    if rows is None:
        rows = _row_fillings(first, length, low, None if above is None else above[2 : length + 1])
        for row in rows:
            _check_row_head(row)
            if above is not None:
                _check_pair(above, row)
            _check_first_part(row)
        _CONFIRMED[key] = rows
    return rows


@cache
def _row_weight(row: tuple[int, ...], n: int) -> int:
    """The packed key of x^nu y^mu z^rho w q^(sum of parts) of one row of
    an element of DPP(n), its factor in ``z_dpp_brute_wq``.  Cached per
    distinct row; order 7 has 1,078."""
    mu = sum(part <= k for k, part in enumerate(row))
    return _pack((len(row) - mu, mu, row.count(n), 1, sum(row)))


def _completions(i: int, above: tuple[int, ...], group: tuple, memo: dict) -> tuple:
    """The completions of a walk of one group whose row i - 1 is above:
    one per array of the group with that row, each the form's text (or
    tuple) of rows i and below.  A state, (i, the parts of above at
    offsets 2..length of row i), has one tuple of completions, built on
    its first visit and held in memo; every visit first confirms, through
    ``_confirmed_fillings``, that the rules accept the state's rows under
    this row above."""
    firsts, lengths, lows, head, last = group
    fillings = _confirmed_fillings(firsts[i], lengths[i], lows[i], above)
    parts = above[2 : lengths[i] + 1]
    done = memo.get((i, parts))
    if done is not None:
        return done
    if i + 1 == len(firsts):
        done = tuple(map(last, fillings))
    else:
        out: list = []
        for row in fillings:
            out += map(head(row).__add__, _completions(i + 1, row, group, memo))
        done = tuple(out)
    memo[i, parts] = done
    return done


def dpp_walk(n: int, head: Callable, last: Callable, open_) -> Iterator[tuple]:
    """Every nonempty element of DPP(n), in the enumeration order, as one
    unit (prefix, completions) per top row, or per group of one row: the
    arrays are prefix + c for each c of the nonempty tuple completions.
    head(row) is the form of a row with rows below it and last(row) of a
    last row, so that open_ + head(row) + last(below) is an array's form
    (a tuple of rows, or the text of a line).

    A group is one choice of first parts and row lengths, and the rows it
    allows below a row depend only on the parts of that row at offsets
    2..length of the next row, so the walk builds each state's
    completions once per group (``_completions``) and drops them when the
    group ends.  Each row is confirmed under the row above it, or on top,
    by ``_confirmed_fillings`` before any array holding it is yielded."""
    for t in range(1, n):
        # combinations of a descending range come in descending order
        for firsts in reversed(list(combinations(range(n, 1, -1), t))):
            below = firsts[1:] + (1,)
            lows = tuple(f + 1 for f in firsts[1:]) + (1,)
            for lengths in product(*map(range, below, firsts)):
                top = _confirmed_fillings(firsts[0], lengths[0], lows[0], None)
                if t == 1:
                    if top:
                        yield open_, tuple(map(last, top))
                    continue
                group, memo = (firsts, lengths, lows, head, last), {}
                for row in top:
                    done = _completions(1, row, group, memo)
                    if done:
                        yield open_ + head(row), done


def _one(row: tuple[int, ...]) -> tuple[tuple[int, ...]]:
    return (row,)


def _walk(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The rows of every element of DPP(n), in the enumeration order: the
    empty array, then the arrays of ``dpp_walk``."""
    yield ()
    for prefix, done in dpp_walk(n, _one, _one, ()):
        yield from map(prefix.__add__, done)


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
    yield from map(Dpp._confirmed, _walk(n))


def _next_rows(tail: tuple[int, ...] | None, n: int) -> Iterator[tuple[int, ...]]:
    """The steps of ``z_dpp_brute_wq``: every row that may follow a row
    with parts past the first tail in an element of DPP(n), or start one
    when tail is None; the row's tail is the next state.  Its first part
    sits under tail[0], so it is below that part and at most the length
    of the row above, and the row is shorter than both its first part and
    the row above, whose first part decides none of this."""
    if tail is None:
        top, longest = n, n
    elif tail:
        top, longest = min(len(tail) + 1, tail[0] - 1), len(tail)
    else:
        return
    for first in range(2, top + 1):
        for length in range(1, min(first - 1, longest) + 1):
            yield from _row_fillings(first, length, 1, None if tail is None else tail[1:length])


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
        lambda tail: [row[1:] for row in _next_rows(tail, n)],
        lambda tail: [(_row_weight(row, n), row[1:]) for row in _next_rows(tail, n)],
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
