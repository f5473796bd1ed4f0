"""Exact matrix algebra over the polynomial ring and over the rationals.

``PolyMatrix`` holds MultiPoly or OmegaPoly entries (homogeneous per
matrix); ``PolyMatrix.square(n, entry)`` builds every square matrix
from its entry rule.  The determinant is division-free expansion by
minors, memoized over column subsets (2^n subproblems), which is safe
over any commutative ring; each minor is one fused sum of products over
the entry type.  The expansion multiplies its last row into the top
layer only, so ``det_poly`` always expands the transpose: the last
column, which holds z in every refined matrix, then never enters a
smaller minor.  ``divide_exact`` is exact polynomial division that
raises unless the divisor divides.

Rational matrices are plain nested lists of ``Fraction``; ``det_rat``
scales each row to ints and runs fraction-free (Bareiss) elimination,
so its one ``Fraction`` reduction is the result's.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .errors import ValidationError
from .limits import DET_POLY_MAX_N, check_order
from .polynomial import _GUARD, ONE, ZERO, MultiPoly, OmegaPoly


@dataclass(frozen=True)
class PolyMatrix:
    """Rectangular matrix with ring entries (MultiPoly or OmegaPoly)."""

    entries: tuple[tuple, ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValidationError("matrix must be nonempty")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise ValidationError("matrix rows must have equal length")
        kinds = {type(e) for row in self.entries for e in row}
        if not kinds <= {MultiPoly, OmegaPoly}:
            raise ValidationError(f"unsupported entry types: {kinds}")
        if len(kinds) != 1:
            raise ValidationError("matrix entries must be homogeneous in type")

    @classmethod
    def square(cls, n: int, entry: Callable[[int, int], object]) -> "PolyMatrix":
        """The n x n matrix whose (i, j) entry is entry(i, j)."""
        return cls(tuple(tuple(entry(i, j) for j in range(n)) for i in range(n)))

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls.square(n, lambda i, j: ONE if i == j else ZERO)

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0])

    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __getitem__(self, pos):
        i, j = pos
        return self.entries[i][j]

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(tuple(zip(*self.entries)))

    def _entrywise(self, other: "PolyMatrix", op) -> "PolyMatrix":
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValidationError("matrix shapes differ")
        return PolyMatrix(
            tuple(tuple(map(op, ra, rb)) for ra, rb in zip(self.entries, other.entries))
        )

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._entrywise(other, operator.sub)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.n_cols != other.n_rows:
            raise ValidationError("matrix dimensions do not match for product")
        cols = other.transpose().entries
        rows = []
        for ra in self.entries:
            row = []
            for cb in cols:
                acc = ra[0] * cb[0]
                for a, b in zip(ra[1:], cb[1:]):
                    acc = acc + a * b
                row.append(acc)
            rows.append(tuple(row))
        return PolyMatrix(tuple(rows))

    def substitute(self, index: int, value: int) -> "PolyMatrix":
        """Set one variable to an integer constant in every entry."""
        return PolyMatrix(
            tuple(tuple(e.substitute(index, value) for e in row) for row in self.entries)
        )


def _det_minors(entries) -> object:
    # Layer `size` holds the minors on the first `size` rows, keyed by
    # column mask; each is one sum of products over the entry type, and
    # layer `size - 1` is dropped once layer `size` is built.
    n = len(entries)
    ring = type(entries[0][0])
    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, 1 << n):
        masks_by_size[mask.bit_count()].append(mask)
    prev = {0: ONE if ring is MultiPoly else OmegaPoly.from_poly(ONE)}
    for size in range(1, n + 1):
        row = entries[size - 1]
        layer = {}
        for mask in masks_by_size[size]:
            products = []
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    sign = -1 if (size - 1 + len(products)) & 1 else 1
                    products.append((sign, row[j], prev[mask ^ bit]))
            layer[mask] = ring._sum_of_products(products)
        prev = layer
    return prev[(1 << n) - 1]


def divide_exact(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact division in Z[x, y, z, w, q]; raises if q does not divide p."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    # Leading terms are the largest packed keys (lexicographic order).  A
    # remainder key with a guard bit set has an exponent no term of p has,
    # so the division cannot be exact.  Subtracting q_lead from r_lead with
    # every guard bit set leaves a guard bit clear exactly where a field
    # would go negative.
    remainder = dict(p._terms)
    q_terms = q._terms
    q_lead = max(q_terms)
    q_lead_coeff = q_terms[q_lead]
    quotient: dict[int, int] = {}
    while remainder:
        r_lead = max(remainder)
        r_coeff = remainder[r_lead]
        diff = (r_lead | _GUARD) - q_lead
        if r_lead & _GUARD or diff & _GUARD != _GUARD or r_coeff % q_lead_coeff:
            raise ValidationError("polynomial division is not exact")
        exp = diff ^ _GUARD
        c = r_coeff // q_lead_coeff
        quotient[exp] = c
        for qe, qc in q_terms.items():
            key = exp + qe
            new = remainder.get(key, 0) - c * qc
            if new:
                remainder[key] = new
            elif key in remainder:
                del remainder[key]
    return MultiPoly._raw(quotient)


def det_poly(m: PolyMatrix):
    """Exact determinant of a square polynomial matrix (MultiPoly or
    OmegaPoly entries), by division-free expansion by minors.

    The expansion multiplies its last row into the top layer only, so it
    expands the transpose (det M = det M^t): the last column, which holds
    z in every refined matrix, is multiplied in last."""
    if not m.is_square():
        raise ValidationError("determinant of a non-square matrix")
    check_order(m.n_rows, DET_POLY_MAX_N, "determinant")
    return _det_minors(m.transpose().entries)


def det_rat(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square rational matrix.

    Each row is scaled to ints by the lcm of its denominators, then
    fraction-free (Bareiss) elimination divides every update exactly by
    the previous pivot, so the last pivot is the determinant of the
    scaled matrix.  A zero pivot swaps in the first row below with a
    nonzero entry in its column."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValidationError("determinant of a non-square matrix")
    rows = []
    scale = 1
    for row in m:
        row = [Fraction(x) for x in row]
        d = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    # each pass drops the pivot row and the pivot column, so the next
    # pivot column is always column 0 of the rows left
    sign, prev = 1, 1
    while rows:
        first = next((r for r, row in enumerate(rows) if row[0]), None)
        if first is None:
            return Fraction(0)
        if first:
            rows[0], rows[first] = rows[first], rows[0]
            sign = -sign
        pivot, *top = rows[0]
        rows = [
            [(pivot * x - f * y) // prev for x, y in zip(row, top)] for f, *row in rows[1:]
        ]
        prev = pivot
    return Fraction(sign * prev, scale)
