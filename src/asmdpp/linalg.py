"""Exact matrix algebra over the polynomial ring and over the rationals.

``PolyMatrix`` holds MultiPoly or OmegaPoly entries (homogeneous per
matrix).  The determinant is division-free expansion by minors, memoized
over column subsets (2^n subproblems), which is safe over any
commutative ring.  ``divide_exact`` is exact polynomial division that
raises unless the divisor divides.

Rational matrices are plain nested lists of ``Fraction``; ``det_rat``
uses exact Gaussian elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ResourceLimitError, ValidationError
from .limits import DET_POLY_MAX_N
from .polynomial import MultiPoly, OmegaPoly


def _zero_like(sample):
    if isinstance(sample, OmegaPoly):
        return OmegaPoly(())
    return MultiPoly.zero(sample.arity)


def _one_like(sample):
    if isinstance(sample, OmegaPoly):
        arity = sample.coeffs[0].arity if sample.coeffs else 5
        return OmegaPoly.from_poly(MultiPoly.const(1, arity))
    return MultiPoly.const(1, sample.arity)


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
        arities = set()
        for row in self.entries:
            for e in row:
                if isinstance(e, MultiPoly):
                    arities.add(e.arity)
                elif e.coeffs:
                    arities.add(e.coeffs[0].arity)
        if len(arities) > 1:
            raise ValidationError(f"entry arities differ: {sorted(arities)}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "PolyMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n: int, one=None) -> "PolyMatrix":
        if one is None:
            one = MultiPoly.const(1)
        zero = _zero_like(one)
        return cls(
            tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        )

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

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._shape_check(other)
        return PolyMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._shape_check(other)
        return PolyMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

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

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix(tuple(tuple(fn(e) for e in row) for row in self.entries))

    def _shape_check(self, other: "PolyMatrix") -> None:
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValidationError("matrix shapes differ")


def lift_to_omega(m: PolyMatrix) -> PolyMatrix:
    """View MultiPoly entries as degree-0 OmegaPoly entries."""
    if isinstance(m.entries[0][0], OmegaPoly):
        return m
    return m.map_entries(OmegaPoly.from_poly)


def _det_minors(entries) -> object:
    n = len(entries)
    one = _one_like(entries[0][0])
    memo = {0: one}
    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, 1 << n):
        masks_by_size[mask.bit_count()].append(mask)
    for size in range(1, n + 1):
        row = entries[size - 1]
        for mask in masks_by_size[size]:
            acc = None
            pos = 0
            for j in range(n):
                if not mask & (1 << j):
                    continue
                sub = memo[mask ^ (1 << j)]
                term = row[j] * sub
                if (size - 1 + pos) & 1:
                    term = -term
                acc = term if acc is None else acc + term
                pos += 1
            memo[mask] = acc
    return memo[(1 << n) - 1]


def divide_exact(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact division in Z[x...]; raises if q does not divide p."""
    if p.arity != q.arity:
        raise ValueError("arity mismatch in division")
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    remainder = dict(p.terms)
    q_terms = dict(q.terms)
    q_lead = max(q_terms)
    q_lead_coeff = q_terms[q_lead]
    quotient: dict[tuple, int] = {}
    while remainder:
        r_lead = max(remainder)
        r_coeff = remainder[r_lead]
        exp = tuple(a - b for a, b in zip(r_lead, q_lead))
        if any(e < 0 for e in exp) or r_coeff % q_lead_coeff:
            raise ValidationError("polynomial division is not exact")
        c = r_coeff // q_lead_coeff
        quotient[exp] = quotient.get(exp, 0) + c
        for qe, qc in q_terms.items():
            key = tuple(a + b for a, b in zip(exp, qe))
            new = remainder.get(key, 0) - c * qc
            if new:
                remainder[key] = new
            elif key in remainder:
                del remainder[key]
    return MultiPoly(p.arity, quotient)


def det_poly(m: PolyMatrix):
    """Exact determinant of a square polynomial matrix (MultiPoly or
    OmegaPoly entries), by division-free expansion by minors."""
    if not m.is_square():
        raise ValidationError("determinant of a non-square matrix")
    if m.n_rows > DET_POLY_MAX_N:
        raise ResourceLimitError(
            f"determinant order {m.n_rows} exceeds limit {DET_POLY_MAX_N}"
        )
    return _det_minors(m.entries)


def rat_matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]):
    if len(a[0]) != len(b):
        raise ValidationError("matrix dimensions do not match for product")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def det_rat(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square rational matrix by Gaussian elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValidationError("determinant of a non-square matrix")
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if a[r][k]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        pivot = a[k][k]
        det *= pivot
        for r in range(k + 1, n):
            if a[r][k]:
                factor = a[r][k] / pivot
                for c in range(k, n):
                    a[r][c] -= factor * a[k][c]
    return det
