"""Shared cached enumerations so the suite never rebuilds a family twice,
the reference polynomial kernel, brute-force counters, ASM and DPP
enumerators (the DPP block walk and its stream lines among them) and
matrix builders of the differential tests, the reference rational
determinant and partition function, and a rational matrix product."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, Sequence

from asmdpp import dpp
from asmdpp.asm import Asm, asm_stats, enumerate_asms
from asmdpp.cli import _row_json, _row_text
from asmdpp.dpp import Dpp, dpp_stats, enumerate_dpps
from asmdpp.errors import DegenerateParameterError, ValidationError
from asmdpp.linalg import PolyMatrix, det_rat
from asmdpp.polynomial import NVARS, ONE, ZERO, MultiPoly, OmegaPoly, binom, monomial
from asmdpp.sixvertex import IkPoint, enumerate_configs, weight_a, weight_b, weight_c


@lru_cache(maxsize=None)
def asm_list(n: int) -> tuple:
    return tuple(enumerate_asms(n))


@lru_cache(maxsize=None)
def dpp_list(n: int) -> tuple:
    return tuple(enumerate_dpps(n))


@lru_cache(maxsize=None)
def asm_triples(n: int) -> tuple:
    return tuple((s.nu, s.mu, s.rho) for s in map(asm_stats, asm_list(n)))


@lru_cache(maxsize=None)
def dpp_triples(n: int) -> tuple:
    return tuple(
        (s.nu, s.mu, s.rho) for s in (dpp_stats(d, n) for d in dpp_list(n))
    )


def cells(triples) -> dict:
    out: dict = {}
    for t in triples:
        out[t] = out.get(t, 0) + 1
    return out


ASMEX = Asm(
    (
        (0, 0, 0, 1, 0, 0),
        (0, 1, 0, -1, 1, 0),
        (1, -1, 1, 0, 0, 0),
        (0, 0, 0, 1, 0, 0),
        (0, 1, 0, -1, 0, 1),
        (0, 0, 0, 1, 0, 0),
    )
)


# --- Reference polynomial kernel -------------------------------------------
# The tuple-keyed MultiPoly arithmetic, OmegaPoly product and minors
# determinant that the packed-exponent kernel replaced, kept verbatim as the
# oracle of the differential tests, and the term-by-term Fraction evaluation
# that the one-denominator evaluation replaced.  Nothing under src/ uses them.


class TuplePoly:
    """Sparse polynomial keyed by exponent tuples."""

    __slots__ = ("arity", "_terms")

    def __init__(self, arity, terms):
        self.arity = arity
        self._terms = {tuple(e): c for e, c in terms.items() if c}

    @classmethod
    def _raw(cls, arity, terms):
        self = object.__new__(cls)
        self.arity = arity
        self._terms = terms
        return self

    @classmethod
    def of(cls, p):
        """The reference copy of a MultiPoly."""
        return cls(NVARS, dict(p.terms))

    @classmethod
    def zero(cls, arity):
        return cls._raw(arity, {})

    @classmethod
    def const(cls, value, arity):
        if value == 0:
            return cls._raw(arity, {})
        return cls._raw(arity, {(0,) * arity: value})

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return self.arity == other.arity and self._terms == other._terms

    def __add__(self, other):
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            new = out.get(exp, 0) + coeff
            if new:
                out[exp] = new
            elif exp in out:
                del out[exp]
        return TuplePoly._raw(self.arity, out)

    def __neg__(self):
        return TuplePoly._raw(self.arity, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exp = tuple(map(sum, zip(ea, eb)))
                new = out.get(exp, 0) + ca * cb
                if new:
                    out[exp] = new
                elif exp in out:
                    del out[exp]
        return TuplePoly._raw(self.arity, out)

    def evaluate(self, point):
        """The term-by-term Fraction evaluation that MultiPoly.evaluate
        replaced: one reduction per term."""
        vals = [Fraction(p) for p in point]
        total = Fraction(0)
        for exp, coeff in self._terms.items():
            term = Fraction(coeff)
            for v, e in zip(vals, exp):
                if e:
                    term *= v**e
            total += term
        return total

    def substitute(self, index, value):
        out = {}
        for exp, coeff in self._terms.items():
            c = coeff * value ** exp[index]
            if not c:
                continue
            new_exp = exp[:index] + (0,) + exp[index + 1 :]
            tot = out.get(new_exp, 0) + c
            if tot:
                out[new_exp] = tot
            elif new_exp in out:
                del out[new_exp]
        return TuplePoly._raw(self.arity, out)

    def sorted_terms(self):
        return sorted(
            self._terms.items(),
            key=lambda item: (sum(item[0]), tuple(-e for e in item[0])),
        )


def tuple_divide_exact(p, q):
    """Exact division of TuplePolys; raises ValidationError unless q divides p."""
    remainder = dict(p._terms)
    q_terms = dict(q._terms)
    q_lead = max(q_terms)
    q_lead_coeff = q_terms[q_lead]
    quotient = {}
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
    return TuplePoly(p.arity, quotient)


class TupleOmega:
    """OmegaPoly over TuplePoly coefficients (sum, negation, product and
    evaluation)."""

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def of(cls, e):
        """The reference copy of an OmegaPoly."""
        return cls([TuplePoly.of(c) for c in e.coeffs])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, d, arity):
        if d < len(self.coeffs):
            return self.coeffs[d]
        return TuplePoly.zero(arity)

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        if n == 0:
            return self
        arity = (self.coeffs or other.coeffs)[0].arity
        return TupleOmega([self.coeff(d, arity) + other.coeff(d, arity) for d in range(n)])

    def __neg__(self):
        return TupleOmega([-c for c in self.coeffs])

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return TupleOmega(())
        deg = self.degree + other.degree
        if deg > 2:
            # only raise if the product is genuinely of that degree
            top = self.coeffs[-1] * other.coeffs[-1]
            if top:
                raise ValueError(f"omega degree {deg} exceeds cap 2")
        arity = self.coeffs[0].arity
        out = [TuplePoly.zero(arity) for _ in range(deg + 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return TupleOmega(out)


    def evaluate(self, point, omega):
        """The term-by-term Fraction evaluation that OmegaPoly.evaluate
        replaced."""
        omega = Fraction(omega)
        total = Fraction(0)
        for d, c in enumerate(self.coeffs):
            total += c.evaluate(point) * omega**d
        return total


def _tuple_one_like(sample):
    if isinstance(sample, TupleOmega):
        arity = sample.coeffs[0].arity if sample.coeffs else 5
        return TupleOmega([TuplePoly.const(1, arity)])
    return TuplePoly.const(1, sample.arity)


def tuple_det_minors(entries):
    """Determinant by memoized expansion by minors over reference entries."""
    n = len(entries)
    one = _tuple_one_like(entries[0][0])
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


# --- Reference DPP enumerator ----------------------------------------------
# The walk-and-sort enumerator that the streaming one replaced, kept verbatim
# (renamed to walk_and_sort_dpps) as the oracle of its differential test.
# It holds all of DPP(n) before the first yield, so keep n small.


def _row_fillings(first: int, length: int, prev: tuple[int, ...] | None) -> Iterator[tuple[int, ...]]:
    # all weakly decreasing positive rows with the given first part and
    # length, strictly below the previous row where columns overlap
    parts = [first]

    def rec(k: int) -> Iterator[tuple[int, ...]]:
        if k == length:
            yield tuple(parts)
            return
        hi = parts[-1]
        if prev is not None:
            hi = min(hi, prev[k + 1] - 1)
        for v in range(hi, 0, -1):
            parts.append(v)
            yield from rec(k + 1)
            parts.pop()

    yield from rec(1)


def _next_rows(n: int, prev: tuple[int, ...] | None) -> Iterator[tuple[int, ...]]:
    if prev is None:
        first_hi = n
    else:
        if len(prev) < 2:
            return
        first_hi = min(n, len(prev), prev[1] - 1)
    for first in range(2, first_hi + 1):
        for length in range(1, first):
            yield from _row_fillings(first, length, prev)


def walk_and_sort_dpps(n: int) -> Iterator[Dpp]:
    if n < 1:
        raise ValidationError("order must be at least 1")
    found: list[Dpp] = []

    def walk(rows: list[tuple[int, ...]]) -> None:
        found.append(Dpp(tuple(rows)))
        prev = rows[-1] if rows else None
        for row in _next_rows(n, prev):
            rows.append(row)
            walk(rows)
            rows.pop()

    walk([])
    found.sort(
        key=lambda d: (
            d.row_count,
            tuple(r[0] for r in d.rows),
            tuple(len(r) for r in d.rows),
            d.rows,
        )
    )
    yield from found


# --- Reference DPP block walk -----------------------------------------------
# The block walk that the state walk of dpp.dpp_walk replaced, kept
# (renamed to block_walk_dpps) with the line join of the command-line
# stream it fed, as the oracle of their differential test.  It fills and
# confirms rows through the module's own cache and keyed confirmations.


def block_walk_dpps(n: int) -> Iterator[tuple[tuple, tuple]]:
    rows: list[tuple[int, ...]] = []

    def fill(firsts: tuple[int, ...], lengths: tuple[int, ...]):
        i = len(rows)
        low = firsts[i + 1] + 1 if i + 1 < len(firsts) else 1
        fillings = dpp._confirmed_fillings(firsts[i], lengths[i], low, rows[-1] if rows else None)
        if i + 1 == len(firsts):
            if fillings:
                yield tuple(rows), fillings
            return
        for row in fillings:
            rows.append(row)
            yield from fill(firsts, lengths)
            rows.pop()

    for t in range(1, n):
        for firsts in reversed(list(combinations(range(n, 1, -1), t))):
            below = firsts[1:] + (1,)
            for lengths in product(*map(range, below, firsts)):
                yield from fill(firsts, lengths)


def block_walk_rows(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    yield ()
    for prefix, fillings in block_walk_dpps(n):
        for row in fillings:
            yield prefix + (row,)


_BLOCK_FORMS = {
    "json": ("[]", _row_json, ",", "[", "]"),
    "text": ("empty", _row_text, " / ", "", ""),
}


def block_walk_lines(n: int, fmt: str) -> Iterator[str]:
    empty, row_text, sep, open_, close = _BLOCK_FORMS[fmt]
    yield empty
    for prefix, fillings in block_walk_dpps(n):
        head = (open_ + sep.join(map(row_text, prefix)) + sep) if prefix else open_
        for row in fillings:
            yield head + row_text(row) + close


# --- Reference brute-force counters -----------------------------------------
# The per-object counters that the walk tallies replaced: one validated
# object per element of the family and one call of its statistic, kept
# verbatim (renamed to per_object_z_asm and per_object_z_dpp_wq) as the
# oracle of z_asm_brute and z_dpp_brute_wq.


# sha256 of poly_str(Z) + "\n" at n = 7, as printed by every genfunc
# method; recorded from the per-object counters, which would add about
# 10 s to the suite at that order
Z7_SHA256 = "dea14c1a3a3bb06e255d157746c7cba1f81b73ab7c5f27bf3c05a82b676538f5"


def per_object_z_asm(n: int) -> MultiPoly:
    return MultiPoly(Counter((s.nu, s.mu, s.rho, 0, 0) for s in map(asm_stats, enumerate_asms(n))))


def per_object_z_dpp_wq(n: int) -> MultiPoly:
    return MultiPoly(
        Counter(
            (s.nu, s.mu, s.rho, s.row_count + 1, s.parts_sum)
            for s in (dpp_stats(d, n) for d in enumerate_dpps(n))
        )
    )


# --- Reference ASM enumerator -----------------------------------------------
# The enumerator that recomputed the admissible rows at every search node and
# added and undid the column sums around each recursive call, kept verbatim
# (renamed to per_node_asms) as the oracle of the row-table enumerator.


def per_node_asms(n: int) -> Iterator[Asm]:
    """Yield every order-n alternating sign matrix exactly once.

    Deterministic order: ascending lexicographic in the concatenated rows
    with entries compared as integers (-1 < 0 < 1).  The search runs
    row by row over the vector of column partial sums, which stays in
    {0,1}^n; that vector also encodes the last nonzero sign seen in each
    column, so sign alternation needs no extra state.
    """
    if n < 1:
        raise ValidationError("order must be at least 1")

    col = [0] * n
    rows: list[tuple[int, ...]] = []

    def row_candidates() -> list[tuple[int, ...]]:
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
        return out

    def build(i: int) -> Iterator[Asm]:
        if i == n:
            yield Asm(tuple(rows))
            return
        for cand in row_candidates():
            rows.append(cand)
            for j, v in enumerate(cand):
                col[j] += v
            yield from build(i + 1)
            for j, v in enumerate(cand):
                col[j] -= v
            rows.pop()

    yield from build(0)


# --- Reference matrix builders -----------------------------------------------
# The per-family builders that wrote the last-column z-refinement once per
# family and assembled their rows by hand, kept verbatim as the oracle of
# the one-assembler builders.  reference_build dispatches like
# matrices.build, without its order checks.


def path_weight_sum(i: int, j: int, n: int, refined: bool = False) -> MultiPoly:
    """Closed-form weight sum over all paths from (0, j) to (i, 0).

    Plain columns:   sum_k C(i-1, i-k) C(j+1, k) x^k y^(i-k)
    Refined top row: sum_k sum_l C(i-1, i-k) C(n-l-1, k-l) x^k y^(i-k) z^l
    """
    if not (0 <= i < n and 0 <= j < n):
        raise ValidationError("grid indices out of range")
    terms: dict[tuple, int] = {}
    if refined and j == n - 1:
        for k in range(i + 1):
            for l in range(k + 1):
                c = binom(i - 1, i - k) * binom(n - l - 1, k - l)
                if c:
                    exp = (k, i - k, l, 0, 0)
                    terms[exp] = terms.get(exp, 0) + c
    else:
        for k in range(min(i, j + 1) + 1):
            c = binom(i - 1, i - k) * binom(j + 1, k)
            if c:
                exp = (k, i - k, 0, 0, 0)
                terms[exp] = terms.get(exp, 0) + c
    return MultiPoly(terms)


def lgv_matrix(n: int, refined: bool = False, w_weight: bool = False) -> PolyMatrix:
    """-delta(i, j+1) + path weight sum, the matrix whose determinant
    carries the full family sum (M_BAR).  With w_weight the path weight
    sum, not the -delta term, is multiplied by w (M_BAR_W)."""
    neg_one = monomial(-1)
    w = monomial(1, w=1)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = path_weight_sum(i, j, n, refined)
            if w_weight:
                e = e * w
            if i == j + 1:
                e = e + neg_one
            row.append(e)
        rows.append(tuple(row))
    return PolyMatrix(tuple(rows))


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


def reference_build(name: str, n: int, refined: bool = True) -> PolyMatrix:
    return {
        "M_BAR": lambda: lgv_matrix(n, refined),
        "M_BAR_W": lambda: lgv_matrix(n, refined, w_weight=True),
        "M_ASM": lambda: _masm(n, refined),
        "M_DPP": lambda: _mdpp(n, refined),
        "M_PRIME": lambda: _mprime(n, refined),
        "M_DPRIME": lambda: _mdprime(n, refined),
        "S": lambda: shift_matrix(n),
        "B": lambda: _bmat(n),
        "L": lambda: _lmat(n),
    }[name]()


# --- Rational matrix product -----------------------------------------------


def rat_matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]):
    if len(a[0]) != len(b):
        raise ValidationError("matrix dimensions do not match for product")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


# --- Reference rational kernels --------------------------------------------
# The Fraction Gaussian elimination that the fraction-free det_rat replaced,
# the per-configuration Fraction sum that the int partition function
# replaced, and the Izergin-Korepin determinant with one Fraction reduction
# per operation that the int one replaced, with its Fraction test for
# degenerate points, kept verbatim (config_weight inlined, the last two
# renamed to fraction_ik_determinant_rat and fraction_degeneracy) as the
# oracles of their differential tests.  Nothing under src/ uses them.


def gauss_det_rat(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination over Q."""
    n = len(m)
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


def per_config_partition_function(n: int, pt: IkPoint) -> Fraction:
    """The explicit six-vertex sum, each configuration's weight a product
    of Fraction cell weights."""
    u, v = pt.u, pt.v
    total = Fraction(0)
    for c in enumerate_configs(n):
        weight = Fraction(1)
        for i, row in enumerate(c.types):
            for j, t in enumerate(row):
                kind = t[0]
                if kind == "a":
                    weight *= weight_a(u[i], v[j], pt.q)
                elif kind == "b":
                    weight *= weight_b(u[i], v[j], pt.q)
                else:
                    weight *= weight_c(pt.s[i], pt.t[j], pt.q)
        total += weight
    return total


def fraction_ik_determinant_rat(pt: IkPoint) -> Fraction:
    """Determinant form of the partition function, exactly, at a rational
    point.  Requires the u_i (and the v_j) pairwise distinct and no pole
    u_i*v_j in {q^2, q^-2}."""
    n = pt.n
    q2 = pt.q * pt.q
    q2inv = 1 / q2
    u, v = pt.u, pt.v
    reason = fraction_degeneracy(pt.q, u, v)
    if reason is not None:
        raise DegenerateParameterError(reason)
    prefactor = Fraction(1)
    for i in range(n):
        prefactor *= pt.s[i] * pt.t[i] ** (2 * n + 1)
    for i in range(n):
        for j in range(n):
            prefactor *= weight_a(u[i], v[j], pt.q) * weight_b(u[i], v[j], pt.q)
    for i in range(n):
        for j in range(i + 1, n):
            prefactor /= (u[i] - u[j]) * (v[i] - v[j])
    matrix = [
        [1 / (u[i] * v[j] - q2) - 1 / (u[i] * v[j] - q2inv) for j in range(n)]
        for i in range(n)
    ]
    return prefactor * det_rat(matrix)


def fraction_degeneracy(q: Fraction, u: tuple[Fraction, ...], v: tuple[Fraction, ...]) -> str | None:
    """Why the determinant route rejects the point, or None: two equal u_i
    (or v_j), or a pole u_i*v_j in {q^2, q^-2}."""
    for name, seq in (("s", u), ("t", v)):
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                if seq[i] == seq[j]:
                    return f"{name}[{i + 1}] and {name}[{j + 1}] have equal squares"
    q2 = q * q
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            if ui * vj in (q2, 1 / q2):
                return f"pole at u[{i + 1}]*v[{j + 1}] = q^(+/-2)"
    return None
