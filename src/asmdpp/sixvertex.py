"""Six-vertex model with domain-wall boundary conditions.

Configurations are stored as an n x n grid of vertex types.  Around each
vertex the four incident edges carry partial sums of the matching
alternating sign matrix: the edge left of (i, j) carries the row sum
through column j-1, the edge above carries the column sum through row
i-1, and so on.  A label 0 means the arrow points right or up, a label 1
left or down.  The six admissible types, as (left, right, top, bottom)
labels, are

    a1 = (0,0,0,0)   a2 = (1,1,1,1)
    b1 = (1,1,0,0)   b2 = (0,0,1,1)
    c1 = (0,1,0,1)   c2 = (1,0,1,0)

Domain-wall boundaries fix the outer labels: 0 on the left and top, 1 on
the right and bottom (horizontal boundary arrows incoming, vertical
outgoing).  c1 corresponds to entry 1, c2 to entry -1 and the rest to 0.

A row of types follows from one step of the matrix walk: the vector of
column partial sums above the row gives its top labels, the row's
partial sums its left labels, and the next vector its bottom labels.
``enumerate_configs`` runs the matrix walk over type rows made and
edge-checked once per distinct step (``_type_steps``), and hands out the
grids without ``SixVertexConfig``'s edge loop, which every grid a
caller builds still runs.

Spectral weights at a point (q; s_1..s_n; t_1..t_n) use u_i = s_i^2 and
v_j = t_j^2, which removes the square root from the c-weight:

    a(u, v) = u*q - 1/(v*q)
    b(u, v) = u/q - q/v
    c at (i, j) = (q^2 - q^-2) * s_i / t_j

so every computation stays in exact rational arithmetic.  The explicit
partition function writes each cell's three weights as int numerators
over one denominator, once per point, and sums int products over the
configurations: one ``Fraction`` reduction per point.  The determinant
form builds its prefactor and its matrix as ints the same way, and is
reduced once per point too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain
from math import lcm, prod
from random import Random
from typing import Iterator

from .asm import Asm, _confirmed_steps, _walk, z_asm_brute
from .errors import DegenerateParameterError, ValidationError
from .limits import BRUTE_FORCE_LIMIT, IK_SAMPLE_MAX_N, check_order
from .linalg import det_rat

# (left, right, top, bottom) edge labels per type; the tables below are
# derived from this one
EDGE_LABELS = {
    "a1": (0, 0, 0, 0),
    "a2": (1, 1, 1, 1),
    "b1": (1, 1, 0, 0),
    "b2": (0, 0, 1, 1),
    "c1": (0, 1, 0, 1),
    "c2": (1, 0, 1, 0),
}

# the matrix entry is the step of the row partial sum across the vertex
ENTRY_OF_TYPE = {t: right - left for t, (left, right, _, _) in EDGE_LABELS.items()}

# (left label, top label, matrix entry) -> type
_TYPE_FROM_STATE = {
    (left, top, right - left): t for t, (left, right, top, _) in EDGE_LABELS.items()
}


@dataclass(frozen=True)
class SixVertexConfig:
    types: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        n = len(self.types)
        if n == 0 or any(len(row) != n for row in self.types):
            raise ValidationError("type grid must be square and nonempty")
        for row in self.types:
            for t in row:
                if t not in EDGE_LABELS:
                    raise ValidationError(f"unknown vertex type {t!r}")
        # recompute both labels of every internal edge and the boundary
        for i in range(n):
            for j in range(n):
                left, right, top, bottom = EDGE_LABELS[self.types[i][j]]
                if j == 0 and left != 0:
                    raise ValidationError(f"left boundary arrow wrong at row {i + 1}")
                if j == n - 1 and right != 1:
                    raise ValidationError(f"right boundary arrow wrong at row {i + 1}")
                if i == 0 and top != 0:
                    raise ValidationError(f"top boundary arrow wrong at column {j + 1}")
                if i == n - 1 and bottom != 1:
                    raise ValidationError(f"bottom boundary arrow wrong at column {j + 1}")
                if j + 1 < n and right != EDGE_LABELS[self.types[i][j + 1]][0]:
                    raise ValidationError(f"horizontal edge conflict at ({i + 1},{j + 1})")
                if i + 1 < n and bottom != EDGE_LABELS[self.types[i + 1][j]][2]:
                    raise ValidationError(f"vertical edge conflict at ({i + 1},{j + 1})")

    @classmethod
    def _confirmed(cls, types: tuple[tuple[str, ...], ...]) -> "SixVertexConfig":
        # internal constructor for the grids of enumerate_configs: every
        # type row was made from a confirmed step of the matrix walk and
        # edge-checked by _check_type_row against the vectors above and
        # below it, which covers every edge the loop compares, so the loop
        # would only repeat that
        self = object.__new__(cls)
        object.__setattr__(self, "types", types)
        return self

    @property
    def n(self) -> int:
        return len(self.types)


def asm_to_sixvertex(a: Asm) -> SixVertexConfig:
    """Bijection from matrices to configurations via partial sums."""
    n = a.n
    grid = []
    col = [0] * n
    for i in range(n):
        row_types = []
        rowsum = 0
        for j in range(n):
            v = a.rows[i][j]
            row_types.append(_TYPE_FROM_STATE[(rowsum, col[j], v)])
            rowsum += v
            col[j] += v
        grid.append(tuple(row_types))
    return SixVertexConfig(tuple(grid))


def sixvertex_to_asm(c: SixVertexConfig) -> Asm:
    """Inverse bijection: c1 -> 1, c2 -> -1, all other types -> 0."""
    return Asm(
        tuple(tuple(ENTRY_OF_TYPE[t] for t in row) for row in c.types)
    )


def _check_type_row(types: tuple[str, ...], above: tuple[int, ...], below: tuple[int, ...], i: int) -> None:
    """The edge rules of row i of a grid whose vertical edges above and
    below the row carry the labels above and below: the boundary arrows,
    each horizontal edge, and the top and bottom labels of every vertex
    against the vectors.  The messages are those of ``SixVertexConfig``,
    which names a vertical edge at the vertex above it."""
    n = len(types)
    for j, t in enumerate(types):
        left, right, top, bottom = EDGE_LABELS[t]
        if j == 0 and left != 0:
            raise ValidationError(f"left boundary arrow wrong at row {i + 1}")
        if j == n - 1 and right != 1:
            raise ValidationError(f"right boundary arrow wrong at row {i + 1}")
        if i == 0 and top != 0:
            raise ValidationError(f"top boundary arrow wrong at column {j + 1}")
        if i == n - 1 and bottom != 1:
            raise ValidationError(f"bottom boundary arrow wrong at column {j + 1}")
        if j + 1 < n and right != EDGE_LABELS[types[j + 1]][0]:
            raise ValidationError(f"horizontal edge conflict at ({i + 1},{j + 1})")
        if top != above[j]:
            raise ValidationError(f"vertical edge conflict at ({i},{j + 1})")
        if bottom != below[j]:
            raise ValidationError(f"vertical edge conflict at ({i + 1},{j + 1})")


@cache
def _type_steps(col: tuple[int, ...], i: int) -> tuple[tuple[tuple[str, ...], tuple[int, ...]], ...]:
    """The steps of ``asm._confirmed_steps(col, i)`` as (type row, next
    vector) pairs: each vertex's type follows from the label left of it,
    the label above it, col[j], and its matrix entry, and the type row is
    edge-checked by ``_check_type_row`` between col and the next vector.
    Built, and checked, once per distinct step: 1,093 at n = 7."""
    out = []
    for row, nxt in _confirmed_steps(col, i):
        types = []
        left = 0
        for top, v in zip(col, row):
            types.append(_TYPE_FROM_STATE[left, top, v])
            left += v
        types = tuple(types)
        _check_type_row(types, col, nxt, i)
        out.append((types, nxt))
    return tuple(out)


def enumerate_configs(n: int) -> Iterator[SixVertexConfig]:
    """All domain-wall configurations, in the matrix enumeration order.

    The matrix walk runs over the type rows of ``_type_steps`` in place of
    the matrix rows, so each step is converted and edge-checked once, not
    once per grid, and the grids are made by ``SixVertexConfig._confirmed``
    without the edge loop.  ``asm_to_sixvertex`` is the same bijection one
    matrix at a time."""
    check_order(n)
    yield from map(SixVertexConfig._confirmed, _walk(n, _type_steps))


def vertex_counts(c: SixVertexConfig) -> tuple[Counter[str], Counter[str]]:
    """Tallies of the vertex types over the whole grid and over its first row."""
    return Counter(t for row in c.types for t in row), Counter(c.types[0])


@dataclass(frozen=True)
class IkPoint:
    """Spectral parameters (q; s; t) with u_i = s_i^2, v_j = t_j^2."""

    q: Fraction
    s: tuple[Fraction, ...]
    t: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        object.__setattr__(self, "s", tuple(Fraction(v) for v in self.s))
        object.__setattr__(self, "t", tuple(Fraction(v) for v in self.t))
        if len(self.s) != len(self.t):
            raise ValidationError("s and t must have the same length")
        if self.q == 0:
            raise DegenerateParameterError("q must be nonzero")
        for name, seq in (("s", self.s), ("t", self.t)):
            for idx, val in enumerate(seq):
                if val == 0:
                    raise DegenerateParameterError(f"{name}[{idx + 1}] must be nonzero")

    @property
    def n(self) -> int:
        return len(self.s)

    @property
    def u(self) -> tuple[Fraction, ...]:
        return tuple(v * v for v in self.s)

    @property
    def v(self) -> tuple[Fraction, ...]:
        return tuple(v * v for v in self.t)


def weight_a(u: Fraction, v: Fraction, q: Fraction) -> Fraction:
    return u * q - 1 / (v * q)


def weight_b(u: Fraction, v: Fraction, q: Fraction) -> Fraction:
    return u / q - q / v


def weight_c(s_i: Fraction, t_j: Fraction, q: Fraction) -> Fraction:
    return (q * q - 1 / (q * q)) * s_i / t_j


@lru_cache(maxsize=8)
def _config_cells(n: int) -> tuple[tuple[int, ...], ...]:
    # the explicit sum is taken at many points per order: each configuration
    # as the index of its weight in a point's flat table, 3 per cell
    # (a, b, c) in row-major order
    check_order(n, BRUTE_FORCE_LIMIT, "family enumeration")
    kind = {"a": 0, "b": 1, "c": 2}
    return tuple(
        tuple(3 * cell + kind[t[0]] for cell, t in enumerate(chain.from_iterable(c.types)))
        for c in enumerate_configs(n)
    )


def partition_function_explicit(n: int, pt: IkPoint) -> Fraction:
    """Partition function as the explicit sum over all configurations.

    Each cell's a, b and c weights are written as int numerators over
    their lcm D_ij, once per point; the sum of the int products over the
    configurations is divided once by prod D_ij."""
    if pt.n != n:
        raise ValidationError("point dimension does not match order")
    q, u, v = pt.q, pt.u, pt.v
    table: list[int] = []
    den = 1
    for i in range(n):
        for j in range(n):
            weights = (
                weight_a(u[i], v[j], q),
                weight_b(u[i], v[j], q),
                weight_c(pt.s[i], pt.t[j], q),
            )
            d = lcm(*(w.denominator for w in weights))
            table.extend(w.numerator * (d // w.denominator) for w in weights)
            den *= d
    weight = table.__getitem__
    return Fraction(sum(prod(map(weight, cells)) for cells in _config_cells(n)), den)


def _degeneracy(q: Fraction, u: tuple[Fraction, ...], v: tuple[Fraction, ...]) -> str | None:
    """Why the determinant route rejects the point, or None: two equal u_i
    (or v_j), or a pole u_i*v_j in {q^2, q^-2}."""
    for name, seq in (("s", u), ("t", v)):
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                if seq[i] == seq[j]:
                    return f"{name}[{i + 1}] and {name}[{j + 1}] have equal squares"
    # u_i * v_j against q^2 = qn/qd and q^-2 = qd/qn, crosswise in ints
    qn, qd = q.numerator**2, q.denominator**2
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            num, den = ui.numerator * vj.numerator, ui.denominator * vj.denominator
            if num * qd == qn * den or num * qn == qd * den:
                return f"pole at u[{i + 1}]*v[{j + 1}] = q^(+/-2)"
    return None


def ik_determinant_rat(pt: IkPoint) -> Fraction:
    """Determinant form of the partition function, exactly, at a rational
    point.  Requires the u_i (and the v_j) pairwise distinct and no pole
    u_i*v_j in {q^2, q^-2}.

    In lowest terms q = Q/Qd, u_i = U_i/Ud_i and v_j = V_j/Vd_j, so the
    weights of cell (i, j) are a = A_ij/E_ij and b = B_ij/E_ij, with
    A_ij = U_i V_j Q^2 - Ud_i Vd_j Qd^2, B_ij = U_i V_j Qd^2 - Ud_i Vd_j Q^2
    and E_ij = Ud_i V_j Q Qd, and the matrix entry is
    (Q^4 - Qd^4) (Ud_i Vd_j)^2 / (A_ij B_ij).  Row i times
    prod_j A_ij B_ij is a row of ints, and that factor cancels the a and b
    weights of the prefactor, so the whole value is one int over one int:
    one ``Fraction`` reduction per point."""
    n = pt.n
    reason = _degeneracy(pt.q, pt.u, pt.v)
    if reason is not None:
        raise DegenerateParameterError(reason)
    q2, qd2 = pt.q.numerator**2, pt.q.denominator**2
    uu = [(x.numerator**2, x.denominator**2) for x in pt.s]
    vv = [(x.numerator**2, x.denominator**2) for x in pt.t]
    # the constant factor of the entries, and the Q Qd of every E_ij^2
    num = (q2 * q2 - qd2 * qd2) ** n
    den = (q2 * qd2) ** (n * n)
    for i in range(n):
        s, t, (_, ud), (v, vd) = pt.s[i], pt.t[i], uu[i], vv[i]
        # s_i t_i^(2n+1); Ud_i^2 and Vd_i^2 from the entries, Ud_i^(2n) and
        # V_i^(2n) from the E^2, and Ud_i^(n-1) and Vd_i^(n-1) from the
        # denominators of the differences u_i - u_j and v_i - v_j
        num *= s.numerator * t.numerator ** (2 * n + 1) * vd ** (n + 1)
        den *= s.denominator * t.denominator ** (2 * n + 1) * ud ** (n - 1) * v ** (2 * n)
        for j in range(i + 1, n):
            den *= (uu[i][0] * uu[j][1] - uu[j][0] * uu[i][1]) * (vv[i][0] * vv[j][1] - vv[j][0] * vv[i][1])
    matrix = []
    for u, ud in uu:
        ab = [(u * v * q2 - ud * vd * qd2) * (u * v * qd2 - ud * vd * q2) for v, vd in vv]
        # entry j is the product of the row's other A B, from the products
        # of those before it and those after it
        before = [1]
        for x in ab[:-1]:
            before.append(before[-1] * x)
        after = 1
        for j in reversed(range(n)):
            before[j] *= after
            after *= ab[j]
        matrix.append(before)
    return Fraction(num * det_rat(matrix).numerator, den)


def homogeneous_weights(q: Fraction, rho0: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The (a, b, c) weights at the fully homogeneous point u = v = rho0^2."""
    q, rho0 = Fraction(q), Fraction(rho0)
    if q == 0 or rho0 == 0:
        raise DegenerateParameterError("q and rho0 must be nonzero")
    r = rho0 * rho0
    return (weight_a(r, r, q), weight_b(r, r, q), weight_c(rho0, rho0, q))


def homogeneous_point(n: int, q: Fraction, rho0: Fraction) -> IkPoint:
    return IkPoint(Fraction(q), (Fraction(rho0),) * n, (Fraction(rho0),) * n)


def check_refined_specialization(
    n: int, q: Fraction, rho0: Fraction, s1: Fraction
) -> bool:
    """With the first row parameter free the partition function matches the
    z-refined generating function at x = (a/b)^2, y = (c/b)^2 and
    z = (a~ * b) / (a * b~).  At s1 = rho0 the point is homogeneous:
    a~ = a, b~ = b, c~ = c and z = 1."""
    q, rho0, s1 = Fraction(q), Fraction(rho0), Fraction(s1)
    a, b, c = homogeneous_weights(q, rho0)
    r = rho0 * rho0
    u1 = s1 * s1
    a_t = weight_a(u1, r, q)
    b_t = weight_b(u1, r, q)
    c_t = weight_c(s1, rho0, q)
    if 0 in (a, b, b_t):
        raise DegenerateParameterError("degenerate weight in refined specialization")
    pt = IkPoint(q, (s1,) + (rho0,) * (n - 1), (rho0,) * n)
    lhs = partition_function_explicit(n, pt)
    x = (a / b) ** 2
    y = (c / b) ** 2
    z = a_t * b / (a * b_t)
    rhs = (
        b ** ((n - 1) ** 2)
        * b_t ** (n - 1)
        * c ** (n - 1)
        * c_t
        * z_asm_brute(n).evaluate((x, y, z, 1, 1))
    )
    return lhs == rhs


def sample_ik_point(n: int, rng: Random) -> IkPoint:
    """Draw a small random rational point avoiding every degeneracy that
    the determinant route rejects.  Each coordinate is +-a/b with a <= 9
    and b <= 6, so at most 36 squares exist and the expected number of
    redraws grows steeply with n; an order past IK_SAMPLE_MAX_N is
    refused before the first draw."""
    check_order(n, IK_SAMPLE_MAX_N, "IK point sampling")

    def frac(nonunit: bool = False) -> Fraction:
        while True:
            val = Fraction(rng.randint(1, 9), rng.randint(1, 6)) * rng.choice((1, -1))
            if val == 0 or (nonunit and abs(val) == 1):
                continue
            return val

    while True:
        q = frac(nonunit=True)
        s = tuple(frac() for _ in range(n))
        t = tuple(frac() for _ in range(n))
        if _degeneracy(q, tuple(x * x for x in s), tuple(x * x for x in t)) is None:
            return IkPoint(q, s, t)
