"""Nonintersecting lattice paths in bijection with descending plane
partitions, path-weight sums, and the determinant identity they satisfy.

The grid has Cartesian vertices (column, row) with 0 <= column, row <=
n-1; edges run rightward and downward.  A family consists of
vertex-disjoint paths from (0, L[i-1] - 1) to (L[i], 0) for
i = 1 .. t+1, where n = L[0] > L[1] > ... > L[t] > 0 and L[t+1] = 0; the
L[i] are the row lengths of the matching partition.

Edge weights: a rightward step leaving column c at height h weighs x when
c <= h and y when c > h, and a step in the top row (h = n-1) weighs x*z.
Vertical steps weigh 1.  The counts of x-steps, y-steps and top-row steps
of a family equal the statistics (nu, mu, rho) of the matching partition.

Refinement is always on in these rules: every path sum and LGV entry
carries z, and the unrefined form is its z = 1 substitution
(matrices.build makes it; lgv_nilp_sum returns it when asked).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .dpp import Dpp
from .errors import InvariantError, ValidationError
from .limits import BRUTE_FORCE_LIMIT, check_order
from .linalg import PolyMatrix, det_poly
from .polynomial import ONE, Z_IDX, ZERO, MultiPoly, binom, monomial


@dataclass(frozen=True)
class LatticePath:
    start: tuple[int, int]  # (column, row)
    steps: tuple[str, ...]  # "R" (column + 1) or "D" (row - 1)

    def __post_init__(self):
        if any(s not in ("R", "D") for s in self.steps):
            raise ValidationError("steps must be 'R' or 'D'")

    @property
    def end(self) -> tuple[int, int]:
        c, r = self.start
        c += sum(1 for s in self.steps if s == "R")
        r -= sum(1 for s in self.steps if s == "D")
        return (c, r)

    def vertices(self) -> list[tuple[int, int]]:
        c, r = self.start
        out = [(c, r)]
        for s in self.steps:
            if s == "R":
                c += 1
            else:
                r -= 1
            out.append((c, r))
        return out

    def right_steps(self) -> list[tuple[int, int]]:
        """(column, height) of each rightward step, column of the left end."""
        c, r = self.start
        out = []
        for s in self.steps:
            if s == "R":
                out.append((c, r))
                c += 1
            else:
                r -= 1
        return out


@dataclass(frozen=True)
class NilpSet:
    n: int
    paths: tuple[LatticePath, ...]

    def __post_init__(self):
        n = self.n
        check_order(n)
        if not self.paths:
            raise ValidationError("a family always contains the final path")
        lengths = [sum(1 for s in p.steps if s == "R") for p in self.paths]
        profile = [n] + lengths
        if lengths[-1] != 0:
            raise ValidationError("last path must end in column 0")
        if any(profile[i] <= profile[i + 1] for i in range(len(lengths))):
            raise ValidationError("column profile must decrease strictly")
        for i, p in enumerate(self.paths):
            if p.start != (0, profile[i] - 1):
                raise ValidationError(f"path {i + 1} starts at {p.start}")
            if p.end != (lengths[i], 0):
                raise ValidationError(f"path {i + 1} ends at {p.end}")
        # with both ends inside the grid, a monotone path stays inside it;
        # no vertex may be shared by two paths
        seen: set[tuple[int, int]] = set()
        for p in self.paths:
            for v in p.vertices():
                if v in seen:
                    raise ValidationError(f"paths share vertex {v}")
                seen.add(v)


def _heights_to_path(
    start: tuple[int, int], heights: Sequence[int], end: tuple[int, int]
) -> LatticePath:
    # monotone path from start whose k-th rightward step is at the given
    # height; it then drops to the end row and runs right to the end column
    steps: list[str] = []
    column, row = start
    for h in heights:
        if h > row:
            raise ValidationError("step heights must decrease weakly")
        steps.extend("D" * (row - h))
        steps.append("R")
        column, row = column + 1, h
    steps.extend("D" * (row - end[1]))
    steps.extend("R" * (end[0] - column))
    return LatticePath(start, tuple(steps))


def dpp_to_nilp(d: Dpp, n: int) -> NilpSet:
    """Row i maps to the path whose k-th rightward step has height
    (k-th part of row i) - 1; one extra all-down path closes the family."""
    if d.rows and d.max_part > n:
        raise ValidationError("parts exceed the ambient order")
    lengths = [len(row) for row in d.rows]
    profile = [n] + lengths + [0]
    paths = [
        _heights_to_path((0, profile[i] - 1), [p - 1 for p in row], (len(row), 0))
        for i, row in enumerate(d.rows)
    ]
    paths.append(_heights_to_path((0, profile[-2] - 1), [], (0, 0)))
    return NilpSet(n, tuple(paths))


def nilp_to_dpp(p: NilpSet) -> Dpp:
    rows = []
    for path in p.paths[:-1]:
        rows.append(tuple(h + 1 for _, h in path.right_steps()))
    return Dpp(tuple(rows))


def _step_counts(paths: Sequence[LatticePath], n: int) -> tuple[int, int, int]:
    # rightward steps above the diagonal line, below it, and in the top row
    above = below = top = 0
    for path in paths:
        for c, h in path.right_steps():
            if c <= h:
                above += 1
            else:
                below += 1
            if h == n - 1:
                top += 1
    return (above, below, top)


def nilp_statistics(p: NilpSet) -> tuple[int, int, int]:
    """(steps above the diagonal line, steps below it, steps in the top
    row); equals (nu, mu, rho) of the matching partition."""
    return _step_counts(p.paths, p.n)


def split_binom(top: int, k: int, j: int, n: int) -> list[tuple[int, int]]:
    """C(top, k) as (z exponent, coefficient) pairs, refined in the last
    column alone.

    In the last column (j = n-1) it is the hockey-stick split
    C(top, k) = sum_l C(top-1-l, k-l), with part l weighted z^(l+n-top);
    everywhere else it is the single pair (0, C(top, k)).  Every named
    matrix takes its last-column refinement from here.
    """
    if j == n - 1:
        return [(l + n - top, binom(top - 1 - l, k - l)) for l in range(k + 1)]
    return [(0, binom(top, k))]


def path_weight_sum(i: int, j: int, n: int) -> MultiPoly:
    """Closed-form weight sum over all paths from (0, j) to (i, 0):

        sum_k C(i-1, i-k) C(j+1, k) x^k y^(i-k),

    with C(j+1, k) split by split_binom (the top row is row j = n-1).
    """
    if not (0 <= i < n and 0 <= j < n):
        raise ValidationError("grid indices out of range")
    return MultiPoly(
        ((k, i - k, l, 0, 0), binom(i - 1, i - k) * c)
        for k in range(i + 1)
        for l, c in split_binom(j + 1, k, j, n)
    )


def direct_path_weight_oracle(i: int, j: int, n: int) -> MultiPoly:
    """Brute-force companion of path_weight_sum: the weight x^above
    y^below z^top of every monotone path from (0, j) to (i, 0), each found
    by the one disjoint-path search."""
    if not (0 <= i < n and 0 <= j < n):
        raise ValidationError("grid indices out of range")
    return MultiPoly(
        Counter(
            _step_counts(paths, n) + (0, 0)
            for paths in _disjoint_families([((0, j), (i, 0))])
        )
    )


def _profiles(n: int) -> Iterator[tuple[int, ...]]:
    # strictly decreasing tuples inside {1..n-1}, shortest first, then
    # lexicographic in the tuple itself
    from itertools import combinations

    for t in range(n):
        for combo in combinations(range(n - 1, 0, -1), t):
            yield combo


def _disjoint_families(
    endpoints: Sequence[tuple[tuple[int, int], tuple[int, int]]]
) -> Iterator[tuple[LatticePath, ...]]:
    """Every tuple of vertex-disjoint paths joining each (start, end) pair.

    Depth-first, path by path, trying a downward step before a rightward
    one; no path goes below its end row or past its end column."""
    used: set[tuple[int, int]] = set()
    chosen: list[LatticePath] = []

    def place(idx: int) -> Iterator[tuple[LatticePath, ...]]:
        if idx == len(endpoints):
            yield tuple(chosen)
            return
        start, (end_c, end_r) = endpoints[idx]
        steps: list[str] = []

        def walk(c: int, h: int) -> Iterator[tuple[LatticePath, ...]]:
            if (c, h) in used:
                return
            if c == end_c and h == end_r:
                path = LatticePath(start, tuple(steps))
                verts = set(path.vertices())
                used.update(verts)
                chosen.append(path)
                yield from place(idx + 1)
                chosen.pop()
                used.difference_update(verts)
                return
            if h > end_r:
                steps.append("D")
                yield from walk(c, h - 1)
                steps.pop()
            if c < end_c:
                steps.append("R")
                yield from walk(c + 1, h)
                steps.pop()

        yield from walk(*start)

    yield from place(0)


def enumerate_nilp_families(n: int) -> Iterator[NilpSet]:
    """Every nonintersecting family directly, without the bijection.

    Order: profiles as in _profiles, families within a profile in
    depth-first order exploring a downward step before a rightward one.
    """
    check_order(n)
    for profile in _profiles(n):
        starts = (n,) + profile
        ends = profile + (0,)
        endpoints = [((0, s - 1), (e, 0)) for s, e in zip(starts, ends)]
        for paths in _disjoint_families(endpoints):
            yield NilpSet(n, paths)


def lgv_matrix(n: int, w_weight: bool = False) -> PolyMatrix:
    """-delta(i, j+1) + path weight sum, the matrix whose determinant
    carries the full family sum (M_BAR).  With w_weight the path weight
    sum, not the -delta term, is multiplied by w (M_BAR_W)."""
    w = monomial(1, w=1) if w_weight else ONE
    return PolyMatrix.square(
        n,
        lambda i, j: path_weight_sum(i, j, n) * w - (ONE if i == j + 1 else ZERO),
    )


def lgv_nilp_sum(n: int, refined: bool = False) -> MultiPoly:
    """Family weight sum computed twice: direct enumeration and the
    determinant route.  Returns the determinant value after asserting the
    two agree, at z = 1 unless refined."""
    check_order(n, BRUTE_FORCE_LIMIT, "family enumeration")
    det = det_poly(lgv_matrix(n))
    # a family weighs x^nu y^mu z^rho: every top-row step lies above the
    # diagonal line, so it weighs x*z
    direct = MultiPoly(
        Counter(nilp_statistics(fam) + (0, 0) for fam in enumerate_nilp_families(n))
    )
    if direct != det:
        raise InvariantError(f"family sum and determinant disagree at order {n}")
    return det if refined else det.substitute(Z_IDX, 1)


def nilp_to_json(p: NilpSet) -> dict:
    return {"n": p.n, "paths": ["".join(path.steps) for path in p.paths]}

