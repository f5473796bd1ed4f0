"""Oscillating tableaux, double diagrams, and the binomial counting
formulas that tie the nu-level counts of both families together.

An oscillating tableau of shape lam and length l is a sequence of l+1
Young diagrams starting at the empty diagram and ending at lam, with
consecutive diagrams differing by one square.  The set is empty unless
l - |lam| is nonnegative and even.

The content of step k is j_k - i_k (column minus row of the changed
square, 1-based).  An ascent is a k with content(k) < content(k+1) in
the order

    ... < -2 < 2 < -1 < 1 < 0,

i.e. d precedes d' when |d| > |d'|, or |d| = |d'| and d < d'.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import comb
from typing import Iterator, Sequence

from .errors import ValidationError

Partition = tuple[int, ...]


def validate_partition(lam: Sequence[int]) -> Partition:
    lam = tuple(int(v) for v in lam)
    if any(v < 1 for v in lam):
        raise ValidationError("partition parts must be positive")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValidationError("partition parts must decrease weakly")
    return lam


@dataclass(frozen=True)
class OscTab:
    """Diagram sequence plus the (row, column) log of each changed square,
    recorded at construction so ascent counting never re-diffs diagrams."""

    diagrams: tuple[Partition, ...]
    changes: tuple[tuple[int, int], ...]  # 1-based (i_k, j_k)


def _additions(lam: Partition) -> Iterator[tuple[Partition, int, int]]:
    for r in range(len(lam) + 1):
        new_len = (lam[r] if r < len(lam) else 0) + 1
        if r > 0 and lam[r - 1] < new_len:
            continue
        if r < len(lam):
            new = lam[:r] + (new_len,) + lam[r + 1 :]
        else:
            new = lam + (1,)
        yield new, r + 1, new_len


def _deletions(lam: Partition) -> Iterator[tuple[Partition, int, int]]:
    for r in range(len(lam)):
        new_len = lam[r] - 1
        if r + 1 < len(lam) and lam[r + 1] > new_len:
            continue
        if new_len == 0:
            new = lam[:r] + lam[r + 1 :]
        else:
            new = lam[:r] + (new_len,) + lam[r + 1 :]
        yield new, r + 1, lam[r]


def enumerate_oscillating(shape: Sequence[int], length: int) -> Iterator[OscTab]:
    """All oscillating tableaux of the given shape and length (no output
    when length - |shape| is negative or odd)."""
    shape = validate_partition(shape)
    target_size = sum(shape)
    if length < 0 or (length - target_size) % 2 or length < target_size:
        return
    diagrams: list[Partition] = [()]
    changes: list[tuple[int, int]] = []

    def walk(step: int) -> Iterator[OscTab]:
        current = diagrams[-1]
        remaining = length - step
        gap = target_size - sum(current)
        if abs(gap) > remaining or (remaining - gap) % 2:
            return
        if step == length:
            if current == shape:
                yield OscTab(tuple(diagrams), tuple(changes))
            return
        for new, i, j in chain(_additions(current), _deletions(current)):
            diagrams.append(new)
            changes.append((i, j))
            yield from walk(step + 1)
            diagrams.pop()
            changes.pop()

    yield from walk(0)


def _precedes(d: int, d2: int) -> bool:
    return abs(d) > abs(d2) or (abs(d) == abs(d2) and d < d2)


def ascent_count(t: OscTab) -> int:
    contents = [j - i for i, j in t.changes]
    return sum(
        1 for k in range(len(contents) - 1) if _precedes(contents[k], contents[k + 1])
    )


def strict_partitions(p: int) -> list[tuple[int, ...]]:
    """Strictly decreasing positive sequences summing to p (the empty one
    for p = 0)."""
    if p < 0:
        raise ValidationError("p must be nonnegative")
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, cap), 0, -1):
            prefix.append(part)
            rec(prefix, remaining - part, part - 1)
            prefix.pop()

    rec([], p, p)
    return out


def delta_diagram(kappa: Sequence[int]) -> Partition:
    """Double diagram of a strict partition: r diagonal squares, kappa_i
    squares right of the diagonal in row i and kappa_i - 1 below it in
    column i (Frobenius coordinates (kappa | kappa - 1))."""
    kappa = tuple(int(v) for v in kappa)
    if any(v < 1 for v in kappa):
        raise ValidationError("strict partition parts must be positive")
    if any(kappa[i] <= kappa[i + 1] for i in range(len(kappa) - 1)):
        raise ValidationError("parts must decrease strictly")
    r = len(kappa)
    if r == 0:
        return ()
    n_rows = kappa[0]
    rows = []
    for i in range(1, n_rows + 1):
        if i <= r:
            rows.append(i + kappa[i - 1])
        else:
            rows.append(sum(1 for j in range(1, r + 1) if j + kappa[j - 1] - 1 >= i))
    while rows and rows[-1] == 0:
        rows.pop()
    return validate_partition(rows)


def double_factorial_odd(p: int) -> int:
    """(2p - 1)!! with the empty-product value 1 at p = 0."""
    out = 1
    for k in range(1, 2 * p, 2):
        out *= k
    return out


@lru_cache(maxsize=8)
def _ascent_distributions(p: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # osc_counts is asked for many n at one p; enumerate the tableaux once
    return (
        tuple(ascent_distribution(enumerate_oscillating((), 2 * p)).items()),
        tuple(delta_ascent_distribution(p).items()),
    )


def osc_counts(n: int, p: int) -> tuple[int, int]:
    """The two binomial sums counting order-n elements with nu = p:

        sum over tableaux of empty shape and length 2p of C(n + asc, 2p)

    and the same sum over all double-diagram shapes of strict partitions
    of p, each summed over the ascent distribution of its tableaux."""
    if p < 0:
        raise ValidationError("p must be nonnegative")
    asm_side, dpp_side = (
        sum(count * comb(n + a, 2 * p) for a, count in dist)
        for dist in _ascent_distributions(p)
    )
    return asm_side, dpp_side


def ascent_distribution(tableaux: Iterator[OscTab]) -> Counter[int]:
    return Counter(map(ascent_count, tableaux))


def delta_ascent_distribution(p: int) -> Counter[int]:
    """Ascent distribution over the tableaux of length 2p whose shape is
    the double diagram of a strict partition of p."""
    return ascent_distribution(
        t
        for kappa in strict_partitions(p)
        for t in enumerate_oscillating(delta_diagram(kappa), 2 * p)
    )
