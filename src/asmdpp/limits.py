"""Documented size limits for the exhaustive and symbolic routines, and
the one rule that enforces them.

``check_order(n, cap, what)`` is the only order check in the package:
an order below 1 raises ``ValidationError("order must be at least 1")``,
and an order past cap raises ``ResourceLimitError("<what> capped at
order <cap>")`` before any work is done.  Every cap below, and the
command line's ASMDPP_MAX_N, is applied through it.

BRUTE_FORCE_LIMIT caps every exhaustive pass over a family: the direct
path-family sum, the explicit six-vertex sum and the ASM counts behind
the parity checks (both families have 218348 elements at order 7, which
is the largest size that enumerates in reasonable time in pure Python).
``enumerate`` streams past it.  The ASM, six-vertex and path streams
hold one object at a time, but the DPP stream holds the completions of
one group of first parts and row lengths (``dpp.dpp_walk``): at most
9,792 at order 7, 272,636 at order 8 and 13,111,992 at order 9, so its
memory grows with the order.

ASM_SUM_MAX_N and DPP_SUM_MAX_N cap the brute-force generating functions
(``genfunc --method brute-asm|brute-dpp``, and ``table``, which runs
both).  Neither visits the objects: each sums the family's step tables
once per state, a vector of column sums for the ASMs (2^n) and a row
less its first part for the DPPs (792 at order 7, 3,003 at order 8).
On a 2-vCPU machine with CPython 3.11, ``genfunc --method brute-asm``
took 0.07-0.09 s and 17 MB peak RSS at order 7, 0.5-0.8 s and 31 MB at
10 and 2.0-3.8 s and 61 MB at 11 (37 and 75 MB before each state's sum
was dropped after its last reader); 8.9-10.6 s at 12 is too close to
10 s to allow.  ``genfunc --method brute-dpp`` took 0.2-0.3 s and 18 MB
at order 7 and 2.3-3.3 s and 27 MB at 8; an earlier row-level DPP sum
took 119 s and 689 MB at order 9.  Both commands took 0.5-0.9 s at
order 7 when they visited every object.

DET_POLY_MAX_N caps symbolic determinants; minor expansion computes one
minor per column subset, so cost grows like 2^n.  At the cap,
``genfunc --n 12`` (which expands M_DPRIME) takes 0.8-1.1 s and 41 MB
peak RSS on a 2-vCPU machine with CPython 3.11 (3.9-4.1 s and 41 MB when
it expanded M_BAR; 10.3-10.7 s and 73 MB when the z-refined last column
was expanded into every minor; the tuple-keyed kernel before packed
exponents took 46 s).

MATRIX_BUILD_MAX_N caps the order of a named matrix (matrices.build);
the slowest family, M_PRIME, builds in 1.0-1.3 s at order 32 and
2.7-3.2 s at order 40 on a 2-vCPU machine with CPython 3.11, and without
a cap a large order runs out of memory.

IK_SAMPLE_MAX_N caps the order of sixvertex.sample_ik_point, which
redraws until the 2n squared coordinates are distinct, drawn from only
36 values: over 200 seeds one point took at most 0.06 s at n = 8,
0.18 s at n = 9, 0.52 s at n = 10 and 1.7 s at n = 11 on a 2-vCPU
machine with CPython 3.11 (means 0.008, 0.027, 0.12 and 0.49 s), and
for n >= 37 no point exists.

EXPONENT_FIELD_BITS is the width of the bit field that holds one
variable's exponent in a packed polynomial key; its top bit is a guard
bit, so every exponent must stay below 2^15 = 32768.  The largest in use
is the q-degree of q_factorial_product(7), 441.
"""

from __future__ import annotations

from .errors import ResourceLimitError, ValidationError

BRUTE_FORCE_LIMIT = 7

ASM_SUM_MAX_N = 11

DPP_SUM_MAX_N = 8

DET_POLY_MAX_N = 12

MATRIX_BUILD_MAX_N = 32

IK_SAMPLE_MAX_N = 9

EXPONENT_FIELD_BITS = 16

MAX_N_ENV_VAR = "ASMDPP_MAX_N"


def check_order(n: int, cap: int | None = None, what: str | None = None) -> None:
    """Refuse an order below 1, or past cap when one is given; what names
    the capped computation in the message."""
    if n < 1:
        raise ValidationError("order must be at least 1")
    if cap is not None and n > cap:
        raise ResourceLimitError(f"{what} capped at order {cap}")
