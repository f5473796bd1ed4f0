"""Every capped entry point refuses through limits.check_order: one past
its cap it raises ResourceLimitError with the cap's message before any
work is done, and at order 0 it raises ValidationError."""

import time
from random import Random

import pytest

from asmdpp.asm import count_asm_no_isolated_by_mu, count_rotation_invariant, z_asm_brute
from asmdpp.dpp import z_dpp_brute_wq
from asmdpp.errors import ResourceLimitError, ValidationError
from asmdpp.limits import (
    ASM_SUM_MAX_N,
    BRUTE_FORCE_LIMIT,
    DET_POLY_MAX_N,
    DPP_SUM_MAX_N,
    IK_SAMPLE_MAX_N,
    MATRIX_BUILD_MAX_N,
    check_order,
)
from asmdpp.linalg import PolyMatrix, det_poly
from asmdpp.matrices import build, genfunc_det
from asmdpp.paths import lgv_nilp_sum
from asmdpp.polynomial import ONE
from asmdpp.sixvertex import IkPoint, partition_function_explicit, sample_ik_point

# entry point -> (call at order n, cap, refusal message past the cap)
CAPPED = {
    "z_asm_brute": (z_asm_brute, ASM_SUM_MAX_N, "ASM step-table sum capped at order 11"),
    "z_dpp_brute_wq": (z_dpp_brute_wq, DPP_SUM_MAX_N, "DPP step-table sum capped at order 8"),
    "lgv_nilp_sum": (lgv_nilp_sum, BRUTE_FORCE_LIMIT, "family enumeration capped at order 7"),
    "count_rotation_invariant": (
        count_rotation_invariant,
        BRUTE_FORCE_LIMIT,
        "family enumeration capped at order 7",
    ),
    "count_asm_no_isolated_by_mu": (
        count_asm_no_isolated_by_mu,
        BRUTE_FORCE_LIMIT,
        "family enumeration capped at order 7",
    ),
    "partition_function_explicit": (
        lambda n: partition_function_explicit(n, IkPoint(2, (1,) * n, (1,) * n)),
        BRUTE_FORCE_LIMIT,
        "family enumeration capped at order 7",
    ),
    "build": (
        lambda n: build("M_PRIME", n),
        MATRIX_BUILD_MAX_N,
        "matrix construction capped at order 32",
    ),
    "genfunc_det": (genfunc_det, DET_POLY_MAX_N, "determinant capped at order 12"),
    "genfunc_det_w": (
        lambda n: genfunc_det(n, w_refined=True),
        DET_POLY_MAX_N,
        "determinant capped at order 12",
    ),
    "det_poly": (
        lambda n: det_poly(PolyMatrix.square(n, lambda i, j: ONE)),
        DET_POLY_MAX_N,
        "determinant capped at order 12",
    ),
    "sample_ik_point": (
        lambda n: sample_ik_point(n, Random(0)),
        IK_SAMPLE_MAX_N,
        "IK point sampling capped at order 9",
    ),
}


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_one_past_the_cap_is_refused_at_once(name):
    call, cap, message = CAPPED[name]
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError) as refused:
        call(cap + 1)
    assert time.perf_counter() - started < 0.1
    assert str(refused.value) == message


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_order_zero_is_invalid(name):
    call, _, _ = CAPPED[name]
    # the no-isolated count has an empty order 0, the i = 0 term of the
    # isolated-ones identity; its first invalid order is -1
    lowest = -1 if name == "count_asm_no_isolated_by_mu" else 0
    with pytest.raises(ValidationError):
        call(lowest)


def test_check_order_refuses_below_1_before_the_cap():
    check_order(1)
    check_order(5, 5, "anything")
    for n in (0, -1):
        with pytest.raises(ValidationError, match="^order must be at least 1$"):
            check_order(n, 0, "anything")
    with pytest.raises(ResourceLimitError, match="^ASMDPP_MAX_N capped at order 3$"):
        check_order(4, 3, "ASMDPP_MAX_N")


def test_no_isolated_count_keeps_its_empty_order():
    assert count_asm_no_isolated_by_mu(0) == {0: 1}
