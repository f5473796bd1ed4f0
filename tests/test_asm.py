import hashlib
import json
import tracemalloc
from collections import Counter

import pytest

from asmdpp import asm
from asmdpp.asm import (
    Asm,
    asm_nu_second_form,
    asm_reflect,
    asm_row_word,
    asm_stats,
    count_asm_no_isolated_by_mu,
    enumerate_asms,
    isolated_ones_count,
    rotation_invariance,
    z_asm_brute,
)
from asmdpp.errors import ResourceLimitError, ValidationError
from asmdpp.limits import ASM_SUM_MAX_N
from asmdpp.matrices import genfunc_det
from asmdpp.polynomial import poly_str
from helpers import ASMEX, Z7_SHA256, asm_list, per_node_asms, per_object_z_asm

CENTER = Asm(((0, 1, 0), (1, -1, 1), (0, 1, 0)))

ASM3_EXPECTED = {
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((0, 1, 0), (1, -1, 1), (0, 1, 0)),
}


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValidationError):
        Asm(((1, 1), (0, 0)))  # row sum 2
    with pytest.raises(ValidationError):
        Asm(((0, 1), (1, -1)))  # column sum 0
    with pytest.raises(ValidationError):
        Asm(((-1, 1), (1, 0)))  # partial row sum -1
    with pytest.raises(ValidationError):
        Asm(((2, -1), (0, 1)))  # entry outside range


def test_validation_rejects_float_and_bool_entries():
    # 1.0 and True equal 1, but an ASM holds ints only
    for rows in (((1.0,),), ((True,),), ((0, 1), (1.0, 0))):
        with pytest.raises(ValidationError, match="is not an int$"):
            Asm(rows)


def test_validation_refuses_rows_that_are_not_tuples():
    # a list row would leave a frozen Asm mutable and unhashable
    with pytest.raises(ValidationError, match="^rows must be a tuple, not list$"):
        Asm([[1]])
    with pytest.raises(ValidationError, match="^each row must be a tuple, not list$"):
        Asm(((0, 1), [1, 0]))
    hash(Asm(((0, 1), (1, 0))))


def test_enumeration_small_orders():
    assert [a.rows for a in enumerate_asms(1)] == [((1,),)]
    assert {a.rows for a in enumerate_asms(3)} == ASM3_EXPECTED
    assert len(asm_list(5)) == 429


def test_enumeration_matches_the_per_node_reference():
    for n in range(1, 7):
        assert [a.rows for a in asm_list(n)] == [a.rows for a in per_node_asms(n)], n


def test_enumeration_rejects_zero():
    with pytest.raises(ValidationError):
        next(enumerate_asms(0))


def test_enumeration_is_sorted_lexicographically():
    for n in (3, 4):
        seq = [a.rows for a in enumerate_asms(n)]
        assert seq == sorted(seq)
        assert len(set(seq)) == len(seq)


def test_stats_of_worked_example():
    s = asm_stats(ASMEX)
    assert (s.nu, s.mu, s.rho) == (5, 3, 3)
    assert s.nu_prime == 8


def test_stats_identity_and_center():
    for n in (1, 2, 3, 4):
        ident = Asm(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
        assert asm_stats(ident) == type(asm_stats(ident))(0, 0, 0)
    assert (asm_stats(CENTER).nu, asm_stats(CENTER).mu, asm_stats(CENTER).rho) == (1, 1, 1)


def test_nu_two_forms_agree():
    for n in range(1, 5):
        for a in asm_list(n):
            assert asm_nu_second_form(a) == asm_stats(a).nu


def test_reflect_examples():
    ident = Asm(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    anti = Asm(((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    assert asm_reflect(ident) == anti
    assert asm_reflect(CENTER) == CENTER
    s = asm_stats(asm_reflect(ASMEX))
    assert (s.nu, s.mu, s.rho) == (7, 3, 2)


def test_reflect_is_involution_with_stat_transform():
    for n in range(1, 5):
        half = n * (n - 1) // 2
        for a in asm_list(n):
            r = asm_reflect(a)
            assert asm_reflect(r) == a
            s, t = asm_stats(a), asm_stats(r)
            assert (t.nu, t.mu, t.rho) == (half - s.nu - s.mu, s.mu, n - 1 - s.rho)


def test_rotation_invariance():
    ident = Asm(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert rotation_invariance(ident, "half")
    assert not rotation_invariance(ident, "quarter")
    halves = sum(1 for a in asm_list(3) if rotation_invariance(a, "half"))
    quarters = sum(1 for a in asm_list(3) if rotation_invariance(a, "quarter"))
    assert (halves, quarters) == (3, 1)
    with pytest.raises(ValidationError):
        rotation_invariance(ident, "third")


def test_isolated_ones():
    ident = Asm(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert isolated_ones_count(ident) == 3
    assert isolated_ones_count(CENTER) == 0
    assert count_asm_no_isolated_by_mu(3)[1] == 1
    assert count_asm_no_isolated_by_mu(3)[0] == 0
    assert count_asm_no_isolated_by_mu(0)[0] == 1


def test_z_brute_small():
    assert poly_str(z_asm_brute(1)) == "1"
    assert poly_str(z_asm_brute(2)) == "1 + x*z"
    assert (
        poly_str(z_asm_brute(3)) == "1 + x + x*z + x^2*z + x*y*z + x^2*z^2 + x^3*z^2"
    )


def test_z_brute_matches_the_per_object_reference():
    for n in range(1, 7):
        assert z_asm_brute(n) == per_object_z_asm(n), n


def test_z_brute_at_order_7_is_unchanged():
    text = poly_str(z_asm_brute(7)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == Z7_SHA256


def test_z_brute_matches_the_determinant_past_order_7():
    for n in range(8, 11):
        assert z_asm_brute(n) == genfunc_det(n), n


def test_z_brute_expands_each_column_state_once(monkeypatch):
    # the sum pays per distinct column vector, not per matrix: each of the
    # 2^7 vectors, the stepless all-ones one included, is asked for its
    # steps once to count its readers and once to be summed
    expected = z_asm_brute(7)
    expanded = Counter()
    steps = asm._row_steps

    def spy(col):
        expanded[col] += 1
        return steps(col)

    monkeypatch.setattr(asm, "_row_steps", spy)
    assert z_asm_brute.__wrapped__(7) == expected
    assert len(expanded) == 2**7
    assert set(expanded.values()) == {2}


def test_z_brute_drops_each_state_after_its_last_reader():
    # about 1.3 MB; keeping every column state's sum to the end peaked at
    # 2.7-2.8 MB
    z_asm_brute(9)  # builds the step tables outside the trace
    tracemalloc.start()
    try:
        z_asm_brute.__wrapped__(9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_z_brute_limit():
    with pytest.raises(ResourceLimitError):
        z_asm_brute(ASM_SUM_MAX_N + 1)


def test_boundary_relation_small():
    for n in (2, 3, 4):
        assert z_asm_brute(n).substitute(2, 0) == z_asm_brute(n - 1).substitute(2, 1)


def test_json_roundtrip():
    # the JSON text read back through the validating constructor
    for n in range(1, 6):
        for a in asm_list(n):
            assert Asm(tuple(map(tuple, json.loads(json.dumps(a.rows))))) == a


def test_row_word_is_injective():
    assert asm_row_word(CENTER) == "2/1.2.3/2"
    for n in range(1, 6):
        words = {asm_row_word(a) for a in asm_list(n)}
        assert len(words) == len(asm_list(n)), n
