import hashlib
import json
import re
import tracemalloc
from collections import Counter

import pytest

from asmdpp import asm, sixvertex
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
from asmdpp.cli import ENUMERATE_BLOCK, _KIND_LINES, main
from asmdpp.errors import ResourceLimitError, ValidationError
from asmdpp.limits import ASM_SUM_MAX_N
from asmdpp.matrices import genfunc_det
from asmdpp.polynomial import poly_str
from asmdpp.sixvertex import SixVertexConfig, asm_to_sixvertex, enumerate_configs
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


@pytest.fixture
def cold_walk():
    """Empty the confirmed step tables of the matrix and six-vertex walks
    before the test and after it, so that a count starts from nothing and
    no table built from a spoiled row outlives the test."""

    def clear():
        asm._confirmed_steps.cache_clear()
        sixvertex._type_steps.cache_clear()

    clear()
    yield
    clear()


WALK_RULES = ((asm, "_check_step"), (asm, "_check_row"), (asm, "_check_last"), (sixvertex, "_check_type_row"))


def _count_rules(monkeypatch):
    """A Counter of the calls of each rule function of the walks."""
    calls = Counter()
    for module, name in WALK_RULES:

        def spy(*args, _name=name, _rule=getattr(module, name)):
            calls[_name] += 1
            return _rule(*args)

        monkeypatch.setattr(module, name, spy)
    return calls


def _tables():
    return asm._confirmed_steps.cache_info(), sixvertex._type_steps.cache_info()


def test_the_walk_runs_the_rules_once_per_distinct_step(monkeypatch, capsys, cold_walk):
    calls = _count_rules(monkeypatch)
    assert main(["enumerate", "--kind", "asm", "--n", "6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 7436
    # 364 steps from the 63 vectors that have steps, and the last-vector
    # rule after each of the 6 last rows
    assert calls == {"_check_step": 364, "_check_row": 364, "_check_last": 6}
    assert asm._confirmed_steps.cache_info().currsize == 63
    # after the stream, enumerate_asms runs no rule, and enumerate_configs
    # edge-checks each step's type row once and runs no matrix rule
    calls.clear()
    assert len(list(enumerate_asms(6))) == 7436 and not calls
    configs = list(enumerate_configs(6))
    assert len(configs) == 7436 and calls == {"_check_type_row": 364}
    # the constructors run their loops on each array a caller passes in,
    # and neither read nor write the tables
    calls.clear()
    tables = _tables()
    for a in asm_list(6):
        Asm(a.rows)
    for c in configs:
        SixVertexConfig(c.types)
    assert calls == {"_check_row": 6 * 7436}
    assert _tables() == tables


def _error(make, arg):
    try:
        make(arg)
    except ValidationError as exc:
        return str(exc)
    return None


def test_the_constructors_give_the_same_errors_without_the_tables(cold_walk):
    # arrays and grids of the walk, and the same with the top row moved to
    # the bottom, made of the walk's own row objects
    cases = [(Asm, a.rows) for a in enumerate_asms(5)] + [(SixVertexConfig, c.types) for c in enumerate_configs(5)]
    walked = len(cases)
    cases += [(make, rows[1:] + rows[:1]) for make, rows in cases]
    tables = _tables()
    warm = [_error(*case) for case in cases]
    assert _tables() == tables
    asm._confirmed_steps.cache_clear()
    sixvertex._type_steps.cache_clear()
    assert [_error(*case) for case in cases] == warm
    assert _tables()[0].currsize == _tables()[1].currsize == 0
    assert set(warm[:walked]) == {None}
    moved = set(warm[walked:])
    assert {"partial column sums must stay in {0,1}", "top boundary arrow wrong at column 1"} <= moved


def test_every_yielded_object_passes_the_full_loop():
    for n in range(1, 7):
        for a in enumerate_asms(n):
            assert type(a) is Asm and Asm(a.rows) == a
        configs = list(enumerate_configs(n))
        for c in configs:
            assert type(c) is SixVertexConfig and SixVertexConfig(c.types) == c
        assert configs == [asm_to_sixvertex(a) for a in asm_list(n)], n


def _slip_in(monkeypatch, spoil, after):
    """Make ``_row_steps`` hand the walk one bad row: from its first call
    past the after-th, the first row of a vector's table that spoil
    spoils is replaced by spoil(row, col), there and on every later call
    with that vector.  Returns {vector: spoiled table}."""
    real = asm._row_steps
    calls = []
    spoiled = {}

    def steps(col):
        table = real(col)
        calls.append(col)
        if not spoiled and len(calls) > after:
            for k, (row, nxt, weight) in enumerate(table):
                bad = spoil(row, col)
                if bad is not None:
                    spoiled[col] = table[:k] + ((bad, nxt, weight),) + table[k + 1 :]
                    break
        return spoiled.get(col, table)

    monkeypatch.setattr(asm, "_row_steps", steps)
    return spoiled


def _move_the_one(row, col):
    # a row with one nonzero entry, moved onto a column whose sum above is
    # already 1: the row's own rules hold, the column sum breaks
    if row.count(0) == len(row) - 1 and 1 in col:
        k = col.index(1)
        return tuple(int(j == k) for j in range(len(row)))
    return None


SPOILERS = {
    "two entry": (lambda row, col: tuple(2 if v == 1 else v for v in row), "entry 2 outside {-1,0,1}"),
    "broken column sum": (_move_the_one, "partial column sums must stay in {0,1}"),
    # equal to the row it replaces, but not of ints
    "float entry": (lambda row, col: tuple(float(v) if v == 1 else v for v in row), "entry 1.0 is not an int"),
    "list row": (lambda row, col: list(row), "each row must be a tuple, not list"),
    "short row": (lambda row, col: row[:-1], "matrix must be square"),
}


@pytest.mark.parametrize("spoiler", SPOILERS)
def test_the_walk_runs_the_rules_on_each_new_step(monkeypatch, capsys, cold_walk, spoiler):
    assert main(["enumerate", "--kind", "asm", "--n", "6"]) == 0
    good = capsys.readouterr().out.splitlines()
    valid = [repr(a.rows) for a in enumerate_asms(6)]
    grids = [c.types for c in enumerate_configs(6)]
    spoil, message = SPOILERS[spoiler]
    match = f"^{re.escape(message)}$"
    made = {}
    for source in ("stream", "lines", "asms", "configs"):
        monkeypatch.undo()
        asm._confirmed_steps.cache_clear()
        sixvertex._type_steps.cache_clear()
        spoiled = _slip_in(monkeypatch, spoil, after=40)
        out = made[source] = []
        if source == "stream":
            code, text, err = main(["enumerate", "--kind", "asm", "--n", "6"]), *capsys.readouterr()
            assert (code, err) == (2, f"error: {message}\n")
            out += text.splitlines()
        else:
            enumerator = {
                "lines": lambda: _KIND_LINES["asm"](6, "json"),
                "asms": lambda: map(repr, (a.rows for a in enumerate_asms(6))),
                "configs": lambda: (c.types for c in enumerate_configs(6)),
            }[source]
            with pytest.raises(ValidationError, match=match):
                out.extend(enumerator())
        assert spoiled, source
    # whole blocks were written before the bad row came up, and every line
    # and object made is one of the valid family, in its place, by repr,
    # so that a float entry equal to an int one shows
    assert ENUMERATE_BLOCK <= len(made["stream"]) and made["stream"] == good[: len(made["stream"])]
    assert made["stream"] == made["lines"][: len(made["stream"])] and len(made["lines"]) < len(good)
    assert made["lines"] == good[: len(made["lines"])]
    assert made["asms"] == valid[: len(made["lines"])]
    assert made["configs"] == grids[: len(made["lines"])]


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
