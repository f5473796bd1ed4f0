import hashlib
import json
import tracemalloc
from collections import Counter
from itertools import islice

import pytest

from asmdpp import dpp
from asmdpp.cli import _KIND_LINES, ENUMERATE_BLOCK, main
from asmdpp.dpp import (
    Dpp,
    dpp_stats,
    enumerate_dpps,
    q_sum_of_parts,
    z_dpp_brute,
    z_dpp_brute_w,
    z_dpp_brute_wq,
)
from asmdpp.errors import ResourceLimitError, ValidationError
from asmdpp.limits import DPP_SUM_MAX_N
from asmdpp.matrices import genfunc_det
from asmdpp.polynomial import poly_str
from helpers import (
    Z7_SHA256,
    _row_fillings,
    block_walk_lines,
    block_walk_rows,
    dpp_list,
    per_object_z_dpp_wq,
    walk_and_sort_dpps,
)

DPPEX = Dpp(((6, 6, 6, 5, 2), (4, 4, 1), (3,)))

DPP3_EXPECTED = {
    (),
    ((3, 3), (2,)),
    ((2,),),
    ((3, 3),),
    ((3,),),
    ((3, 2),),
    ((3, 1),),
}


def test_validation():
    Dpp(((3, 1),))
    with pytest.raises(ValidationError):
        Dpp(((2, 2),))  # first part must exceed row length
    with pytest.raises(ValidationError):
        Dpp(((3, 4),))  # weak decrease violated
    with pytest.raises(ValidationError):
        Dpp(((3, 3), (3,)))  # strict column decrease violated
    with pytest.raises(ValidationError):
        Dpp(((3, 1), (2,)))  # 2 sits under the 1 above it
    with pytest.raises(ValidationError):
        Dpp(((3, 0),))  # nonpositive part


def test_validation_rejects_float_and_bool_parts():
    # 1.0 and True equal 1, but a DPP's parts are ints only
    for rows in (((3, True),), ((3.0, 1),), ((3, 1.0),), ((4, 3, 1), (2, True))):
        with pytest.raises(ValidationError, match="parts must be positive integers"):
            Dpp(rows)


def test_validation_refuses_rows_that_are_not_tuples():
    # a list row would leave a frozen Dpp mutable and unhashable
    with pytest.raises(ValidationError, match="^rows must be a tuple, not list$"):
        Dpp([(3, 1)])
    for rows in (([3, 1],), ((4, 3, 1), [2])):
        with pytest.raises(ValidationError, match="^each row must be a tuple, not list$"):
            Dpp(rows)
    # also when the same values were accepted as shared rows before
    walk = [d.rows for d in enumerate_dpps(4)]
    for rows in walk[1:]:
        with pytest.raises(ValidationError, match="^each row must be a tuple, not list$"):
            Dpp(rows[:-1] + (list(rows[-1]),))
        with pytest.raises(ValidationError, match="^rows must be a tuple, not list$"):
            Dpp(list(rows))


def _error(rows):
    try:
        Dpp(rows)
    except ValidationError as e:
        return str(e)
    return None


def _perturbed(walk):
    """Arrays near the walk's: the shared row objects in a new order, or
    one row replaced by a fresh or shared tuple with one part changed."""
    cases = {"plus_minus_one": [], "float": [], "bool": [], "dropped": [], "swapped": [], "fresh": []}
    for i, rows in enumerate(walk):
        if len(rows) >= 3:
            cases["dropped"].append(rows[:1] + rows[2:])
        if len(rows) >= 2:
            cases["swapped"].append((rows[1], rows[0]) + rows[2:])
        if not rows:
            continue
        r = i % len(rows)
        row = rows[r]
        k = i % len(row)

        def put(part, shared):
            new = row[:k] + (part,) + row[k + 1 :]
            if shared:
                new = dpp._SHARED_ROWS.get(new, new)
            return rows[:r] + (new,) + rows[r + 1 :]

        cases["plus_minus_one"] += [put(row[k] + 1, True), put(row[k] - 1, True)]
        cases["float"].append(put(float(row[k]), False))
        cases["bool"].append(put(True, False))
        cases["fresh"].append(put(row[k] + (-1) ** i, False))
    return cases


def test_warm_cache_gives_the_full_loops_errors(monkeypatch):
    walk = [d.rows for d in enumerate_dpps(6)]
    cases = _perturbed(walk)
    warm = {kind: [_error(rows) for rows in arrays] for kind, arrays in cases.items()}
    # a value-equal copy of an accepted array is accepted, by the full loop
    assert all(_error(tuple(map(tuple, rows))) is None for rows in walk)
    # Dpp runs the full loop and neither reads nor writes the confirmations
    # of the walk: emptied, they stay empty, and every array gives the same
    # error
    monkeypatch.setattr(dpp, "_SHARED_ROWS", {})
    monkeypatch.setattr(dpp, "_CONFIRMED", {})
    cold = {kind: [_error(rows) for rows in arrays] for kind, arrays in cases.items()}
    assert not dpp._CONFIRMED
    assert warm == cold
    assert set(warm["float"]) == set(warm["bool"]) == {"parts must be positive integers"}
    # the rows above and below a middle row nest as the rules ask, and a
    # row is longer than the first part of the row below it
    assert set(warm["dropped"]) == {None}
    assert set(warm["swapped"]) == {"row length chain violated"}
    for kind in ("plus_minus_one", "fresh"):
        assert None in warm[kind] and len(set(warm[kind])) >= 3, kind


def _clear_records(monkeypatch):
    """Start from an empty cache of row fillings and no keys confirmed."""
    for name in ("_FILLINGS", "_SHARED_ROWS", "_CONFIRMED"):
        monkeypatch.setattr(dpp, name, {})


def _records():
    """The keys the walk has confirmed, with their rows."""
    return dict(dpp._CONFIRMED)


RULES = ("_check_row_head", "_check_pair", "_check_first_part", "_check_rows")


def _count_rules(monkeypatch):
    """A Counter of the calls of each rule function and of the full loop."""
    calls = Counter()
    for name in RULES:

        def spy(*args, _name=name, _rule=getattr(dpp, name)):
            calls[_name] += 1
            return _rule(*args)

        monkeypatch.setattr(dpp, name, spy)
    return calls


def test_validation_cache_pays_per_key(monkeypatch, capsys):
    _clear_records(monkeypatch)
    calls = _count_rules(monkeypatch)
    assert main(["enumerate", "--kind", "dpp", "--n", "6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 7436
    assert len(dpp._CONFIRMED) == 714
    # the rules ran on each row of a key's fillings once per key, the pair
    # rules on every key but the top rows', and the full loop not at all
    assert calls == {"_check_row_head": 3080, "_check_first_part": 3080, "_check_pair": 2135}
    # only the shared rows of the walk are held
    assert all(dpp._SHARED_ROWS.get(row) is row for rows in dpp._CONFIRMED.values() for row in rows)
    # after the stream, enumerate_dpps runs no rule: its objects are the
    # arrays the walk confirmed
    calls.clear()
    walked = [d.rows for d in enumerate_dpps(6)]
    assert len(walked) == 7436 and not calls
    # Dpp runs the full loop once on each array a caller passes in, and
    # leaves the confirmations of the walk as they were
    records = _records()
    for rows in walked:
        Dpp(rows)
    assert calls["_check_rows"] == 7436
    assert _records() == records


def test_a_confirmation_key_holds_every_field_the_rules_read(monkeypatch):
    # the pair rules read the length of the row above and its parts at
    # offsets 1..length of the new row; each row above here shares the
    # parts that cap the fillings, (), and differs from the first in one
    # field the rules read
    _clear_records(monkeypatch)
    assert dpp._confirmed_fillings(3, 1, 1, (4, 4, 2)) == ((3,),)
    with pytest.raises(ValidationError, match="^row length chain violated$"):
        dpp._confirmed_fillings(3, 1, 1, (4, 4))
    with pytest.raises(ValidationError, match="^parts must decrease strictly down columns$"):
        dpp._confirmed_fillings(3, 1, 1, (4, 3, 2))
    # a refused key is not kept
    assert len(dpp._CONFIRMED) == 1


def test_every_yielded_array_passes_the_full_loop():
    for n in range(1, 7):
        for d in enumerate_dpps(n):
            dpp._check_rows(d.rows)


def test_enumeration_small_orders():
    assert [d.rows for d in enumerate_dpps(1)] == [()]
    assert {d.rows for d in enumerate_dpps(2)} == {(), ((2,),)}
    assert {d.rows for d in enumerate_dpps(3)} == DPP3_EXPECTED
    assert len(dpp_list(5)) == 429
    assert DPPEX in dpp_list(6)


def test_enumeration_order_is_documented_key():
    for n in range(1, 7):
        seq = dpp_list(n)
        key = lambda d: (
            d.row_count,
            tuple(r[0] for r in d.rows),
            tuple(len(r) for r in d.rows),
            d.rows,
        )
        assert [key(d) for d in seq] == sorted(key(d) for d in seq)


def test_enumeration_matches_the_walk_and_sort_reference():
    for n in range(1, 7):
        assert [d.rows for d in dpp_list(n)] == [d.rows for d in walk_and_sort_dpps(n)], n


def test_cached_row_fillings_match_the_reference(monkeypatch):
    # every (first, length, low, capping parts above) the walk asks for,
    # 425 of them at orders 1..6, against the uncached reference, which
    # fills from the top part down, has no low and reads the row above
    # from offset 2 on; from no keys confirmed, since a confirmed key asks
    # the cache for nothing
    _clear_records(monkeypatch)
    seen = set()
    cached = dpp._row_fillings

    def spy(first, length, low, above):
        seen.add((first, length, low, above))
        return cached(first, length, low, above)

    monkeypatch.setattr(dpp, "_row_fillings", spy)
    for n in range(1, 7):
        for _ in dpp._walk(n):
            pass
    assert len(seen) == 425
    for first, length, low, above in seen:
        prev = None if above is None else (None, None) + above
        reference = sorted(r for r in _row_fillings(first, length, prev) if length < 2 or r[1] >= low)
        assert list(cached(first, length, low, above)) == reference, (first, length, low, above)


def test_row_fillings_cache_stays_small(monkeypatch):
    # keyed on the whole row above, the cache held 17,096 keys at order 7
    # and an unshared tuple per cached row, 29,509 of them
    _clear_records(monkeypatch)
    assert sum(1 for _ in dpp._walk(7)) == 218348
    assert len(dpp._FILLINGS) <= 2091
    assert len({id(row) for rows in dpp._FILLINGS.values() for row in rows}) <= 1078
    # the confirmations of the stream: one per key of what the rules read,
    # against 42,238 distinct (row above, row) pairs
    assert len(dpp._CONFIRMED) == 3921


def _slip_in(monkeypatch, spoil, after):
    """Make ``_row_fillings`` hand the walk one bad row: from its first
    call past the after-th with a row above, the first row that spoil
    spoils is replaced by spoil(row, above, low), there and on every later
    call with the same arguments.  Returns {arguments: spoiled rows}."""
    real = dpp._row_fillings
    calls = []
    spoiled = {}

    def fillings(first, length, low, above):
        key = (first, length, low, above)
        rows = real(*key)
        calls.append(key)
        if not spoiled and len(calls) > after and above is not None:
            for i, row in enumerate(rows):
                bad = spoil(row, above, low)
                if bad is not None:
                    spoiled[key] = rows[:i] + (bad,) + rows[i + 1 :]
                    break
        return spoiled.get(key, rows)

    monkeypatch.setattr(dpp, "_row_fillings", fillings)
    return spoiled


def _raise_a_part(row, above, low):
    # the part at offset k >= 1 sits under above[k - 1]; raise it to that
    # part where the part before it still allows
    for k in range(1, len(row)):
        if row[k - 1] >= above[k - 1]:
            return row[:k] + (above[k - 1],) + row[k + 1 :]
    return None


def _lower_a_part(row, above, low):
    # the part at offset 1 sits over the first part of the next row,
    # low - 1; lower it to that part.  The row (first, low, rest) shares
    # the parts the next row's state is keyed on and comes first, so the
    # walk meets the lowered row at a state it built under that row: only
    # the rules run on this new placement find the fault
    if low > 1 and len(row) > 1 and row[1] > low and (len(row) < 3 or row[2] < low):
        return (row[0], low - 1) + row[2:]
    return None


SPOILERS = {
    "raised part": (_raise_a_part, "parts must decrease strictly down columns"),
    # equal to the row it replaces, but another object
    "float part": (lambda row, above, low: row[:-1] + (float(row[-1]),), "parts must be positive integers"),
    # longer than any row of DPP(6)
    "long row": (lambda row, above, low: row + (1,) * 6, "row extends past the row above"),
    "lowered part": (_lower_a_part, "parts must decrease strictly down columns"),
}


@pytest.mark.parametrize("spoiler", SPOILERS)
def test_the_stream_runs_the_rules_on_each_new_placement(monkeypatch, capsys, spoiler):
    assert main(["enumerate", "--kind", "dpp", "--n", "6"]) == 0
    good = capsys.readouterr().out.splitlines()
    valid = [repr(d.rows) for d in enumerate_dpps(6)]
    spoil, message = SPOILERS[spoiler]
    _clear_records(monkeypatch)
    spoiled = _slip_in(monkeypatch, spoil, after=500)
    code, out, err = main(["enumerate", "--kind", "dpp", "--n", "6"]), *capsys.readouterr()
    assert spoiled and (code, err) == (2, f"error: {message}\n")
    # whole blocks were written before the bad row came up, and every line
    # is a line of the stream of valid arrays, so none holds that row
    # where it was slipped in
    lines = out.splitlines()
    assert len(lines) >= ENUMERATE_BLOCK and lines == good[: len(lines)]
    # the same from the line source, which stops at the unit of the walk
    # that holds the bad row
    monkeypatch.undo()
    _clear_records(monkeypatch)
    spoiled = _slip_in(monkeypatch, spoil, after=500)
    made = []
    with pytest.raises(ValidationError, match=f"^{message}$"):
        made.extend(_KIND_LINES["dpp"](6, "json"))
    assert spoiled and len(lines) <= len(made) < len(good) and made == good[: len(made)]
    # the same from enumerate_dpps, which runs no rule of its own: every
    # object it yields is one of the valid family, in its place, by repr,
    # so that a float part equal to an int one shows
    monkeypatch.undo()
    _clear_records(monkeypatch)
    spoiled = _slip_in(monkeypatch, spoil, after=500)
    objects = []
    with pytest.raises(ValidationError, match=f"^{message}$"):
        objects.extend(enumerate_dpps(6))
    assert spoiled and len(objects) == len(made)
    assert [repr(d.rows) for d in objects] == valid[: len(objects)]


@pytest.mark.parametrize("fmt", ("json", "text"))
def test_stream_lines_match_the_block_walk(fmt):
    for n in range(1, 8):
        assert list(_KIND_LINES["dpp"](n, fmt)) == list(block_walk_lines(n, fmt)), n
    first = 50_000
    assert list(islice(_KIND_LINES["dpp"](8, fmt), first)) == list(islice(block_walk_lines(8, fmt), first))


def test_walked_arrays_match_the_block_walk():
    # the same rows, and the same shared row objects
    for n in range(1, 7):
        walked, reference = list(dpp._walk(n)), list(block_walk_rows(n))
        assert [d.rows for d in enumerate_dpps(n)] == walked == reference, n
        assert [tuple(map(id, rows)) for rows in walked] == [tuple(map(id, rows)) for rows in reference]
    first = 50_000
    assert [d.rows for d in islice(enumerate_dpps(8), first)] == list(islice(block_walk_rows(8), first))


@pytest.mark.parametrize("fmt", ("json", "text"))
def test_streaming_dpp7_stays_small(monkeypatch, fmt):
    # the completions of one group of rows at a time, at most 9,792 of
    # them at order 7, and the keys confirmed; about 2.1 MB traced from no
    # keys
    _clear_records(monkeypatch)
    tracemalloc.start()
    try:
        lines = sum(1 for _ in _KIND_LINES["dpp"](7, fmt))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lines == 218348
    assert peak < 3 * 2**20, peak


def test_enumeration_streams(monkeypatch):
    # the first record must not wait for the family: holding DPP(7)
    # (218348 arrays) takes about 100 MB; the CLI's line source is drawn
    # to its first line from a block of the walk
    firsts = (
        lambda: next(iter(enumerate_dpps(7))),
        lambda: list(islice(_KIND_LINES["dpp"](7, "json"), 2)),
    )
    for draw, expected in zip(firsts, (Dpp(()), ["[]", "[[2]]"])):
        _clear_records(monkeypatch)
        tracemalloc.start()
        try:
            first = draw()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == expected
        assert peak < 2 * 2**20, peak


def test_stats_worked_example():
    s = dpp_stats(DPPEX, 6)
    assert (s.nu, s.mu, s.rho) == (7, 2, 3)
    assert s.parts_sum == 37
    assert s.row_count == 3


def test_stats_empty_and_single_row():
    s = dpp_stats(Dpp(()), 4)
    assert (s.nu, s.mu, s.rho, s.parts_sum, s.row_count) == (0, 0, 0, 0, 0)
    s = dpp_stats(Dpp(((3, 1),)), 3)
    assert (s.nu, s.mu, s.rho) == (1, 1, 1)


def test_stats_rejects_oversized_part():
    with pytest.raises(ValidationError):
        dpp_stats(Dpp(((4, 1),)), 3)


def test_z_brute_small():
    assert poly_str(z_dpp_brute(2)) == "1 + x*z"
    assert (
        poly_str(z_dpp_brute(3)) == "1 + x + x*z + x^2*z + x*y*z + x^2*z^2 + x^3*z^2"
    )
    assert poly_str(z_dpp_brute_w(2)) == "w + x*z*w^2"


def test_z_brute_matches_the_per_object_reference():
    for n in range(1, 7):
        assert z_dpp_brute_wq(n) == per_object_z_dpp_wq(n), n


def test_z_brute_at_order_7_is_unchanged():
    text = poly_str(z_dpp_brute(7)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == Z7_SHA256


def test_z_brute_matches_the_determinant_at_order_8():
    assert z_dpp_brute(8) == genfunc_det(8)


def test_z_brute_pays_per_row_state_not_per_array(monkeypatch):
    # the sum pays per distinct row above less its first part, not per
    # array: each of the 792 such tails and the top (None) is asked for
    # its steps once to count its readers and once to be summed
    expected = z_dpp_brute_wq(7)
    expanded = Counter()
    next_rows = dpp._next_rows

    def spy(tail, n):
        expanded[tail] += 1
        return next_rows(tail, n)

    monkeypatch.setattr(dpp, "_next_rows", spy)
    assert z_dpp_brute_wq.__wrapped__(7) == expected
    assert len(expanded) == 793
    assert None in expanded
    assert set(expanded.values()) == {2}


def test_z_brute_weighs_each_step_once(monkeypatch):
    # the pass that counts readers takes the next states alone, so a
    # row's weight is asked for once per step, when the step is summed
    expected = z_dpp_brute_wq(7)
    rows, weights = Counter(), Counter()
    next_rows, row_weight = dpp._next_rows, dpp._row_weight

    def rows_spy(tail, n):
        for row in next_rows(tail, n):
            rows[row, tail] += 1
            yield row

    def weight_spy(row, n):
        weights[row] += 1
        return row_weight(row, n)

    monkeypatch.setattr(dpp, "_next_rows", rows_spy)
    monkeypatch.setattr(dpp, "_row_weight", weight_spy)
    assert z_dpp_brute_wq.__wrapped__(7) == expected
    assert set(rows.values()) == {2}
    assert weights == Counter(row for row, _ in rows)


def test_z_brute_limit():
    with pytest.raises(ResourceLimitError):
        z_dpp_brute(DPP_SUM_MAX_N + 1)


def test_q_sum_small():
    assert poly_str(q_sum_of_parts(1)) == "1"
    assert poly_str(q_sum_of_parts(2)) == "1 + q^2"
    # multiset of part sums over order 3: {0, 8, 2, 6, 3, 5, 4}
    sums = sorted(d.parts_sum() for d in dpp_list(3))
    assert sums == [0, 2, 3, 4, 5, 6, 8]


def test_boundary_relation_small():
    for n in (2, 3, 4):
        assert z_dpp_brute(n).substitute(2, 0) == z_dpp_brute(n - 1).substitute(2, 1)


def test_json_roundtrip():
    # the JSON text read back through the validating constructor
    for n in range(1, 6):
        for d in dpp_list(n):
            assert Dpp(tuple(map(tuple, json.loads(json.dumps(d.rows))))) == d
