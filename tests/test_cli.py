import io
import json
import os
import re
import sys
import threading
from itertools import islice

import pytest

import asmdpp.asm
import asmdpp.dpp
import asmdpp.paths
import asmdpp.sixvertex
from asmdpp.asm import Asm, asm_row_word, asm_to_json, enumerate_asms
from asmdpp.cli import _KIND_FORMS, ENUMERATE_BLOCK, KINDS, main
from asmdpp.dpp import dpp_to_json
from asmdpp.formulas import asm_total
from asmdpp.paths import enumerate_nilp_families, nilp_to_json
from asmdpp.sixvertex import SixVertexConfig, config_to_json, enumerate_configs

Z3 = "1 + x + x*z + x^2*z + x*y*z + x^2*z^2 + x^3*z^2"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_asm_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--kind", "asm", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    mats = [Asm(tuple(map(tuple, json.loads(line)))) for line in lines]
    assert mats == list(enumerate_asms(3))


def test_enumerate_dpp_single_record(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--kind", "dpp", "--n", "1")
    assert code == 0
    assert out.strip().splitlines() == ["[]"]


def test_enumerate_counts_match_product(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--kind", "asm", "--n", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 429


def test_enumerate_text_and_limit(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--kind", "asm", "--n", "3", "--format", "text", "--limit", "2"
    )
    assert code == 0
    assert out.splitlines() == [asm_row_word(a) for a in islice(enumerate_asms(3), 2)]


def test_enumerate_other_kinds_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--kind", "sixvertex", "--n", "3")
    assert code == 0
    configs = [SixVertexConfig(tuple(map(tuple, json.loads(line)))) for line in out.splitlines()]
    assert configs == list(enumerate_configs(3))
    code, out, _ = run_cli(capsys, "enumerate", "--kind", "nilp", "--n", "3")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [nilp_to_json(f) for f in enumerate_nilp_families(3)]
    assert len(records) == 7


@pytest.mark.parametrize("kind", ("asm", "dpp", "sixvertex", "nilp"))
def test_enumerate_lines_are_distinct(capsys, kind):
    # distinct objects print distinct lines, in either format
    for n in range(1, 6):
        for fmt in ("json", "text"):
            code, out, _ = run_cli(
                capsys, "enumerate", "--kind", kind, "--n", str(n), "--format", fmt
            )
            assert code == 0
            lines = out.splitlines()
            assert len(set(lines)) == len(lines) == asm_total(n), (n, fmt)


# the JSON form of each kind, which every JSON line must dump to
TO_JSON = {
    "asm": asm_to_json,
    "dpp": dpp_to_json,
    "sixvertex": config_to_json,
    "nilp": nilp_to_json,
}


def _one_write_per_record(kind, n, fmt, limit=None):
    """The stream as it was written before the blocks, one write per
    record, with each JSON line dumped from the kind's JSON form."""
    enumerator, _, text_line = _KIND_FORMS[kind]
    if fmt == "text":
        form = text_line
    else:
        form = lambda obj: json.dumps(TO_JSON[kind](obj), separators=(",", ":"))
    return "".join(form(obj) + "\n" for obj in islice(enumerator(n), limit))


@pytest.mark.parametrize("fmt", ("json", "text"))
@pytest.mark.parametrize("kind", KINDS)
def test_enumerate_blocks_match_one_write_per_record(capsys, kind, fmt):
    for n in range(1, 6):
        code, out, _ = run_cli(capsys, "enumerate", "--kind", kind, "--n", str(n), "--format", fmt)
        assert code == 0
        assert out == _one_write_per_record(kind, n, fmt), n
    # around the block size: an empty stream, one record, and one block
    # short, exact and over
    for limit in (0, 1, ENUMERATE_BLOCK - 1, ENUMERATE_BLOCK, ENUMERATE_BLOCK + 1):
        code, out, _ = run_cli(
            capsys, "enumerate", "--kind", kind, "--n", "6", "--format", fmt, "--limit", str(limit)
        )
        assert code == 0
        assert out == _one_write_per_record(kind, 6, fmt, limit), limit


def test_enumerate_writes_whole_blocks(monkeypatch):
    class CountingOut(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    out = CountingOut()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["enumerate", "--kind", "dpp", "--n", "6"]) == 0
    assert out.writes <= -(-asm_total(6) // ENUMERATE_BLOCK) == 15
    assert out.getvalue() == _one_write_per_record("dpp", 6, "json")


# the class each enumerator builds once per object it yields
ENUMERATED_CLASS = {
    "asm": (asmdpp.asm, "Asm"),
    "dpp": (asmdpp.dpp, "Dpp"),
    "sixvertex": (asmdpp.sixvertex, "SixVertexConfig"),
    "nilp": (asmdpp.paths, "NilpSet"),
}


@pytest.mark.parametrize("fmt", ("json", "text"))
@pytest.mark.parametrize("kind", sorted(ENUMERATED_CLASS))
def test_enumerate_limit_draws_exactly_limit_objects(capsys, monkeypatch, kind, fmt):
    module, name = ENUMERATED_CLASS[kind]
    drawn = []

    class Counted(getattr(module, name)):
        def __post_init__(self):
            drawn.append(self)
            super().__post_init__()

    monkeypatch.setattr(module, name, Counted)
    for limit in (0, 1, 3):
        drawn.clear()
        code, out, _ = run_cli(
            capsys, "enumerate", "--kind", kind, "--n", "5", "--format", fmt, "--limit", str(limit)
        )
        assert code == 0
        assert len(out.splitlines()) == limit
        assert len(drawn) == limit, limit


def test_enumerate_bad_kind_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--kind", "nope", "--n", "2"])
    assert exc.value.code == 2


def test_enumerate_bad_n_is_usage_error(capsys, tmp_path):
    # --n below 1 goes through the one order rule, like verify --max-n 0
    target = tmp_path / "out.txt"
    target.write_text("earlier output\n")
    for argv in (
        ["enumerate", "--kind", "asm", "--n", "0"],
        ["enumerate", "--kind", "dpp", "--n", "-3", "--output", str(target)],
        ["genfunc", "--n", "0"],
        ["genfunc", "--n", "0", "--output", str(target)],
        ["table", "--n", "0"],
        ["matrix", "--name", "M_BAR", "--n", "0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: order must be at least 1\n"), argv
    assert target.read_text() == "earlier output\n"


def test_enumerate_negative_limit_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--kind", "asm", "--n", "3", "--limit", "-2"])
    assert exc.value.code == 2


def test_enumerate_dpp_past_brute_force_limit_streams(capsys):
    # the first DPP(8) record must not wait for the whole family
    code, out, _ = run_cli(capsys, "enumerate", "--kind", "dpp", "--n", "8", "--limit", "1")
    assert code == 0
    assert out.splitlines() == ["[]"]


def test_enumerate_asm_past_brute_force_limit_streams(capsys):
    # the walk builds row tables only for the column states it visits
    code, out, _ = run_cli(capsys, "enumerate", "--kind", "asm", "--n", "12", "--limit", "1")
    assert code == 0
    anti_identity = [[int(i + j == 11) for j in range(12)] for i in range(12)]
    assert [json.loads(line) for line in out.splitlines()] == [anti_identity]


def test_env_cap_enforced(capsys, monkeypatch):
    monkeypatch.setenv("ASMDPP_MAX_N", "3")
    code, out, err = run_cli(capsys, "enumerate", "--kind", "asm", "--n", "4")
    assert code == 2
    assert "ASMDPP_MAX_N" in err


def test_cache_option_is_gone(capsys):
    # enumerate has no record cache; every run enumerates the family
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--kind", "dpp", "--n", "1", "--cache", "records"])
    assert exc.value.code == 2


def test_genfunc_det_string(capsys):
    code, out, _ = run_cli(capsys, "genfunc", "--n", "3", "--method", "det")
    assert code == 0
    assert out.strip() == Z3
    code, out, _ = run_cli(capsys, "genfunc", "--n", "1")
    assert code == 0
    assert out.strip() == "1"


def test_genfunc_methods_agree(capsys):
    outputs = []
    for method in ("det", "brute-asm", "brute-dpp"):
        code, out, _ = run_cli(capsys, "genfunc", "--n", "4", "--method", method)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_genfunc_json_roundtrip(capsys):
    from asmdpp.polynomial import MultiPoly
    from asmdpp.dpp import z_dpp_brute_w

    code, out, _ = run_cli(capsys, "genfunc", "--n", "3", "--method", "det-w", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert MultiPoly(doc["terms"]) == z_dpp_brute_w(3)


def test_table_contains_known_cell(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,m,k,asm_count,dpp_count,equal"
    assert "3,1,2,10,10,true" in lines
    assert all(line.endswith("true") for line in lines[1:])


def test_table_n3_has_seven_singleton_cells(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "3")
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 7
    assert all(line.split(",")[3] == "1" for line in lines)


def test_table_n4_has_a_multiple_cell(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "4")
    lines = out.strip().splitlines()[1:]
    assert any(int(line.split(",")[3]) >= 2 for line in lines)


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "boundary", "--max-n", "4"
    )
    assert code == 0
    assert "OK" in out.splitlines()[-1]


def test_verify_reports_each_suite_on_stderr(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "boundary", "--max-n", "3")
    assert code == 0
    lines = err.splitlines()
    assert re.fullmatch(r"boundary: 2 checks, 0 failed, \d+\.\d\ds", lines[0]), lines
    assert lines[1].startswith("verify finished in ")


def test_verify_deterministic_output(capsys):
    args = ("verify", "--suite", "ik", "--max-n", "3", "--seed", "42")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "theorem1", "--max-n", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["suites"][0]["suite"] == "theorem1"
    assert all("elapsed_s" not in c for c in doc["suites"][0]["checks"])
    assert all("error" not in c for c in doc["suites"][0]["checks"])


def test_verify_failing_check_says_why(capsys, monkeypatch):
    # a raising check carries "<Type>: <message>"; a false identity and a
    # passing check carry no error
    from asmdpp import matrices, verify

    def broken_genfunc_det(n):
        raise TypeError(f"no determinant at n={n}")

    monkeypatch.setattr(matrices, "genfunc_det", broken_genfunc_det)
    monkeypatch.setattr(verify, "Z3_STRING", "not the polynomial")
    args = ("verify", "--suite", "theorem1", "--max-n", "3")
    code, out, _ = run_cli(capsys, *args)
    assert code == 1
    assert out.splitlines() == [
        "FAIL theorem1.canonical_string [n=3]",
        "FAIL theorem1.genfunc_triple_equal [n=1]",
        "    error: TypeError: no determinant at n=1",
        "FAIL theorem1.genfunc_triple_equal [n=2]",
        "    error: TypeError: no determinant at n=2",
        "FAIL theorem1.genfunc_triple_equal [n=3]",
        "    error: TypeError: no determinant at n=3",
        "FAIL: 0/4 checks passed",
    ]
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 1
    checks = json.loads(out)["suites"][0]["checks"]
    assert [c.get("error") for c in checks] == [
        None,
        "TypeError: no determinant at n=1",
        "TypeError: no determinant at n=2",
        "TypeError: no determinant at n=3",
    ]


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_matrix_dump(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--name", "M_BAR", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2 and doc["refined"] is True
    # entry (0,0) is the constant 1
    assert doc["entries"][0][0] == [[[0, 0, 0, 0, 0], 1]]


def test_matrix_honours_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("ASMDPP_MAX_N", "3")
    code, out, err = run_cli(capsys, "matrix", "--name", "S", "--n", "5")
    assert code == 2
    assert out == ""
    assert "ASMDPP_MAX_N" in err


def test_matrix_past_build_limit_is_refused(capsys):
    code, out, err = run_cli(capsys, "matrix", "--name", "M_ASM", "--n", "240")
    assert code == 2
    assert out == ""
    assert "capped at order 32" in err


def test_table_past_brute_force_limit_is_refused(capsys):
    code, out, err = run_cli(capsys, "table", "--n", "8")
    assert code == 2
    assert out == ""
    assert "capped at order 7" in err


def test_output_file(capsys, tmp_path):
    target = tmp_path / "z3.txt"
    code = main(["genfunc", "--n", "3", "--output", str(target)])
    assert code == 0
    assert target.read_text().strip() == Z3


def test_refused_command_keeps_the_output_file(capsys, tmp_path):
    target = tmp_path / "f"
    target.write_text("earlier output\n")
    code, out, err = run_cli(capsys, "genfunc", "--n", "13", "--output", str(target))
    assert code == 2
    assert "determinant capped at order 12" in err
    assert target.read_text() == "earlier output\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


def test_output_to_a_pipe_is_written_through(capsys, tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    code = main(["genfunc", "--n", "3", "--output", str(fifo)])
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert code == 0
    assert got == [Z3 + "\n"]


def test_output_through_a_symlink_updates_its_target(capsys, tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("earlier output\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert main(["genfunc", "--n", "3", "--output", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text() == Z3 + "\n"


def test_output_to_a_directory_is_a_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "genfunc", "--n", "2", "--output", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_output_in_a_missing_directory_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "f"
    code, out, err = run_cli(capsys, "genfunc", "--n", "2", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert ".tmp" not in err
    assert list(tmp_path.iterdir()) == []
