import errno
import io
import json
import os
import re
import subprocess
import sys
import threading
from itertools import islice
from pathlib import Path

import pytest

import asmdpp.asm
import asmdpp.cli
import asmdpp.dpp
import asmdpp.paths
import asmdpp.sixvertex
from asmdpp.asm import Asm, asm_row_word, enumerate_asms
from asmdpp.cli import _ROUTES, ENUMERATE_BLOCK, KINDS, _config_text, _nilp_text, _row_json, main
from asmdpp.dpp import enumerate_dpps
from asmdpp.formulas import asm_total
from asmdpp.limits import DPP_SUM_MAX_N
from asmdpp.paths import enumerate_nilp_families, nilp_to_json
from asmdpp.sixvertex import SixVertexConfig, enumerate_configs

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


# the JSON form of each kind, which every JSON line must dump to: the
# grid of rows, or a path family's nilp_to_json
TO_JSON = {
    "asm": lambda a: a.rows,
    "dpp": lambda d: d.rows,
    "sixvertex": lambda c: c.types,
    "nilp": nilp_to_json,
}

# the enumerator and the text line of each kind; the DPP stream makes its
# lines from blocks of rows, not from Dpp objects, so its text form is
# written out here
REFERENCE = {
    "asm": (enumerate_asms, asm_row_word),
    "dpp": (enumerate_dpps, lambda d: " / ".join(" ".join(map(str, row)) for row in d.rows) or "empty"),
    "sixvertex": (enumerate_configs, _config_text),
    "nilp": (enumerate_nilp_families, _nilp_text),
}


def _one_write_per_record(kind, n, fmt, limit=None):
    """The stream as it was written before the blocks, one write per
    record, with each JSON line dumped from the kind's JSON form."""
    enumerator, text_line = REFERENCE[kind]
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


@pytest.mark.parametrize("kind, bound", (("asm", 32), ("sixvertex", 364), ("dpp", 286)))
def test_row_text_is_cached_once_per_distinct_row(capsys, kind, bound):
    _row_json.cache_clear()
    code, out, _ = run_cli(capsys, "enumerate", "--kind", kind, "--n", "6")
    assert code == 0 and len(out.splitlines()) == asm_total(6)
    assert _row_json.cache_info().currsize <= bound


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


# where each kind's stream makes its objects: the class whose constructor
# runs once per object, or the private constructor through which an
# enumerator hands out the objects its walk confirmed (a module, the
# class and the counted method); the DPP stream builds none
ENUMERATED_CLASS = {
    "asm": (asmdpp.asm, "Asm", "_confirmed"),
    "dpp": None,
    "sixvertex": (asmdpp.sixvertex, "SixVertexConfig", "_confirmed"),
    "nilp": (asmdpp.paths, "NilpSet", "__post_init__"),
}


def _count_objects(monkeypatch, kind, drawn, units):
    """Record each object the stream of kind makes in drawn and, for the
    kinds made from the matrix walk, each matrix it draws from the walk
    in units."""
    module, name, method = ENUMERATED_CLASS[kind]
    cls = getattr(module, name)
    if method == "__post_init__":

        class Counted(cls):
            def __post_init__(self):
                drawn.append(self)
                super().__post_init__()

        monkeypatch.setattr(module, name, Counted)
        return
    made = getattr(cls, method)

    def counted(_, *args):
        obj = made(*args)
        drawn.append(obj)
        return obj

    monkeypatch.setattr(cls, method, classmethod(counted))
    walk = module._walk

    def counted_walk(*args):
        for unit in walk(*args):
            units.append(unit)
            yield unit

    monkeypatch.setattr(module, "_walk", counted_walk)


def _count_dpp_draws(monkeypatch, drawn, units):
    """Record each line the DPP line source makes in drawn, and each unit
    (a top row's prefix and the completions below it) it draws from the
    walk in units."""
    source, walk = asmdpp.cli._KIND_LINES["dpp"], asmdpp.cli.dpp_walk

    def counted_source(n, fmt):
        for line in source(n, fmt):
            drawn.append(line)
            yield line

    def counted_walk(*args):
        for unit in walk(*args):
            units.append(unit)
            yield unit

    monkeypatch.setitem(asmdpp.cli._KIND_LINES, "dpp", counted_source)
    monkeypatch.setattr(asmdpp.cli, "dpp_walk", counted_walk)


@pytest.mark.parametrize("fmt", ("json", "text"))
@pytest.mark.parametrize("kind", sorted(ENUMERATED_CLASS))
def test_enumerate_limit_draws_exactly_limit_objects(capsys, monkeypatch, kind, fmt):
    drawn, units = [], []
    if kind == "dpp":
        _count_dpp_draws(monkeypatch, drawn, units)
    else:
        _count_objects(monkeypatch, kind, drawn, units)
    for limit in (0, 1, 3, 100):
        drawn.clear()
        units.clear()
        code, out, _ = run_cli(
            capsys, "enumerate", "--kind", kind, "--n", "5", "--format", fmt, "--limit", str(limit)
        )
        assert code == 0
        assert len(out.splitlines()) == limit
        assert len(drawn) == limit, limit
        if kind == "dpp":
            # the walk is drawn up to the unit that holds the limit-th
            # array and no further; the empty array comes first, from no unit
            sizes = [len(completions) for _, completions in units]
            assert 1 + sum(sizes[:-1]) < limit <= 1 + sum(sizes) if units else limit <= 1, limit
        elif kind != "nilp":
            # one matrix of the walk per object, and none past the last
            assert len(units) == limit, limit


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
    # the table runs to the lower of the two sums' caps, the DPP one
    code, out, err = run_cli(capsys, "table", "--n", str(DPP_SUM_MAX_N + 1))
    assert code == 2
    assert out == ""
    assert err == f"error: DPP step-table sum capped at order {DPP_SUM_MAX_N}\n"


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


def test_empty_output_is_a_usage_error(capsys, monkeypatch):
    # refused before the route runs, and nothing goes to stdout
    monkeypatch.setitem(_ROUTES, "det", lambda n: pytest.fail("computed"))
    code, out, err = run_cli(capsys, "genfunc", "--n", "2", "--output", "")
    assert (code, out) == (2, "")
    assert err == "error: --output must name a file\n"


def test_output_in_a_missing_directory_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "f"
    code, out, err = run_cli(capsys, "genfunc", "--n", "2", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


# every command refused before any output: the order rule, a route cap,
# the environment cap and verify's --max-n
REFUSED = (
    (("genfunc", "--n", "13"), {}),
    (("genfunc", "--n", "0"), {}),
    (("table", "--n", str(DPP_SUM_MAX_N + 1)), {}),
    (("matrix", "--name", "M_BAR", "--n", "33"), {}),
    (("enumerate", "--kind", "asm", "--n", "0"), {}),
    (("verify", "--max-n", "0"), {}),
    (("enumerate", "--kind", "asm", "--n", "4"), {"ASMDPP_MAX_N": "3"}),
)
REFUSED_IDS = [
    " ".join(argv) + "".join(f" {k}={v}" for k, v in env.items()) for argv, env in REFUSED
]


def _refusal(capsys, monkeypatch, argv, env):
    """The stderr of a refused command run without --output."""
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, ""), argv
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("argv, env", REFUSED, ids=REFUSED_IDS)
def test_refused_command_never_opens_a_fifo(capsys, monkeypatch, tmp_path, argv, env):
    # a FIFO with no reader blocks open() for writing; a refused command
    # must exit 2 at once, without opening it
    expected = _refusal(capsys, monkeypatch, argv, env)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    codes = []
    runner = threading.Thread(
        target=lambda: codes.append(main([*argv, "--output", str(fifo)])), daemon=True
    )
    runner.start()
    runner.join(timeout=1)
    hung = runner.is_alive()
    if hung:
        # a reader lets the blocked open() return, so the thread can end
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        runner.join(timeout=10)
        os.close(reader)
    assert not hung, "refused command blocked on the FIFO"
    assert codes == [2]
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", expected)


@pytest.mark.parametrize("argv, env", REFUSED, ids=REFUSED_IDS)
def test_refused_command_never_opens_a_regular_file(capsys, monkeypatch, tmp_path, argv, env):
    expected = _refusal(capsys, monkeypatch, argv, env)
    target = tmp_path / "report.txt"
    target.write_text("earlier output\n")
    opened = []
    real_open = Path.open

    def recording_open(self, *args, **kwargs):
        opened.append(self)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", recording_open)
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert (code, out, err) == (2, "", expected)
    # neither FILE nor a FILE.<pid>.tmp beside it was ever opened
    assert [p for p in opened if p.name.startswith(target.name)] == []
    monkeypatch.undo()
    assert target.read_text() == "earlier output\n"
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def _disk_full(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


WRITING = (("genfunc", "--n", "3"), ("enumerate", "--kind", "dpp", "--n", "6"))


@pytest.mark.parametrize("argv", WRITING, ids=" ".join)
def test_failed_write_to_a_file_exits_2_and_keeps_the_file(capsys, monkeypatch, tmp_path, argv):
    target = tmp_path / "report.txt"
    target.write_text("earlier output\n")
    real_open = Path.open

    def full_open(self, *args, **kwargs):
        fh = real_open(self, *args, **kwargs)
        fh.write = _disk_full
        return fh

    monkeypatch.setattr(Path, "open", full_open)
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    monkeypatch.undo()
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No space left on device\n"
    assert target.read_text() == "earlier output\n"
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


@pytest.mark.parametrize("argv", WRITING, ids=" ".join)
def test_failed_write_to_stdout_exits_2(capsys, monkeypatch, argv):
    class FullStdout(io.StringIO):
        write = staticmethod(_disk_full)

    monkeypatch.setattr(sys, "stdout", FullStdout())
    code = main(list(argv))
    assert code == 2
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


def _run_child(*argv, **kwargs):
    """Run the command line in a child process on this package's source."""
    src = str(Path(asmdpp.asm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("ASMDPP_MAX_N", None)
    return subprocess.run(
        [sys.executable, "-m", "asmdpp", *argv],
        env=env, stderr=subprocess.PIPE, timeout=60, **kwargs,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_device_exits_2():
    with open("/dev/full", "w") as full:
        proc = _run_child("genfunc", "--n", "3", stdout=full)
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write stdout: No space left on device\n"
    proc = _run_child(
        "enumerate", "--kind", "asm", "--n", "3", "--output", "/dev/full", stdout=subprocess.PIPE
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: cannot write /dev/full: No space left on device\n"


def test_a_closed_pipe_exits_0_quietly():
    # the reader keeps one line, as `| head -1` does, and closes the pipe
    with subprocess.Popen(
        [sys.executable, "-c", "import sys; sys.stdout.write(sys.stdin.readline())"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    ) as reader:
        child = _run_child("enumerate", "--kind", "asm", "--n", "7", stdout=reader.stdin)
        reader.stdin.close()
        first = reader.stdout.read()
    assert (child.returncode, child.stderr) == (0, b"")
    anti_identity = [[int(i + j == 6) for j in range(7)] for i in range(7)]
    assert json.loads(first) == anti_identity


def test_genfunc_help_lists_every_route(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["genfunc", "--help"])
    assert exc.value.code == 0
    assert "{det,brute-asm,brute-dpp,det-w}" in capsys.readouterr().out
