"""Command-line front end.

Subcommands:

  enumerate  stream one family in canonical order (json or text lines);
             an ASM's or a six-vertex configuration's JSON line is its
             grid of rows, joined from the cached compact json.dumps text
             of each distinct row, of an object from the matrix walk,
             whose rules ran once per distinct step (vector, row); a
             path family's is compact json.dumps
             of nilp_to_json; a DPP's line, in either format, is the
             text of its top row and then a completion below it, built
             by the walk (dpp.dpp_walk) from cached row text once per
             state of each group of rows, with the rules run once per
             key of what they read (dpp._confirmed_fillings: 3,921 keys
             at n = 7) and no Dpp object built
  genfunc    print a generating function: a determinant (det, det-w)
             or a sum over one family's step tables (brute-asm,
             brute-dpp)
  table      CSV of per-(p, m, k) counts for both families
  verify     run the named verification suites (exit 1 on any failure)
  matrix     dump one of the named matrices as JSON term lists

Each command only computes: it returns its output lines and exit code,
and main alone refuses and writes.  Exit codes: 0 success, 1
verification failure, 2 usage error.  Every order goes through the one
rule limits.check_order: an order below 1, verify's --max-n included,
exits with 2, and so does an order past a documented cap, with "error:
<what> capped at order <cap>".  The environment variable ASMDPP_MAX_N
caps the order accepted by every command that takes --n in the same way
("ASMDPP_MAX_N capped at order <cap>") and lowers verify's --max-n.
main draws the first 512-line block before it opens the output, so a
refused command never opens --output, and writes one block per write.
--output FILE replaces a regular FILE only when every line is written;
a device or a pipe is written through.  A failed open or write exits
with 2: "error: cannot write <FILE or stdout>: <reason>"; an empty
--output is refused with 2 before any work.
Outputs are byte-deterministic given the command line and seed; verify
prints timing only to stderr (one line per suite: checks, failures and
seconds) or under --timings (json).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from functools import cache, partial
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .asm import asm_row_word, enumerate_asms, z_asm_brute
from .dpp import dpp_walk, z_dpp_brute
from .errors import AsmDppError
from .limits import ASM_SUM_MAX_N, DPP_SUM_MAX_N, MAX_N_ENV_VAR, check_order
from .matrices import FAMILY_NAMES, build, genfunc_det, matrix_to_json
from .paths import NilpSet, enumerate_nilp_families, nilp_to_json
from .polynomial import VAR_NAMES, poly_str
from .sixvertex import SixVertexConfig, enumerate_configs

# genfunc --method -> the route that computes the polynomial
_ROUTES = {
    "det": genfunc_det,
    "brute-asm": z_asm_brute,
    "brute-dpp": z_dpp_brute,
    "det-w": partial(genfunc_det, w_refined=True),
}

# lines per write of every command's output
ENUMERATE_BLOCK = 512


def _env_cap() -> int | None:
    raw = os.environ.get(MAX_N_ENV_VAR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise AsmDppError(f"{MAX_N_ENV_VAR} must be an integer, got {raw!r}")


def _config_text(c: SixVertexConfig) -> str:
    return " / ".join(" ".join(row) for row in c.types)


def _nilp_text(fam: NilpSet) -> str:
    return " / ".join("".join(p.steps) or "-" for p in fam.paths)


@cache
def _row_json(row: tuple) -> str:
    # one entry per distinct row (at order 7: 64 ASM rows, 1,093
    # six-vertex rows, 1,078 DPP rows)
    return json.dumps(row, separators=(",", ":"))


def _grid_json(rows: tuple[tuple, ...]) -> str:
    """Compact json.dumps of a grid of rows, joined from the cached text
    of each row."""
    return "[" + ",".join(map(_row_json, rows)) + "]"


@cache
def _row_text(row: tuple[int, ...]) -> str:
    # the text of one DPP row; one entry per distinct row
    return " ".join(map(str, row))


# format -> a DPP stream's line for the empty array, the text of a row
# with rows below it, of a last row, and the text that opens a line
_DPP_FORMS = {
    "json": ("[]", lambda row: _row_json(row) + ",", lambda row: _row_json(row) + "]", "["),
    "text": ("empty", lambda row: _row_text(row) + " / ", _row_text, ""),
}


def _dpp_lines(n: int, fmt: str) -> Iterator[str]:
    """The lines of every element of DPP(n), from the units of the walk:
    the text of a unit's top row, then each of the completions below it,
    built from cached row text once per state of the walk."""
    empty, head, last, open_ = _DPP_FORMS[fmt]
    yield empty
    for prefix, done in dpp_walk(n, head, last, open_):
        yield from map(prefix.__add__, done)


def _object_lines(enumerator, json_line, text_line):
    """The line source of a kind whose enumerator yields one object per
    line; both lines are made straight from the enumerated objects, which
    the enumerator has already confirmed."""
    return lambda n, fmt: map(json_line if fmt == "json" else text_line, enumerator(n))


# kind -> its line source, lines(n, format) in canonical order
_KIND_LINES = {
    "asm": _object_lines(enumerate_asms, lambda a: _grid_json(a.rows), asm_row_word),
    "dpp": _dpp_lines,
    "sixvertex": _object_lines(enumerate_configs, lambda c: _grid_json(c.types), _config_text),
    "nilp": _object_lines(
        enumerate_nilp_families,
        lambda f: json.dumps(nilp_to_json(f), separators=(",", ":")),
        _nilp_text,
    ),
}

KINDS = tuple(_KIND_LINES)


@contextmanager
def _output(name: str | None) -> Iterator[TextIO]:
    """Where the lines go: stdout; a device or a pipe, written through; or
    a regular FILE, written as <FILE>.<pid>.tmp and renamed onto FILE only
    when every line is written, so a failed write leaves FILE as it was.
    An OSError from opening, writing or flushing becomes a usage error
    that names the FILE the user gave, or stdout."""
    try:
        if name is None:
            yield sys.stdout
            sys.stdout.flush()
        elif (path := Path(name)).exists() and not path.is_file():
            with path.open("w") as out:
                yield out
        else:
            path = path.resolve()
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            try:
                with tmp.open("w") as out:
                    yield out
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise AsmDppError(f"cannot write {name or 'stdout'}: {exc.strerror or exc}") from None


def cmd_enumerate(args: argparse.Namespace) -> tuple[Iterable[str], int]:
    lines = _KIND_LINES[args.kind](args.n, args.format)
    # islice stops after the limit-th line without drawing another one
    return islice(lines, args.limit), 0


def cmd_genfunc(args: argparse.Namespace) -> tuple[Iterable[str], int]:
    poly = _ROUTES[args.method](args.n)
    if args.format == "json":
        doc = {
            "n": args.n,
            "method": args.method,
            "vars": VAR_NAMES,
            "terms": poly.to_term_list(),
        }
        return [json.dumps(doc, separators=(",", ":"))], 0
    return [poly_str(poly)], 0


def cmd_table(args: argparse.Namespace) -> tuple[Iterable[str], int]:
    # coefficients are keyed by (p, m, k, 0, 0), so they sort as (p, m, k);
    # the DPP sum has the lower cap, so an order past it is refused first
    dpp_cells = z_dpp_brute(args.n).terms
    asm_cells = z_asm_brute(args.n).terms
    lines = ["p,m,k,asm_count,dpp_count,equal"]
    for key in sorted(set(asm_cells) | set(dpp_cells)):
        ac = asm_cells.get(key, 0)
        dc = dpp_cells.get(key, 0)
        flag = "true" if ac == dc else "false"
        lines.append(f"{key[0]},{key[1]},{key[2]},{ac},{dc},{flag}")
    return lines, 0


def cmd_verify(args: argparse.Namespace) -> tuple[Iterable[str], int]:
    # imported here: the suites pull in formulas and oscillating, which no
    # other command needs at start-up
    from . import verify as verify_mod

    names = list(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    if args.suite != "all" and args.suite not in verify_mod.SUITES:
        raise AsmDppError(
            f"unknown suite {args.suite!r}; choose from {sorted(verify_mod.SUITES)} or 'all'"
        )
    started = time.perf_counter()
    reports = []
    failing: list[str] = []
    for name in names:
        suite_started = time.perf_counter()
        report = verify_mod.run_suite(name, args.max_n, args.seed)
        failed = [c for c in report.checks if not c.passed]
        print(
            f"{name}: {len(report.checks)} checks, {len(failed)} failed, "
            f"{time.perf_counter() - suite_started:.2f}s",
            file=sys.stderr,
        )
        reports.append(report)
        failing += (f"{report.suite}.{c.name} {c.params}" for c in failed)
    if args.format == "json":
        doc = {
            "passed": not failing,
            "seed": args.seed,
            "suites": [r.to_json(timings=args.timings) for r in reports],
        }
        lines = [json.dumps(doc, indent=2, sort_keys=True)]
    else:
        lines = [line for r in reports for line in r.text_lines()]
        total = sum(len(r.checks) for r in reports)
        lines.append(f"{'FAIL' if failing else 'OK'}: {total - len(failing)}/{total} checks passed")
    print(
        f"verify finished in {time.perf_counter() - started:.2f}s",
        file=sys.stderr,
    )
    if failing:
        print("failing checks: " + "; ".join(failing), file=sys.stderr)
    return lines, 1 if failing else 0


def cmd_matrix(args: argparse.Namespace) -> tuple[Iterable[str], int]:
    m = build(args.name, args.n, refined=not args.unrefined)
    doc = {
        "name": args.name,
        "n": args.n,
        "refined": not args.unrefined,
        "vars": VAR_NAMES,
        "entries": matrix_to_json(m),
    }
    return [json.dumps(doc, separators=(",", ":"))], 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asmdpp",
        description="Exact enumeration and determinant identities for "
        "alternating sign matrices and descending plane partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="stream one family in canonical order")
    p_enum.add_argument("--kind", choices=KINDS, required=True)
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--format", choices=("json", "text"), default="json")
    p_enum.add_argument("--limit", type=int, default=None)
    p_enum.add_argument("--output", default=None)
    p_enum.set_defaults(fn=cmd_enumerate)

    p_gen = sub.add_parser("genfunc", help="print a generating function")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument(
        "--method",
        choices=tuple(_ROUTES),
        default="det",
        help="det, det-w: expand a determinant; brute-asm, brute-dpp: sum one "
        f"family over its step tables (to orders {ASM_SUM_MAX_N} and {DPP_SUM_MAX_N})",
    )
    p_gen.add_argument("--format", choices=("text", "json"), default="text")
    p_gen.add_argument("--output", default=None)
    p_gen.set_defaults(fn=cmd_genfunc)

    p_table = sub.add_parser("table", help="per-(p,m,k) counts as CSV")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--output", default=None)
    p_table.set_defaults(fn=cmd_table)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all")
    p_verify.add_argument("--max-n", type=int, default=None, dest="max_n")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--timings", action="store_true")
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(fn=cmd_verify)

    p_matrix = sub.add_parser("matrix", help="dump a named matrix as JSON")
    p_matrix.add_argument("--name", choices=FAMILY_NAMES, required=True)
    p_matrix.add_argument("--n", type=int, required=True)
    p_matrix.add_argument("--unrefined", action="store_true")
    p_matrix.add_argument("--output", default=None)
    p_matrix.set_defaults(fn=cmd_matrix)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "limit", None) is not None and args.limit < 0:
        parser.error("--limit must be at least 0")
    try:
        if args.output == "":
            raise AsmDppError("--output must name a file")
        cap = _env_cap()
        if "n" in args:
            check_order(args.n, cap, MAX_N_ENV_VAR)
        elif cap is not None:
            args.max_n = cap if args.max_n is None else min(args.max_n, cap)
        lines, code = args.fn(args)
        # a list would restart under each islice: draw from one iterator
        lines = iter(lines)
        # the first block is drawn before the output is opened, so a
        # command refused in its computation never touches --output
        block = list(islice(lines, ENUMERATE_BLOCK))
        with _output(args.output) as out:
            while block:
                out.write("\n".join(block) + "\n")
                block = list(islice(lines, ENUMERATE_BLOCK))
        return code
    except AsmDppError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
