"""Every module-level function and class in src/asmdpp serves a command,
a check or the benchmark: each is referenced somewhere in src/asmdpp,
scripts or perfbench.  The only exceptions are named below, each with
its reason; wiring one of them in must also remove it from the list."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "asmdpp"

# definitions with no caller outside tests, and why they stay
UNCALLED = {
    "dpp_to_nilp": "the paper's bijection from DPPs to path families, checked against dpp_stats",
    "nilp_to_dpp": "the inverse of that bijection",
    "l_matrix_rat": "the rational reference that tests hold build('L') to",
}


def _definitions() -> set[str]:
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
    return names


def _references() -> set[str]:
    names = set()
    for folder in (SRC, ROOT / "scripts", ROOT / "perfbench"):
        for path in folder.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
    return names


def test_only_the_listed_definitions_lack_a_caller():
    assert _definitions() - _references() == set(UNCALLED)
