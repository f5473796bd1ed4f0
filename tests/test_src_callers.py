"""Every module-level function and class in src/asmdpp, and every method
and property of those classes, serves a command, a check or the
benchmark: each is referenced somewhere in src/asmdpp or perfbench.
The only exceptions are named below, each with its reason; wiring one
of them in must also remove it from the list."""

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

# class members never read as an attribute outside tests, and why they stay
UNREAD_MEMBERS = {
    "AsmStats.nu_prime": "the paper's inversion count m + p",
}


def _definitions() -> set[str]:
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
    return names


def _module_names(tree: ast.Module) -> set[str]:
    # names bound to a module: `import m`, `import m as alias`, and
    # `from package import module [as alias]` for a module of asmdpp
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(
                a.asname or a.name for a in node.names if (SRC / f"{a.name}.py").exists()
            )
    return names


def _references() -> set[str]:
    """Names read in src/asmdpp and perfbench.  An attribute
    counts only when it is read on a module name or alias (such as
    paths.lgv_matrix), so a method of the same name, like
    PolyMatrix.identity, does not count as a caller of a module-level
    function."""
    names = set()
    for folder in (SRC, ROOT / "perfbench"):
        for path in folder.rglob("*.py"):
            tree = ast.parse(path.read_text())
            modules = _module_names(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                ):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
    return names


def test_only_the_listed_definitions_lack_a_caller():
    assert _definitions() - _references() == set(UNCALLED)


def _members() -> set[str]:
    # "Class.member" for every method and property of a class in
    # src/asmdpp, dunders excepted
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                names.update(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
    return names


def _attributes_read() -> set[str]:
    """Attribute names read on any value in src/asmdpp and perfbench."""
    names = set()
    for folder in (SRC, ROOT / "perfbench"):
        for path in folder.rglob("*.py"):
            names.update(
                node.attr
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            )
    return names


def test_only_the_listed_members_are_never_read():
    read = _attributes_read()
    unread = {m for m in _members() if m.split(".")[1] not in read}
    assert unread == set(UNREAD_MEMBERS)
