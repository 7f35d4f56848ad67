"""Every imported name is used: read in its module, listed in ``__all__``,
or imported on a line marked ``# noqa``.  Every name the package defines
has a user: it is exported, named in the README, or referenced in the
package outside its own definition, so test-only helpers live in tests/."""

import ast
import re
from pathlib import Path
from typing import Callable

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/winset/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line of its alias
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        name for name, line in imported.items()
        if name not in used and "# noqa" not in lines[line - 1]
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    assert unused_imports("import os\nfrom re import match, sub\nsub('', '', '')\n") == [
        "match", "os",
    ]
    assert unused_imports("import os  # noqa: F401\n__all__ = ['sys']\nimport sys\n") == []


def bound_names(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def referenced_names(stmt: ast.stmt) -> set[str]:
    """The names a statement reads, as a name, an attribute or an import."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def unused_names(sources: list[str], readme: str) -> list[str]:
    """Module-level names of ``sources`` outside every ``__all__``, not a
    word of ``readme``, and read by no other module-level statement."""
    stmts = [stmt for source in sources for stmt in ast.parse(source).body]
    exported = set()
    for stmt in stmts:
        if "__all__" in bound_names(stmt):
            exported.update(ast.literal_eval(stmt.value))
    words = set(re.findall(r"\w+", readme))
    refs = [referenced_names(stmt) for stmt in stmts]
    return sorted(
        name
        for i, stmt in enumerate(stmts)
        for name in bound_names(stmt)
        if not name.startswith("__") and name not in exported and name not in words
        and not any(name in r for j, r in enumerate(refs) if j != i)
    )


def test_every_package_name_has_a_user():
    sources = [p.read_text() for p in sorted(ROOT.glob("src/winset/*.py"))]
    assert unused_names(sources, (ROOT / "README.md").read_text()) == []
    # a name read only inside its own definition has no user
    assert unused_names(
        ["def f(n):\n    return f(n - 1)\ndef g():\n    return h\nh = 1\n"], "g"
    ) == ["f"]


def holders(source: str, match: Callable[[ast.AST], bool]) -> list[str]:
    """The functions of ``source``, by qualified name, that hold a node
    ``match`` accepts, once per node; ``<module>`` for one outside every
    function."""
    found = []

    def visit(node: ast.AST, where: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        if match(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def is_int_type_test(node: ast.AST) -> bool:
    """An ``isinstance(..., int)`` call, the class given alone or in a tuple."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
    ):
        return False
    cls = node.args[1]
    names = cls.elts if isinstance(cls, ast.Tuple) else [cls]
    return any(isinstance(c, ast.Name) and c.id == "int" for c in names)


def package_holders(match: Callable[[ast.AST], bool]) -> dict[str, list[str]]:
    """Per module of the package that has any, the :func:`holders` of ``match``."""
    found = {
        path.name: holders(path.read_text(), match)
        for path in sorted(ROOT.glob("src/winset/*.py"))
    }
    return {name: where for name, where in found.items() if where}


def test_ints_are_checked_only_by_the_range_helper():
    # every state, state set, size and index goes through one check, so a
    # per-site int test cannot creep back
    assert package_holders(is_int_type_test) == {"automata.py": ["_check_range"]}
    assert holders(
        "def f(x):\n    return isinstance(x, (str, int))\n"
        "class C:\n    def g(self, y):\n        return isinstance(y, int)\n"
        "ok = isinstance(1, float)\nbad = isinstance(1, int)\n",
        is_int_type_test,
    ) == ["f", "C.g", "<module>"]


def test_budgets_and_hosts_are_checked_only_by_their_helpers():
    # every search's budget goes through one check, and each compiled host
    # table checks its host once, so neither can be written by hand again
    def budget_message(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and "must be a number" in str(node.value)

    def host_check(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and any(
            isinstance(a, ast.Constant) and a.value == "host DFA" for a in node.args
        )

    assert package_holders(budget_message) == {"automata.py": ["_check_budget"]}
    assert package_holders(host_check) == {
        "game.py": ["_Host.__init__", "ReversalDfa.__init__"]
    }
    assert holders(
        "class C:\n    def __init__(self, h):\n        check(h, 'host DFA')\n"
        "def f(h):\n    check(h, BINARY, 'host DFA')\n    return 'host DFA'\n",
        host_check,
    ) == ["C.__init__", "f"]
