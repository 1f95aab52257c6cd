"""No module of the package, the tests or the scripts imports a name that it
does not use, or defines a function or class that nothing reads, checked
with the stdlib `ast` module.

An imported name is used when the module reads it anywhere (an `ast.Name`,
so `ad` in `ad.attention` too) or lists it in `__all__`. `__future__`
imports and import statements marked `# noqa: F401`, re-imports kept on
purpose, are exempt.

A module-level function or class is read when some module of those
directories or of `perfbench/` loads its name, takes it as an attribute
or names a parameter after it (how a test asks for a pytest fixture). An
import alone or a listing in `__all__` is no read. Tests (`test_*`,
`Test*`) are exempt: pytest collects them."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src/querytrack", "tests", "scripts")


def unused_imports(source: str) -> list[str]:
    """`"<line>: <name>"` for each name that `source` imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        # `import a.b` binds `a`
        unused += [
            f"{node.lineno}: {name}"
            for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
            if name not in used
        ]
    return unused


def reads(source: str) -> set[str]:
    """Every name that `source` reads: a loaded name, an attribute or a parameter."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.arg):
            read.add(node.arg)
    return read


def unread_definitions(source: str, read: set[str]) -> list[str]:
    """`"<line>: <name>"` for each module-level function or class of `source`
    that is no test and whose name is not in `read`."""
    return [
        f"{node.lineno}: {node.name}"
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith(("test_", "Test"))
        and node.name not in read
    ]


def test_no_module_imports_a_name_it_does_not_use():
    found = {}
    for directory in CHECKED:
        for path in sorted((ROOT / directory).glob("*.py")):
            unused = unused_imports(path.read_text(encoding="utf-8"))
            if unused:
                found[str(path.relative_to(ROOT))] = unused
    assert found == {}


def test_the_check_finds_an_unused_name_and_keeps_its_exemptions():
    source = "\n".join([
        "from __future__ import annotations",
        "import os",
        "import numpy as np",
        "import querytrack.model",
        "from json import dumps, loads",
        "from sys import (  # noqa: F401",
        "    path,",
        ")",
        '__all__ = ["dumps"]',
        "np.zeros(querytrack.model.TINY)",
    ])
    assert unused_imports(source) == ["2: os", "5: loads"]


def test_every_module_level_definition_is_read_somewhere():
    sources = {
        path: path.read_text(encoding="utf-8")
        for directory in CHECKED + ("perfbench",)
        for path in sorted((ROOT / directory).glob("*.py"))
    }
    read = set().union(*map(reads, sources.values()))
    found = {}
    for path, source in sources.items():
        unread = unread_definitions(source, read)
        if unread and not path.is_relative_to(ROOT / "perfbench"):
            found[str(path.relative_to(ROOT))] = unread
    assert found == {}


def test_the_definition_check_finds_an_unread_helper_and_keeps_its_reads():
    made_up = "\n".join([
        "def called(): pass",
        "def fixture(): pass",
        "def attribute(): pass",
        "def dead(): pass",
        "class Unread: pass",
        "def imported(): pass",
        "def listed(): pass",
        "def rebound(): pass",
        '__all__ = ["listed"]',
        "rebound = 1",
        "def test_one(): pass",
        "class TestTwo: pass",
    ])
    reader = "\n".join([
        "import made_up",
        "from made_up import called, imported",
        "def test_three(fixture): called(); made_up.attribute",
    ])
    read = reads(made_up) | reads(reader)
    assert unread_definitions(made_up, read) == ["4: dead", "5: Unread", "6: imported", "7: listed", "8: rebound"]
