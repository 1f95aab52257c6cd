"""No module of the package, the tests or the scripts imports a name that it
does not use, checked with the stdlib `ast` module.

An imported name is used when the module reads it anywhere (an `ast.Name`,
so `ad` in `ad.attention` too) or lists it in `__all__`. `__future__`
imports and import statements marked `# noqa: F401`, re-imports kept on
purpose, are exempt."""

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
