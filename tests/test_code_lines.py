"""`scripts/code_lines.py` counts code lines, skipping docstrings, comments and blank lines."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 9 code lines: the import, the class line, the function line, `x = (`, its
# two continuation lines, the string bound to `s` (both of its lines) and `return`
FIXTURE = '''"""A module docstring,
over two lines."""
import os  # a trailing comment does not make a line count less

# a comment line


class A:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        x = (
            1,
            2)
        s = """not a docstring,
but a string"""
        return x, s
'''


def test_fixture_counts_only_code_lines():
    assert code_lines.code_lines(FIXTURE) == 9


def test_main_prints_each_module_then_the_total(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(FIXTURE)
    b.write_text("# only a comment\n\nimport sys\n")
    assert code_lines.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == f"9 {a}\n1 {b}\n10 total\n"


def test_no_paths_is_a_usage_error(capsys):
    assert code_lines.main([]) == 2
    assert "usage" in capsys.readouterr().err
