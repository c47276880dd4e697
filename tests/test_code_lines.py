import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment after code


def f(x):
    """Function docstring."""
    # a comment line
    s = """a string
    that is not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 1
'''


def test_counts_lines_with_a_token_other_than_comments_and_docstrings():
    # import, def, s = (2 lines), return (2 lines), class, y
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text(SOURCE)
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.split() == ["a.py", "1", "b.py", "8",
                                               "total", "9"]
