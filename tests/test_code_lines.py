"""The code-line counter in tools/: comments, docstrings and blank lines do
not count; code, trailing comments and non-docstring strings do."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
two lines."""

# a comment line
import os  # code with a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        # comment
        text = """not a
        docstring"""
        return text
'''


def test_only_code_lines_count():
    # import os, class A, def f, the two lines of text = ..., return.
    assert code_lines.code_lines(FIXTURE) == 6


def test_the_report_lists_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["6", "1", "7"]
    assert lines[-1].split()[1] == "total"
