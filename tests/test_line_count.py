"""The line-count tool: code lines without docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_count.py"
_spec = importlib.util.spec_from_file_location("line_count", TOOL)
line_count = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_count)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        text = """a string that is
not a docstring"""
        return math.sqrt(x
                         + 1)
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import, class, def, the two lines of the string, the two of the return
    assert line_count.code_lines(SOURCE) == 7


def test_checkout_counts_every_module():
    counts = line_count.counts_at(None)
    assert set(counts) == {p.name for p in (TOOL.parent.parent / "src" / "cdsplit").glob("*.py")}
    assert all(n > 0 for n in counts.values())
