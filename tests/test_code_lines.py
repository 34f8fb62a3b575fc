"""The code-line counter that CI reports next to raw line counts."""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = importlib.util.spec_from_file_location(
    "code_lines", os.path.join(HERE, os.pardir, "tools", "code_lines.py"))
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)


def test_docstrings_comments_and_blank_lines_are_not_code():
    source = '''"""Module docstring,
over two lines."""

# a comment
def f(x):  # a trailing comment leaves the line code
    """Docstring."""
    text = """a string
    that is an operand"""
    return (x +
            1)
'''
    # def, the two lines of `text = ...` and the two of the return statement
    assert code_lines.code_lines(source) == 5
