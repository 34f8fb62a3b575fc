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


def test_a_directory_counts_its_python_files_in_sorted_order(tmp_path, capsys):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "a.py").write_text("# only a comment\ny = 2\nz = 3\n")
    (tmp_path / "pkg" / "sub" / "c.py").write_text("w = 4\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    code_lines.main([str(tmp_path / "pkg")])
    rows = capsys.readouterr().out.splitlines()[2:]
    files = [os.path.join(str(tmp_path / "pkg"), name)
             for name in ("a.py", "b.py", os.path.join("sub", "c.py"))]
    assert rows == [f"| {files[0]} | 3 | 2 |", f"| {files[1]} | 1 | 1 |",
                    f"| {files[2]} | 1 | 1 |", "| total | 5 | 4 |"]
