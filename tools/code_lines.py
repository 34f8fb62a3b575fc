"""Count the code lines of Python source files, stdlib only.

A code line holds at least one token that is not a comment; the lines of a
docstring (a statement that is nothing but a string) are left out, and so
are blank lines.  Prints a markdown table of raw and code lines per file
and in total.  A directory stands for the `*.py` files under it, in sorted
order:

    python3 tools/code_lines.py src/cjde
"""

import glob
import io
import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a non-comment, non-docstring token."""
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def python_files(paths):
    """Each path, a directory replaced by the `*.py` files under it, sorted."""
    for path in paths:
        if os.path.isdir(path):
            yield from sorted(glob.glob(os.path.join(path, "**", "*.py"), recursive=True))
        else:
            yield path


def main(paths) -> None:
    print("| file | lines | code lines |")
    print("|---|---|---|")
    total_raw = total_code = 0
    for path in python_files(paths):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        raw, code = len(source.splitlines()), code_lines(source)
        total_raw, total_code = total_raw + raw, total_code + code
        print(f"| {path} | {raw} | {code} |")
    print(f"| total | {total_raw} | {total_code} |")


if __name__ == "__main__":
    main(sys.argv[1:])
