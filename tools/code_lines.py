#!/usr/bin/env python3
"""Count the code lines of Python files.

Usage, from the root of a checkout:

    python3 tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for .py files; the default
is src/sepmc.  A line is a code line if it is not blank, holds a token other
than a comment, and lies outside every module, class and function docstring.
Prints the count of each file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers spanned by the module, class and function docstrings of tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(path: Path) -> int:
    """Code lines of one Python file (see the module docstring)."""
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def python_files(paths) -> list:
    """The .py files named by paths, directories searched recursively, in sorted order."""
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return files


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    total = 0
    for path in python_files(paths or ["src/sepmc"]):
        n = count_code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
