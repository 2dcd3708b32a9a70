import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment counts: the line holds code

X = (1,
     2)


class A:
    """Class docstring."""

    def f(self):
        """Function docstring.

        Still the docstring.
        """
        s = """a multi-line string
that is not a docstring"""
        return s


def g():

    return os.sep
'''


def test_counts_code_outside_docstrings(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    # import, X's two lines, class, def f, the string's two lines, return, def g, return
    assert code_lines.count_code_lines(path) == 10


def test_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("# only a comment\n\nx = 1\n")
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "pkg")],
                          capture_output=True, text=True, check=True, timeout=60)
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows == [["10", str(tmp_path / "pkg" / "a.py")],
                    ["1", str(tmp_path / "pkg" / "b.py")],
                    ["11", "total"]]
