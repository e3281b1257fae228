"""``scripts/src_lines.py`` counts each module's lines with ``wc -l`` and
its code lines, which leave out blank lines, comments and docstrings."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"

SOURCE = '''"""Module docstring,
two lines."""

import math  # a comment on a code line counts


class A:
    """Class docstring."""

    # a comment line does not
    def f(self, x):
        """Function docstring."""
        text = """a string that is not a docstring
        counts on each of its lines"""
        return math.sqrt(
            x
        )
'''


def load_script():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # code: import, class, def, the string's two lines and return's three
    assert load_script().count(SOURCE) == (17, 8)


def test_reports_every_module_and_the_total(capsys):
    assert load_script().main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    names = [r[0] for r in rows]
    assert "flow.py" in names and "saddle.py" in names and names[-1] == "total"
    wc, code = (int(x) for x in rows[-1][1:])
    assert sum(int(r[1]) for r in rows[:-1]) == wc
    assert sum(int(r[2]) for r in rows[:-1]) == code
    assert 0 < code < wc
