"""Line counts of the ``choquard`` package, per module and in total.

Usage:

    python3 scripts/src_lines.py [--src DIR]

For each module under ``DIR`` (default: the ``src/choquard`` next to this
script) it prints the ``wc -l`` count and the code-line count: the lines
that carry a token other than a comment, with blank lines and docstrings
(the leading string of a module, class or function body) left out.  A
statement that spans several lines counts each of them.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src" / "choquard"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(wc -l, code lines) of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC, help="package directory")
    args = parser.parse_args(argv)
    rows = [(path.name, *count(path.read_text())) for path in sorted(args.src.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for name, wc, code in rows:
        print(f"{name:<16}{wc:>8}{code:>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
