"""Print lines and code lines per module of src/regkernel, and their totals,
then the same table for the test modules under tests/.

A code line holds at least one token that is not a comment, a blank line
or part of a docstring (the string that opens a module, class or function
body, found with ``ast``); tokens come from ``tokenize``, so a line inside
a multi-line expression or string counts once.

Run from the repository root:  python3 tools/loc.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs)


def table(directory: Path) -> None:
    """Print one row per module of ``directory`` and a total row."""
    paths = sorted(directory.glob("*.py"))
    width = max(12, *(len(path.stem) + 1 for path in paths))
    total_lines = total_code = 0
    print(f"{'module':<{width}}{'lines':>6}{'code':>6}")
    for path in paths:
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.stem:<{width}}{lines:>6}{code:>6}")
    print(f"{'total':<{width}}{total_lines:>6}{total_code:>6}")


def main() -> int:
    table(ROOT / "src" / "regkernel")
    print()
    table(ROOT / "tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
