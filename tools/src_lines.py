"""Count the lines of the package's source files.

    python3 tools/src_lines.py [--src DIR]

For each ``.py`` file under ``src/`` next to this script, or under ``DIR``
with ``--src DIR``, prints its total lines and its code lines, then the totals
of both. A code line holds a token that is neither a docstring, a comment nor
layout: docstrings (the leading string of a module, class or function) come
from ``ast``, the rest from ``tokenize``, so every line of a multi-line
expression or of a string that is not a docstring counts. Exit 2 on bad usage
or when ``DIR`` holds no ``.py`` file.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Tokens that carry no code of their own.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple:
    """(total lines, code lines) of the Python ``source``."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (0, 2) or argv[:1] not in ([], ["--src"]):
        print("usage: src_lines.py [--src DIR]", file=sys.stderr)
        return 2
    src = Path(argv[1]) if argv else SRC
    files = sorted(src.rglob("*.py"))
    if not files:
        print(f"{src} holds no .py file", file=sys.stderr)
        return 2
    totals = [0, 0]
    for path in files:
        lines = count_lines(path.read_text(encoding="utf-8"))
        totals = [a + b for a, b in zip(totals, lines)]
        print(f"{path.relative_to(src)} {lines[0]} {lines[1]}")
    print(f"total {totals[0]} {totals[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
