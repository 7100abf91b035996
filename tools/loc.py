"""Count the code lines of the package source, per file and in total.

A code line holds at least one token that is not a comment, and is not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstring lines are not counted.  Uses the
standard library only.

    python tools/loc.py            # src/epicast/*.py
    python tools/loc.py a.py b.py  # the named files
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "epicast"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in `tree`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in SKIP or tok.type == tokenize.ENCODING:
                continue
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(SRC.glob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
