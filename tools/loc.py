"""Count the code lines of the package source, per file and in total.

A code line holds at least one token that is not a comment, and is not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstring lines are not counted.  With
``--base REV`` each file's count at the git revision REV (read with
``git show REV:path``; 0 where the file does not exist there) is printed next
to the working tree's, with the difference, and so are the totals.  Uses the
standard library and git only.

    python tools/loc.py                 # src/epicast/*.py
    python tools/loc.py a.py b.py       # the named files
    python tools/loc.py --base HEAD~1   # src/epicast/*.py at HEAD~1 and now
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def code_lines(source: bytes) -> int:
    """The code lines of the Python module whose bytes are `source`."""
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in SKIP or tok.type == tokenize.ENCODING:
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def _git(path: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(path), *args], capture_output=True, check=False)


def at_revision(rev: str, path: Path) -> bytes | None:
    """The bytes of `path` at git revision `rev`, or None where it does not exist."""
    done = _git(path.parent, "show", f"{rev}:./{path.name}")
    return done.stdout if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, help="files to count (default: src/epicast/*.py)")
    parser.add_argument("--base", metavar="REV", help="also count each file at git revision REV")
    args = parser.parse_args(argv)
    paths = args.paths or sorted(SRC.glob("*.py"))
    if args.base is None:
        total = 0
        for path in paths:
            n = code_lines(path.read_bytes())
            total += n
            print(f"{n:6d}  {path.name}")
        print(f"{total:6d}  total")
        return 0
    if _git(paths[0].parent, "rev-parse", "--verify", f"{args.base}^{{commit}}").returncode:
        parser.error(f"{args.base!r} is not a git revision")
    if not args.paths:  # the package's files at REV too, those deleted since included
        listed = _git(SRC, "ls-tree", "--name-only", args.base, "./").stdout.decode().split()
        paths = sorted(set(paths) | {SRC / name for name in listed if name.endswith(".py")})
    totals = [0, 0]
    print(f"{'base':>6}  {'tree':>6}  {'diff':>6}  file")
    for path in paths:
        old = at_revision(args.base, path)
        counts = [0 if old is None else code_lines(old), code_lines(path.read_bytes()) if path.exists() else 0]
        totals = [t + n for t, n in zip(totals, counts)]
        print(f"{counts[0]:6d}  {counts[1]:6d}  {counts[1] - counts[0]:+6d}  {path.name}")
    print(f"{totals[0]:6d}  {totals[1]:6d}  {totals[1] - totals[0]:+6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
