"""Source checks for numeric pitfalls that tests of values cannot see."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "epicast"


def _slow_powers(tree):
    """`base ** k` with an integer literal k >= 3 and a non-literal base."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            op, base, exp = node.op, node.left, node.right
        elif isinstance(node, ast.AugAssign):
            op, base, exp = node.op, node.target, node.value
        else:
            continue
        if (
            isinstance(op, ast.Pow)
            and isinstance(exp, ast.Constant)
            and type(exp.value) is int
            and exp.value >= 3
            and not isinstance(base, ast.Constant)
        ):
            yield node.lineno


def test_no_integer_powers_above_two():
    hits = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _slow_powers(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not hits, (
        f"`** k` with an integer k >= 3 at {hits}: numpy 2.x evaluates it per element "
        "with libm pow, tens of times slower than multiplying (x * x * x); `** 2` has a fast path"
    )


def test_the_check_sees_a_cube():
    assert sorted(_slow_powers(ast.parse("y = x**3\nz = x ** 2\nn = 2**32\nx **= 4\n"))) == [1, 4]


def _foreign_imports(tree):
    """Absolute imports of anything but the standard library and numpy."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "numpy" and top not in sys.stdlib_module_names:
                yield node.lineno, name


def test_numpy_is_the_only_runtime_dependency():
    hits = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _foreign_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not hits, f"imports outside the standard library and numpy at {hits}"


def test_the_check_sees_a_foreign_import():
    source = (
        "from __future__ import annotations\nimport json\nimport numpy as np\n"
        "from numpy.linalg import norm\nfrom . import tensor\nfrom .data import X\n"
        "import scipy.linalg\nfrom scipy import sparse\n"
    )
    assert list(_foreign_imports(ast.parse(source))) == [(7, "scipy.linalg"), (8, "scipy")]
