"""Source checks for numeric pitfalls that tests of values cannot see."""

import ast
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
