"""Source checks for numeric pitfalls and coverage gaps that tests of values cannot see."""

import ast
import sys
from pathlib import Path

from test_tensor import OP_CASES

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


def _taping_functions(tree):
    """Top-level functions that record a tape node with a backward: a call of
    ``Tensor._result`` whose backward argument is not the literal None."""
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_result"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "Tensor"
                and not (len(node.args) > 2 and isinstance(node.args[2], ast.Constant) and node.args[2].value is None)
            ):
                yield fn.name
                break


def _without_fd_case(tree, cases):
    covered = set().union(*(case.__code__.co_names for case in cases.values()))
    return [name for name in _taping_functions(tree) if name not in covered]


def test_every_taping_op_has_a_finite_difference_case():
    hits = [
        f"{path.name}:{name}"
        for path in (SRC / "tensor.py", SRC / "branches.py")
        for name in _without_fd_case(ast.parse(path.read_text(), filename=str(path)), OP_CASES)
    ]
    assert not hits, (
        f"{hits} record a tape node with a hand-written backward but no OP_CASES entry in "
        "tests/test_tensor.py calls them, so no finite-difference check covers that backward"
    )


def test_the_check_sees_an_op_without_a_case():
    source = (
        "def covered(a):\n    return Tensor._result(a.data, (a,), _bw)\n"
        "def fused(a, b):\n    def _bw(g):\n        pass\n    return Tensor._result(a.data + b.data, (a, b), _bw)\n"
        "def leaf(x):\n    return Tensor._result(x, (), None)\n"
        "def helper(a):\n    return covered(a)\n"
    )
    assert _without_fd_case(ast.parse(source), {"covered": lambda a, b: covered(a)}) == ["fused"]  # noqa: F821


# the one reader, the config's check that a named data file exists before any
# output is written, and the reader of the package's own data
READERS = ("read_file", "resolve_config", "load_reference_results")


def _file_reads(tree):
    """Calls outside READERS that open a file for reading, read one, parse JSON
    from one, or test whether one exists."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in READERS:
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name == "open":
                mode = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "mode"), None)
                if not (isinstance(mode, ast.Constant) and set("wax") & set(mode.value)):
                    yield node.lineno, "open"
            elif name in ("read_text", "read_bytes", "exists"):
                yield node.lineno, name
            elif name == "load" and isinstance(func.value, ast.Name) and func.value.id == "json":
                yield node.lineno, "json.load"


def test_every_input_file_is_read_by_the_one_reader():
    hits = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _file_reads(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not hits, (
        f"files read at {hits}: read an input file with data.read_file, which decides in one "
        "place what a missing, unreadable or non-UTF-8 file means"
    )


def test_the_check_sees_a_read_outside_the_reader():
    source = (
        "def read_file(path):\n    return open(path, 'rb').read()\n"
        "def load(path):\n    if path.exists():\n        return json.load(open(path))\n"
        "def text(path):\n    return path.read_text() + path.read_bytes() + json.loads('1')\n"
        "def write(path):\n    with open(path, 'w') as fh, path.open(mode='ab'):\n        pass\n"
        "class Store:\n    def get(self, path):\n        return path.open(mode='r')\n"
    )
    assert sorted(_file_reads(ast.parse(source))) == [
        (4, "exists"), (5, "json.load"), (5, "open"), (7, "read_bytes"), (7, "read_text"), (13, "open"),
    ]


def _sibling_imports(tree, module):
    """Lines that import the epicast module `module`, relatively or absolutely."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = f"epicast.{node.module}" if node.level == 1 and node.module else node.module
            names = [f"epicast.{alias.name}" for alias in node.names] if node.level == 1 and not node.module else []
        elif isinstance(node, ast.Import):
            target, names = None, [alias.name for alias in node.names]
        else:
            continue
        if target == f"epicast.{module}" or f"epicast.{module}" in names:
            yield node.lineno


def test_inference_imports_nothing_from_training():
    path = SRC / "forecaster.py"
    hits = list(_sibling_imports(ast.parse(path.read_text(), filename=str(path)), "trainer"))
    assert not hits, (
        f"forecaster.py imports the training module at lines {hits}: take what inference "
        "shares with training (token sequences, adapters) from the module that defines it"
    )


def test_the_check_sees_an_import_of_the_trainer():
    source = (
        "from .trainer import sequence_loss\nfrom . import trainer\nimport epicast.trainer\n"
        "from epicast.trainer import train\nfrom .branches import stack_tokens\nfrom .trainers import x\n"
    )
    assert list(_sibling_imports(ast.parse(source), "trainer")) == [1, 2, 3, 4]


def _adjacency_names(tree):
    """Lines whose code names the forecast's adjacency source: a variable, attribute,
    keyword, parameter or import containing ``adjacency_mode`` in any case.  A string
    is data, such as the retired checkpoint key `load_checkpoint` drops."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.keyword: "arg", ast.arg: "arg", ast.alias: "name"}
    for node in ast.walk(tree):
        name = getattr(node, fields.get(type(node), ""), None)
        if name and "adjacency_mode" in name.lower():
            yield node.lineno


def test_training_modules_never_name_the_adjacency_source():
    hits = [
        f"{name}:{line}"
        for name in ("model.py", "trainer.py", "branches.py")
        for line in _adjacency_names(ast.parse((SRC / name).read_text(), filename=name))
    ]
    assert not hits, (
        f"the adjacency source is named at {hits}: only a forecast reads it, so it is a "
        "`forecaster.forecast` argument, validated there against ADJACENCY_MODES"
    )


def test_the_check_sees_a_named_adjacency_source():
    source = (
        "from .forecaster import ADJACENCY_MODES\nmode = cfg.adjacency_mode\nreplace(cfg, adjacency_mode='last')\n"
        "def f(adjacency_mode):\n    pass\nadjacency_mode = 1\nmeta.pop('adjacency_mode')\n"
    )
    assert sorted(_adjacency_names(ast.parse(source))) == [1, 2, 3, 4, 6]
