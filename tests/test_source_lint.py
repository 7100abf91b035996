"""Source checks for numeric pitfalls and coverage gaps that tests of values cannot see."""

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from test_tensor import OP_CASES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "epicast"


def _callee(call):
    """The name a call calls: ``f`` for ``f(...)`` and ``x.f(...)``, else None."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def _identifiers(tree):
    """(line, name) of every name the code binds or reads: variables, attributes,
    keywords, parameters, imports and function names; strings are data, not names."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.keyword: "arg", ast.arg: "arg", ast.alias: "name"}
    fields[ast.FunctionDef] = "name"
    for node in ast.walk(tree):
        name = getattr(node, fields.get(type(node), ""), None)
        if name:
            yield node.lineno, name


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


def _builds_a_node(call):
    """True for a call of ``Tensor._result`` whose backward argument is not the literal None."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "_result"
        and isinstance(func.value, ast.Name)
        and func.value.id == "Tensor"
        and not (len(call.args) > 2 and isinstance(call.args[2], ast.Constant) and call.args[2].value is None)
    )


def _calling(tree, test):
    """Top-level functions that make a call for which `test` holds."""
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and any(isinstance(n, ast.Call) and test(n) for n in ast.walk(fn)):
            yield fn.name


def _result_callers(tree):
    """Top-level functions that build a tape node with a backward themselves."""
    return _calling(tree, _builds_a_node)


def _taping_functions(tree):
    """Top-level functions that record a tape node with a backward, their own
    or through ``_record``; ``_record`` itself is the recording rule, not an op."""
    records = _calling(tree, lambda call: _builds_a_node(call) or _callee(call) == "_record")
    return [name for name in records if name != "_record"]


def _without_fd_case(tree, cases):
    covered = set().union(*(case.__code__.co_names for case in cases.values()))
    return [name for name in _taping_functions(tree) if name not in covered]


# every module whose functions may record a tape node: epicast's own and the
# composed references the tests hold epicast's nodes to
TAPING_SOURCES = (*sorted(SRC.glob("*.py")), ROOT / "tests" / "composed_reference.py")


def _ops_without_fd_case(cases):
    return [
        f"{path.name}:{name}"
        for path in TAPING_SOURCES
        for name in _without_fd_case(ast.parse(path.read_text(), filename=str(path)), cases)
    ]


def test_every_taping_op_has_a_finite_difference_case():
    hits = _ops_without_fd_case(OP_CASES)
    assert not hits, (
        f"{hits} record a tape node with a hand-written backward but no OP_CASES entry in "
        "tests/test_tensor.py calls them, so no finite-difference check covers that backward"
    )


def test_the_check_sees_an_op_without_a_case():
    source = (
        "def _record(out, inputs, grads):\n    return Tensor._result(out, inputs, _bw)\n"
        "def covered(a):\n    return Tensor._result(a.data, (a,), _bw)\n"
        "def fused(a, b):\n    def _bw(g):\n        pass\n    return Tensor._result(a.data + b.data, (a, b), _bw)\n"
        "def primitive(a):\n    return _record(a.data, (a,), (lambda g: g,))\n"
        "def leaf(x):\n    return Tensor._result(x, (), None)\n"
        "def helper(a):\n    return covered(a)\n"
    )
    cases = {"covered": lambda a, b: covered(a)}  # noqa: F821
    assert _without_fd_case(ast.parse(source), cases) == ["fused", "primitive"]
    # every epicast module is scanned, the trainer's loss node included, and so
    # are the composed references
    assert {path.name for path in TAPING_SOURCES} >= {"trainer.py", "data.py", "composed_reference.py"}
    dropped = ("loss_mean_squared", "loss_mean_l2_norm", "div")
    rest = {name: case for name, case in OP_CASES.items() if name not in dropped}
    assert _ops_without_fd_case(rest) == ["trainer.py:compute_loss", "composed_reference.py:div"]


# the ops whose backward shares work between inputs (linear, layer_norm);
# every other tensor.py op records through _record's one rule
OWN_NODES = ("_record", "linear", "layer_norm")


def test_primitives_build_their_node_only_through_record():
    tree = ast.parse((SRC / "tensor.py").read_text(), filename="tensor.py")
    hits = [name for name in _result_callers(tree) if name not in OWN_NODES]
    assert not hits, (
        f"tensor.py:{hits} build a tape node with Tensor._result: record a primitive with "
        "_record(out, inputs, grads), one gradient rule per input"
    )


def test_the_check_sees_a_node_built_by_hand():
    source = (
        "def _record(out, inputs, grads):\n    return Tensor._result(out, inputs, _bw)\n"
        "def add(a, b):\n    return _record(a.data + b.data, (a, b), (lambda g: g, lambda g: g))\n"
        "def tanh(a):\n    def _bw(g):\n        pass\n    return Tensor._result(a.data, (a,), _bw)\n"
        "def constant(x):\n    return Tensor._result(x, (), None)\n"
    )
    assert list(_result_callers(ast.parse(source))) == ["_record", "tanh"]


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
            func, name = node.func, _callee(node)
            if name == "open":
                mode = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "mode"), None)
                if not (isinstance(mode, ast.Constant) and set("wax") & set(mode.value)):
                    yield node.lineno, "open"
            elif name in ("read_text", "read_bytes", "exists"):
                yield node.lineno, name
            elif name == "load" and isinstance(func, ast.Attribute):  # json.load, not a bare load(...)
                if isinstance(func.value, ast.Name) and func.value.id == "json":
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
        "def unpack(x, fh):\n    return load(x), json.load(fh)\n"
    )
    assert sorted(_file_reads(ast.parse(source))) == [
        (4, "exists"), (5, "json.load"), (5, "open"), (7, "read_bytes"), (7, "read_text"), (13, "open"),
        (15, "json.load"),
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
    for line, name in _identifiers(tree):
        if "adjacency_mode" in name.lower():
            yield line


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


def _weight_grad_calls(tree):
    """Lines that call ``_weight_grad`` outside ``_affine_grads``."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name == "_affine_grads":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _callee(node) == "_weight_grad":
                yield node.lineno


def test_the_weight_gradient_is_taken_only_by_affine_grads():
    hits = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _weight_grad_calls(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not hits, (
        f"_weight_grad called at {hits}: accumulate the W and b gradients of x @ W + b "
        "with tensor._affine_grads, the one copy of that rule"
    )


def test_the_check_sees_a_weight_gradient_outside_affine_grads():
    source = (
        "def _weight_grad(x, g):\n    return x.T @ g\n"
        "def _affine_grads(g, x, nW, nb, shape):\n    _accumulate(nW, _weight_grad(x, g))\n"
        "def fused(g, x):\n    def _bw(g):\n        _accumulate(nW, _weight_grad(x, g))\n"
        "    return tensor._weight_grad(x, g)\n"
    )
    assert sorted(_weight_grad_calls(ast.parse(source))) == [7, 8]


def _retired_layer_norm_backward(tree):
    """Lines that name ``_layer_norm_backward``, whose rule ``_layer_norm_grads`` holds."""
    return [line for line, name in _identifiers(tree) if name == "_layer_norm_backward"]


def test_layer_norm_has_one_backward():
    hits = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _retired_layer_norm_backward(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not hits, (
        f"_layer_norm_backward named at {hits}: LayerNorm's input, gain and bias gradients "
        "have one copy, tensor._layer_norm_grads"
    )


def test_the_check_sees_a_second_layer_norm_backward():
    source = (
        "from .tensor import _layer_norm_backward\n"
        "def _layer_norm_backward(g):\n    return g\n"
        "dx = tensor._layer_norm_backward(g)\nnote = '_layer_norm_backward'\n"
    )
    assert sorted(_retired_layer_norm_backward(ast.parse(source))) == [1, 2, 4]


# the parts of a training epoch besides zeroing the gradients, which `train`
# also does to the restored best parameters
EPOCH_PARTS = ("training_loss", "validation_loss", "backward", "step")


def _epoch_calls(tree):
    """Names of the calls of ``run_epoch`` and of the epoch's parts, in line order."""
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return [_callee(c) for c in sorted(calls, key=lambda c: c.lineno) if _callee(c) in ("run_epoch", *EPOCH_PARTS)]


def test_train_and_the_ledger_run_one_epoch_function():
    trainer = ast.parse((SRC / "trainer.py").read_text())
    train = next(fn for fn in trainer.body if isinstance(fn, ast.FunctionDef) and fn.name == "train")
    ledger = ast.parse((ROOT / "tools" / "digests.py").read_text())
    for where, tree in (("trainer.train", train), ("tools/digests.py", ledger)):
        assert _epoch_calls(tree) == ["run_epoch"], (
            f"{where} calls {_epoch_calls(tree)}: run an epoch only through trainer.run_epoch, "
            "so training and the bitwise ledger cannot drift apart"
        )


def test_the_check_sees_an_epoch_written_out():
    source = (
        "def train(model):\n    loss = training_loss(model)\n    model.zero_grad()\n    loss.backward()\n"
        "    opt.step()\n    val = trainer.validation_loss(model)\n    run_epoch(model)\n"
    )
    assert _epoch_calls(ast.parse(source)) == ["training_loss", "backward", "step", "validation_loss", "run_epoch"]


def _unentered(root):
    """`tools/linetrace.py --commands` of the tree at `root`: the six commands
    under a call tracer, reporting each `src/` function none of them enters."""
    tool = root / "tools" / "linetrace.py"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, str(tool), "--commands"], cwd=root, env=env, capture_output=True, text=True, timeout=600
    )


def test_every_src_function_runs_under_a_command():
    run = _unentered(ROOT)
    assert run.returncode == 0, (
        f"{run.stdout}{run.stderr}\na src/ function that no command enters: delete it, move it to "
        "the tests, or give it a reason in tools/linetrace.py's EXEMPT"
    )


def test_the_check_sees_a_function_no_command_calls(tmp_path):
    src = tmp_path / "src" / "epicast"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "linetrace.py", tmp_path / "tools")
    with open(src / "evalharness.py", "a") as fh:
        fh.write("\n\ndef orphan():\n    return 0\n")
    model = src / "model.py"
    model.write_text(model.read_text().replace("def backbone_hash(", "def backbone_digest("))
    run = _unentered(tmp_path)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "evalharness.orphan: NOT EXEMPT" in run.stdout, run.stdout
    assert "model.backbone_digest: NOT EXEMPT" in run.stdout, run.stdout
    assert "stale exemption: model.backbone_hash" in run.stdout, run.stdout
    assert "data.synth_sir: tools/digests.py builds every ledger case with it" in run.stdout, run.stdout


def _layout_files(readme):
    """The files README's layout block names: its ``src/epicast/`` rows, two
    spaces in, and its ``tools/`` rows; wrapped description lines name none."""
    block = readme.split("## Layout", 1)[1].split("```")[1]
    return {f"src/epicast/{name}" for name in re.findall(r"^  (\w+\.py) ", block, re.M)} | set(
        re.findall(r"^(tools/\w+\.py) ", block, re.M)
    )


def test_loc_compares_each_file_with_a_git_revision(tmp_path):
    """`tools/loc.py --base REV` prints each package file's code lines at REV
    and in the tree, those added or deleted since included, with the
    differences and the totals; a name that is no revision is refused."""
    src = tmp_path / "src" / "epicast"
    src.mkdir(parents=True)
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "loc.py", tmp_path / "tools")
    (src / "a.py").write_text('"""Doc."""\nx = 1\n# comment\n\ndef f():\n    """Doc."""\n    return x\n')
    (src / "b.py").write_text("import os\n")
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "src"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + args, check=True, capture_output=True)
    with open(src / "a.py", "a") as fh:
        fh.write("y = 2\n")
    (src / "b.py").unlink()
    (src / "c.py").write_text("z = (\n    1,\n)\n")

    def loc(*args):
        tool = tmp_path / "tools" / "loc.py"
        return subprocess.run([sys.executable, str(tool), *args], capture_output=True, text=True)

    assert loc("--base", "HEAD").stdout.splitlines() == [
        "  base    tree    diff  file",
        "     3       4      +1  a.py",
        "     1       0      -1  b.py",
        "     0       3      +3  c.py",
        "     4       7      +3  total",
    ]
    assert loc().stdout.splitlines() == ["     4  a.py", "     3  c.py", "     7  total"]
    refused = loc("--base", "no-such-rev")
    assert refused.returncode == 2 and "'no-such-rev' is not a git revision" in refused.stderr


def test_readme_layout_names_every_module_and_tool():
    modules = {f"src/epicast/{p.name}" for p in SRC.glob("*.py") if p.stem not in ("__init__", "__main__")}
    tools = {f"tools/{p.name}" for p in (ROOT / "tools").glob("*.py")}
    files, named = modules | tools, _layout_files((ROOT / "README.md").read_text())
    assert named == files, (
        f"README's layout names {sorted(named - files)}, which do not exist, and omits {sorted(files - named)}"
    )


def test_the_check_sees_a_stale_layout_line():
    readme = (
        "# x\n\n## Layout\n\n```\nsrc/epicast/\n  tensor.py       autodiff\n  gradcheck.py    gradient checking\n"
        "  trainer.py      the epoch, which\n                  tools/digests.py runs\ntests/            suite\n"
        "tools/loc.py      code lines\n```\n\n## Install\n\n```\n  cli.py  x\n```\n"
    )
    assert _layout_files(readme) == {
        "src/epicast/tensor.py", "src/epicast/gradcheck.py", "src/epicast/trainer.py", "tools/loc.py"
    }  # fmt: skip
