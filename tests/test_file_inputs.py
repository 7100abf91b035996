"""Every file the CLI reads fails with its kind's exit code, never exit 1.

Hypothesis mutates a valid file of each kind (the case and mobility CSVs, the
config, a checkpoint's sidecar and weight blob, a `backbone.weights` sidecar
and blob, and a metrics file that `report` merges) and runs `cli.main`
in-process on a tiny run: 4 regions, 40 days, width 8, one epoch.  A mutation
truncates the file, inserts bytes (invalid UTF-8 included), replaces one CSV
or JSON field with a token, or swaps the file for a directory.  The config is
mutated byte by byte only: tests/test_config_domains.py covers its values, and
a token such as 2**63 in a size key would ask for a long run.  The explicit
examples are inputs that once exited 1, each with the code it must exit with,
and inputs that reach one guard, each with the code and the words of its
message.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epicast.backbone import BackboneConfig, build_backbone
from epicast.cli import main

CONFIG = """\
w = 2
horizon = 2
split.test = 2
split.val = 2
backbone.width = 8
backbone.heads = 2
backbone.depth = 1
train.max_epochs = 1
seed = 1
out = out
data.cases = cases.csv
data.mobility = mobility.csv
backbone.weights = backbone.bin
report.inputs = metrics.json
"""

# kind -> (the file, the command run on it, the exit code of that file unreadable)
TARGETS = {
    "cases": ("cases.csv", "train", 3),
    "mobility": ("mobility.csv", "train", 3),
    "config": ("run.cfg", "forecast", 2),  # serving only: no mutated size key is trained
    "checkpoint sidecar": ("out/checkpoint.bin.json", "forecast", 4),
    "checkpoint blob": ("out/checkpoint.bin", "forecast", 4),
    "weights sidecar": ("backbone.bin.json", "train", 4),
    "weights blob": ("backbone.bin", "train", 4),
    "metrics": ("metrics.json", "report", 2),
    "config under train": ("run.cfg", "train", 2),  # explicit examples only
}
PREFIX = {2: "config error:", 3: "data error:", 4: "checkpoint error:", 5: "diverged:"}
TOKENS = ("9223372036854775808", "100000000000000000000", "NaN", '""', '"λé"', "[[1]]")
SENTINEL = "\x00field\x00"


def _mutations(kind):
    name = TARGETS[kind][0]
    where = st.floats(0.0, 1.0)
    # no '/': an inserted byte must not turn a config path into one outside the run's directory
    inserted = st.binary(min_size=1, max_size=4).filter(lambda b: b"/" not in b)
    options = [st.tuples(st.just("truncate"), where), st.tuples(st.just("insert"), where, inserted)]
    if name.endswith((".csv", ".json")):
        options.append(st.tuples(st.just("replace"), st.integers(0, 10**4), st.sampled_from(TOKENS)))
    options.append(st.just(("directory",)))
    return st.one_of(options)


DRAWN = sorted(kind for kind in TARGETS if kind != "config under train")
CASES = st.sampled_from(DRAWN).flatmap(lambda kind: st.tuples(st.just(kind), _mutations(kind)))


def _json_paths(node, path=()):
    """Every value below the document root, parents before children."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _replace(text: str, csv_file: bool, field, token: str) -> str:
    """`text` with one field replaced by `token`: the field-th field, modulo
    their number, or the first one under the column or key named `field`."""
    if csv_file:
        rows = [line.split(",") for line in text.split("\r\n")]  # as the csv module writes them
        cells = [(rows[0][c] if c < len(rows[0]) else None, r, c) for r, row in enumerate(rows) for c in range(len(row))]
        if isinstance(field, str):
            _, r, c = next(cell for cell in cells if cell[0] == field and cell[1] > 0)
        else:
            _, r, c = cells[field % len(cells)]
        rows[r][c] = token
        return "\r\n".join(",".join(row) for row in rows)
    doc = json.loads(text)
    paths = list(_json_paths(doc))
    path = next(p for p in paths if p[-1] == field) if isinstance(field, str) else paths[field % len(paths)]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = SENTINEL
    return json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=False).replace(json.dumps(SENTINEL), token)


def _mutate(target, mutation) -> bytes | None:
    """Apply `mutation` to the file at `target`; the new contents, or None for a directory."""
    with open(target, "rb") as fh:
        data = fh.read()
    if mutation[0] == "directory":
        os.remove(target)
        os.mkdir(target)
        return None
    if mutation[0] == "truncate":
        data = data[: int(mutation[1] * len(data))]
    elif mutation[0] == "insert":
        at = int(mutation[1] * len(data))
        data = data[:at] + mutation[2] + data[at:]
    else:
        data = _replace(data.decode(), target.endswith(".csv"), mutation[1], mutation[2]).encode()
    with open(target, "wb") as fh:
        fh.write(data)
    return data


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _run(root, command) -> tuple[int, str]:
    cwd = os.getcwd()
    err = io.StringIO()
    os.chdir(root)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", "run.cfg"])
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """A directory holding a valid file of every kind: the CSVs, the config,
    exported backbone weights, a checkpoint trained on them and the metrics
    file of its evaluation."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "run.cfg").write_text(CONFIG)
    synth = root / "synth.cfg"
    synth.write_text("synth.regions = 4\nsynth.days = 40\nseed = 1\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--config", str(synth), "--out", str(root)]) == 0
    build_backbone(BackboneConfig(depth=1, width=8, heads=2, seed=5)).export_weights(root / "backbone.bin")
    assert _run(root, "train") == (0, "")
    assert _run(root, "evaluate") == (0, "")
    shutil.move(root / "out" / "metrics.json", root / "metrics.json")
    return root


# an explicit example names the code it must exit with, or the code and a fragment of its message
@given(case=CASES, expected=st.none())
@example(case=("cases", ("replace", "new_cases", "99999999999999999999")), expected=3)
@example(case=("cases", ("insert", 0.5, b"\xff")), expected=3)
@example(case=("mobility", ("insert", 0.5, b"\xff")), expected=3)
@example(case=("cases", ("directory",)), expected=3)
@example(case=("mobility", ("directory",)), expected=3)
@example(case=("config", ("insert", 1.0, b"data.cases =\n")), expected=2)
@example(case=("config", ("insert", 1.0, b"backbone.weights =\n")), expected=2)
@example(case=("config", ("directory",)), expected=2)
@example(case=("config", ("insert", 0.5, b"\xff")), expected=2)
@example(case=("config", ("insert", 1.0, b"out = cases.csv\n")), expected=2)
@example(case=("checkpoint sidecar", ("directory",)), expected=4)
@example(case=("checkpoint blob", ("directory",)), expected=4)
@example(case=("checkpoint sidecar", ("replace", "format", "[" * 100000 + "]" * 100000)), expected=4)
@example(case=("checkpoint sidecar", ("replace", "meta", "[1]")), expected=4)
@example(case=("checkpoint sidecar", ("replace", "offset", "100000000000000000000")), expected=4)
@example(case=("config under train", ("insert", 1.0, b"checkpoint = cases.csv/checkpoint.bin\n")), expected=4)
@example(case=("metrics", ("replace", "reports", "[]")), expected=2)
@example(case=("metrics", ("replace", "dataset", "[[1]]")), expected=2)
@example(case=("cases", ("replace", "region_id", '""')), expected=(3, "empty region id"))
@example(case=("mobility", ("replace", "dst_region", '""')), expected=(3, "empty region id"))
@example(case=("mobility", ("replace", "date", "2100-01-01")), expected=(3, "rows on dates outside the expected axis"))
@example(case=("checkpoint sidecar", ("replace", "kind", '"backbone"')), expected=(4, "is not a model checkpoint"))
@example(case=("checkpoint sidecar", ("replace", "format", '"npz"')), expected=(4, "unsupported weight format 'npz'"))
@example(case=("checkpoint sidecar", ("replace", "tokenizer_mode", '"bogus"')), expected=(4, "unknown tokenizer mode"))
@example(case=("checkpoint sidecar", ("replace", "gating_mode", '"bogus"')), expected=(4, "unknown gating mode"))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_a_mutated_input_file_never_exits_one(template, case, expected):
    kind, mutation = case
    name, command, unreadable = TARGETS[kind]
    root = tempfile.mkdtemp(dir=template.parent)
    try:
        shutil.copytree(template, root, dirs_exist_ok=True)
        data = _mutate(os.path.join(root, name), mutation)
        code, err = _run(root, command)
    finally:
        shutil.rmtree(root)
    assert code != 1, (kind, mutation, err)
    assert code == 0 or err.startswith(PREFIX[code]), (kind, mutation, code, err)
    if data is None or (name.endswith((".csv", ".json", ".cfg")) and not _is_utf8(data)):
        assert code == unreadable, (kind, mutation, code, err)
    if expected is not None:
        expected_code, says = expected if isinstance(expected, tuple) else (expected, "")
        assert code == expected_code and says in err, (kind, mutation, code, err)

