"""Config domains: one table of every key's range, held to the CLI and the README.

For every numeric key, values just outside its domain (and NaN and ±inf for a
float key) exit 2 with "config error:" under a command that reads the key, and
values just inside it never exit 1.  The runs are tiny (4 regions, 40 days,
width 8, one epoch) and never ask for large sizes: the sizes too large to
allocate are the explicit cases in test_cli.py.
"""

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicast.cli import CONFIG_SCHEMA, main, resolve_config
from epicast.evalharness import ABLATION_VARIANTS

README = Path(__file__).resolve().parent.parent / "README.md"

# every run starts from this config; bounds below are the domains at these values
BASE = {
    "synth.regions": "4",
    "synth.days": "40",
    "w": "2",
    "horizon": "2",
    "split.test": "2",
    "split.val": "2",
    "backbone.width": "8",
    "backbone.heads": "2",
    "backbone.depth": "1",
    "train.max_epochs": "1",
}
DAYS, REGIONS, W, WIDTH = 40, 4, 2, 8


@dataclass(frozen=True)
class Domain:
    """A key's range as the README states it and, for a numeric key, its
    inclusive bounds at BASE (None: unbounded on that side) and a command that
    reads it."""

    text: str
    command: str | None = None  # None: not numeric, not drawn
    low: float | None = None
    high: float | None = None
    real: bool = False  # a float key: NaN and ±inf lie outside
    open_low: bool = False
    open_high: bool = False
    excluded: tuple = ()  # values between the bounds that lie outside


BOTH_OR_NEITHER = "an existing file; both or neither"
SPLIT = "≥ 1; split.test + split.val < series length"
DOMAINS = {
    "dataset.name": Domain("any label"),
    "data.cases": Domain(BOTH_OR_NEITHER),
    "data.mobility": Domain(BOTH_OR_NEITHER),
    "synth.regions": Domain("≥ 1", "synth", low=1),
    "synth.days": Domain("≥ 1", "synth", low=1),
    "synth.beta": Domain("finite, ≥ 0", "synth", low=0.0, real=True),
    "synth.gamma_rec": Domain("(0, 1)", "synth", low=0.0, high=1.0, real=True, open_low=True, open_high=True),
    "synth.seed_region": Domain("0 … synth.regions − 1", "synth", low=0, high=REGIONS - 1),
    "synth.population": Domain("1 … 2⁶³ − 1", "synth", low=1, high=2**63 - 1),
    "w": Domain("1 … series length", "train", low=1, high=DAYS),
    "horizon": Domain("≥ 1, a multiple of w", "forecast", low=1, excluded=(3, 5, 7)),
    "epsilon": Domain("finite", "train", real=True),
    "scale": Domain("true or false"),
    "split.test": Domain(SPLIT, "train", low=1, high=DAYS - 2 - 1),
    "split.val": Domain(SPLIT, "train", low=1, high=DAYS - 2 - 1),
    "backbone.mode": Domain("`frozen-transformer`, `trainable-transformer`, `mlp`, `rnn`, `identity`"),
    "backbone.depth": Domain("≥ 0", "train", low=0),  # no upper draws: the parameter bound is this machine's memory
    "backbone.width": Domain("≥ 1", "train", low=1),
    "backbone.heads": Domain(
        "1 … backbone.width, dividing it (transformer modes)", "train", low=1, high=WIDTH, excluded=(3, 5, 6, 7)
    ),
    "backbone.max_positions": Domain("≥ 1", "train", low=1),
    "backbone.seed": Domain("≥ 0", "train", low=0),
    "backbone.weights": Domain("an existing file"),
    "model.mob_hidden": Domain("≥ 0", "train", low=0),
    "train.lambda": Domain("finite, ≥ 0", "train", low=0.0, real=True),
    "train.lr": Domain("finite, > 0", "train", low=0.0, real=True, open_low=True),
    "train.max_epochs": Domain("≥ 1", "train", low=1),
    "train.patience": Domain("≥ 1", "train", low=1),
    "train.loss_form": Domain("`mean-squared`, `mean-l2-norm`"),
    "forecast.context_end": Domain("w … series length", "forecast", low=W, high=DAYS),
    "ablate.variants": Domain("a non-empty comma-separated subset of the ten variants"),
    "report.inputs": Domain("comma-separated metrics.json files"),
    "checkpoint": Domain("a path"),
    "out": Domain("a directory"),
    "seed": Domain("≥ 0", "train", low=0),
}
NUMERIC = sorted(key for key, d in DOMAINS.items() if d.command is not None)


def _outside(d: Domain):
    if not d.real:
        sides = [st.sampled_from(d.excluded)] if d.excluded else []
        if d.low is not None:
            sides.append(st.integers(d.low - 5, d.low - 1))
        if d.high is not None:
            sides.append(st.integers(d.high + 1, d.high + 5))
        return st.one_of(sides)
    sides = [st.sampled_from([math.nan, math.inf, -math.inf])]
    if d.low is not None:
        sides.append(st.floats(d.low - 1.0, d.low, exclude_max=not d.open_low))
    if d.high is not None:
        sides.append(st.floats(d.high, d.high + 1.0, exclude_min=not d.open_high))
    return st.one_of(sides)


def _inside(d: Domain):
    if not d.real:
        sides = [st.integers(d.low, d.low + 3)]
        if d.high is not None:
            sides.append(st.integers(d.high - 3, d.high))
        return st.one_of(sides)
    if d.low is None:
        return st.floats(-10.0, 10.0)
    sides = [st.floats(d.low, d.low + 1.0, exclude_min=d.open_low)]
    if d.high is not None:
        sides.append(st.floats(d.high - 1.0, d.high, exclude_max=d.open_high))
    return st.one_of(sides)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A scratch directory holding a checkpoint trained on BASE, for forecasts."""
    root = tmp_path_factory.mktemp("domains")
    assert _run(root, "train", {"checkpoint": str(root / "base.bin")})[0] == 0
    return root


def _run(root: Path, command: str, extra: dict) -> tuple[int, str]:
    raw = {**BASE, **extra}
    if command == "forecast":
        raw.setdefault("checkpoint", str(root / "base.bin"))
    cfg = root / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(cfg), "--out", str(root / "out")])
    return code, err.getvalue()


def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("key", NUMERIC)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_values_just_outside_a_domain_exit_two(workdir, key, data):
    d = DOMAINS[key]
    value = data.draw(_outside(d), label=key)
    code, err = _run(workdir, d.command, {key: _text(value)})
    assert code == 2 and "config error:" in err, (key, value, code, err)


@pytest.mark.parametrize("key", NUMERIC)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_values_just_inside_a_domain_never_exit_one(workdir, key, data):
    d = DOMAINS[key]
    value = data.draw(_inside(d), label=key)
    code, err = _run(workdir, d.command, {key: _text(value)})
    assert code != 1, (key, value, err)


def _readme_column(column: int) -> dict[str, str]:
    """key -> cell of the README's config table in the given column."""
    rows, inside = {}, False
    for line in README.read_text().splitlines():
        if line.startswith("| key | default | range |"):
            inside = True
        elif inside and line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            rows[cells[0].strip("`")] = cells[column]
        elif inside and not line.startswith("|"):
            break
    return rows


def test_the_domain_table_covers_every_schema_key():
    assert set(DOMAINS) == set(CONFIG_SCHEMA)
    for key in NUMERIC:
        assert CONFIG_SCHEMA[key][0] is (float if DOMAINS[key].real else int), key


def test_readme_states_every_key_with_the_same_range():
    assert _readme_column(2) == {key: d.text for key, d in DOMAINS.items()}


DERIVED = ("backbone.seed", "checkpoint", "out", "forecast.context_end")  # worked out from other keys


def test_readme_states_every_key_with_its_default():
    cells = _readme_column(1)
    defaults = resolve_config({}).values
    assert set(cells) == set(defaults)
    for key, cell in cells.items():
        if key in DERIVED:
            assert cell != "unset", key
        elif key == "ablate.variants":
            assert cell == "all ten" and defaults[key].split(",") == list(ABLATION_VARIANTS), key
        elif defaults[key] is None:
            assert cell == "unset", key
        else:
            assert CONFIG_SCHEMA[key][0](cell.split()[0].strip("`")) == defaults[key], (key, cell)
