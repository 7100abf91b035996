"""Loading, validation, windowing, splitting, and synthesis of epidemic data.

Two CSV schemas are ingested:

* cases:    ``date,region_id,new_cases``  (one row per day and region)
* mobility: ``date,src_region,dst_region,weight``  (absent pairs = zero flow)

Each file is read in one streamed pass, line by line, onto one axis: the case
file loads into a ``CaseTable`` of (T, N) counts, and the mobility file into a
plain (T, N, N) flows array on that table's dates and regions.
``build_dataset`` turns the two into per-day feature rows holding the last
``w`` daily counts and per-day mobility matrices.  The adjacency is that
mobility, thresholded, and is never stored: ``adjacency`` reads any window's
adjacency from model-space mobility, the threshold ``epsilon`` and the scale
``mob_scale``, by the one rule that a flow is an edge when its raw value
``M * mob_scale`` exceeds ``epsilon``.  ``synth_sir`` generates a fully
deterministic SIR-on-a-mobility-graph dataset.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class DataError(Exception):
    """Base class for dataset validation failures."""


class ConfigError(ValueError):
    """A configured value outside its domain; the CLI exits 2 on it and its subclasses."""


def check_field_types(config, error: type[ConfigError] = ConfigError) -> None:
    """Raise `error` naming the first field of dataclass `config` whose value
    its type does not admit: an ``int`` field an integer (a numpy integer is
    one, a bool is not), a ``float`` field a real number (an int, a float, a
    numpy integer or a numpy floating, not a bool) and a ``bool`` field a
    bool.  An int or float field is replaced by the Python int or float it
    holds, so a narrow numpy one neither overflows nor rounds in the
    arithmetic the config sizes."""
    numbers = {"int": ((int, np.integer), "an integer"), "float": ((int, float, np.integer, np.floating), "a real number")}
    for f in fields(config):
        value, kind = getattr(config, f.name), getattr(f.type, "__name__", f.type)  # a class, or its name
        if kind == "bool" and not isinstance(value, bool):
            raise error(f"{f.name} must be true or false, got {value!r}")
        if kind in numbers:
            admitted, noun = numbers[kind]
            if isinstance(value, bool) or not isinstance(value, admitted):
                raise error(f"{f.name} must be {noun}, got {value!r}")
            try:
                object.__setattr__(config, f.name, int(value) if kind == "int" else float(value))  # the configs are frozen
            except OverflowError:
                raise error(f"{f.name} is too large for a float, got {value!r}") from None


class MalformedRowError(DataError):
    pass


class DateFormatError(DataError):
    pass


class DateGapError(DataError):
    pass


class DuplicateRowError(DataError):
    pass


class NegativeCountError(DataError):
    pass


class NegativeWeightError(DataError):
    pass


class RegionMismatchError(DataError):
    pass


class InvalidSplitError(DataError, ConfigError):
    """A split that holds out nothing or the whole series."""


def read_file(path, error: type[Exception], what: str, binary: bool = False):
    """The input file at `path`: its bytes with `binary`, else its UTF-8 lines.

    Every input file is read here, so what an unreadable file means is decided
    in one place: one that is missing, a directory, unreadable or not UTF-8
    raises `error` with a message that starts with `what` and the path.

    A text read yields the file's lines as it reads them, each with its
    terminator, split where a file opened with ``newline=""`` splits them
    (at "\\r\\n", "\\r" or "\\n"), so no copy of the whole file is held.  The
    file is opened at the first line asked for and decoded in pieces as it is
    read, so a decode error surfaces when the reading reaches the piece that
    holds the bad bytes, after the lines of the pieces before it; the byte
    position it names counts from the start of that piece."""

    def read():
        try:
            with open(path, "rb") if binary else open(path, encoding="utf-8", newline="") as fh:
                yield from (fh.read(),) if binary else fh
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL byte in the path
            raise error(f"{what} {path}: {exc}") from exc

    return b"".join(read()) if binary else read()  # join returns a lone bytes chunk as it is


def _records(path, what: str, header: list[str], parse) -> None:
    """Call `parse(row)` on each non-empty data row of the CSV file at `path`,
    in file order, after checking the file's header is `header` and each row
    has that many fields; `what` names the file in a read error.

    A DataError that a row raises gets the row's ``path:line`` put before its
    message, the line being the last one the row spans (a quoted field may
    hold a line break), so that text is built only for a bad row."""
    reader = csv.reader(read_file(path, DataError, what))
    first = next(reader, None)
    if first is None or [h.strip() for h in first] != header:
        raise MalformedRowError(f"{path}: expected header '{','.join(header)}'")
    for row in reader:
        try:
            if len(row) == len(header):
                parse(row)
            elif row:
                raise MalformedRowError(f"expected {len(header)} fields, got {len(row)}")
        except DataError as exc:
            exc.args = (f"{path}:{reader.line_num}: {exc}",)
            raise


def _parse_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise DateFormatError(f"bad date {text!r} (expected ISO-8601)") from exc


# -- tables ---------------------------------------------------------------------


@dataclass
class CaseTable:
    """Daily new-case counts per region on a gapless, strictly increasing date axis."""

    dates: list[dt.date]
    regions: list[str]
    counts: np.ndarray  # (T, N) int64, >= 0

    def __post_init__(self):
        T, N = len(self.dates), len(self.regions)
        counts = np.asarray(self.counts)
        if counts.shape != (T, N):
            raise MalformedRowError(f"counts shape {counts.shape} != ({T}, {N})")
        # numpy holds Python ints past 64 bits as objects
        ints = counts.dtype.kind in "iu" or (counts.dtype == object and all(type(c) is int for c in counts.flat))
        if ints:  # an integer count must be one that int64 holds
            bad = (counts < -(2**63)) | (counts >= 2**63)
        elif counts.dtype.kind == "f":  # a float count must be a finite integer that int64 holds
            bad = ~((counts == np.trunc(counts)) & (np.abs(counts) < 2.0**63))  # NaN and inf fail
        else:
            raise MalformedRowError(f"counts of dtype {counts.dtype} are neither integers nor floats")
        if bad.any():
            t, i = np.argwhere(bad)[0]
            what = f"count {counts[t, i]} of {self.regions[i]} on {self.dates[t]}"
            raise MalformedRowError(f"{what} is not an integer in int64's range")
        self.counts = np.asarray(counts, dtype=np.int64)
        if np.any(self.counts < 0):
            raise NegativeCountError("case counts must be nonnegative")
        for a, b in zip(self.dates, self.dates[1:]):
            if (b - a).days != 1:
                raise DateGapError(f"date gap between {a} and {b}")

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def n_days(self) -> int:
        return len(self.dates)


def load_cases(path) -> CaseTable:
    """Parse a case CSV; raises a named DataError per kind of defect."""
    per_date: dict[dt.date, dict[str, int]] = {}
    regions: set[str] = set()

    def add(row: list[str]) -> None:
        day = _parse_date(row[0])
        region = row[1].strip()
        if not region:
            raise MalformedRowError("empty region id")
        try:
            count = int(row[2])
        except ValueError as exc:
            raise MalformedRowError(f"bad count {row[2]!r}") from exc
        if count < 0:
            raise NegativeCountError(f"negative count {count}")
        if count >= 2**63:
            raise MalformedRowError(f"count {count} does not fit in 64 bits")
        bucket = per_date.setdefault(day, {})
        if region in bucket:
            raise DuplicateRowError(f"duplicate entry for ({day}, {region})")
        bucket[region] = count
        regions.add(region)

    _records(path, "case file", ["date", "region_id", "new_cases"], add)
    if not per_date:
        raise MalformedRowError(f"{path}: no data rows")
    dates = sorted(per_date)
    region_list = sorted(regions)
    counts = np.zeros((len(dates), len(region_list)), dtype=np.int64)
    for t, day in enumerate(dates):
        bucket = per_date[day]
        missing = set(region_list) - set(bucket)
        if missing:
            raise MalformedRowError(f"{path}: day {day} missing regions {sorted(missing)[:3]}")
        for i, region in enumerate(region_list):
            counts[t, i] = bucket[region]
    return CaseTable(dates=dates, regions=region_list, counts=counts)


def load_mobility(path, cases: CaseTable) -> np.ndarray:
    """Parse a mobility CSV into the (T, N, N) float64 flows array on the case
    table's axis: ``flows[t, i, j]`` is the flow from ``cases.regions[i]`` to
    ``cases.regions[j]`` on ``cases.dates[t]``.

    An empty file yields all-zero flows, and unlisted pairs or days keep zero
    flow.  Each row is added into the array as it is read, in file order, so
    rows repeating a (date, src, dst) sum.  A row on a date the case file
    lacks, or naming a region it lacks, fails at its own ``path:line``.
    """
    t_of = {day: t for t, day in enumerate(cases.dates)}
    r_of = {region: i for i, region in enumerate(cases.regions)}
    t_of_text: dict[str, int] = {}  # each distinct date text is parsed once
    flows = np.zeros((len(cases.dates), len(cases.regions), len(cases.regions)), dtype=np.float64)

    def add(row: list[str]) -> None:
        t = t_of_text.get(row[0])
        if t is None:
            day = _parse_date(row[0])
            if day not in t_of:
                raise MalformedRowError(f"rows on dates outside the expected axis: {day} is not a case date")
            t = t_of_text[row[0]] = t_of[day]
        src, dst = row[1].strip(), row[2].strip()
        if not (src and dst):
            raise MalformedRowError("empty region id")
        try:
            wgt = float(row[3])
        except ValueError as exc:
            raise MalformedRowError(f"bad weight {row[3]!r}") from exc
        if not math.isfinite(wgt) or wgt < 0:
            raise NegativeWeightError(f"negative or non-finite weight {wgt}")
        i, j = r_of.get(src), r_of.get(dst)
        if i is None or j is None:
            raise RegionMismatchError(f"mobility references unknown region {src if i is None else dst!r}")
        flows[t, i, j] += wgt

    _records(path, "mobility file", ["date", "src_region", "dst_region", "weight"], add)
    return flows


# -- dense dataset -----------------------------------------------------------------


def window_features(counts: np.ndarray, w: int) -> np.ndarray:
    """(T, N) daily values -> (T, N, w) rows of the last w values, newest last.

    Days before the series start are zero-padded, so row t is exactly
    counts[t-w+1 .. t] with missing history as zeros.
    """
    counts = np.asarray(counts, dtype=np.float64)
    padded = np.concatenate((np.zeros((w - 1, counts.shape[1])), counts))  # np.pad is slower here
    return sliding_window_view(padded, w, axis=0).copy()


@dataclass
class EpidemicDataset:
    """Aligned per-day case features and mobility, from which ``adjacency``
    reads the thresholded adjacency of any window at the dataset's
    ``epsilon`` and ``mob_scale``; no threshold mask is kept."""

    N: int
    T: int
    w: int
    X: np.ndarray  # (T, N, F) feature rows, F == w, model space
    M: np.ndarray  # (T, N, N) mobility, model space, no -0.0; may be the caller's flows array
    region_names: list[str]
    dates: list[dt.date]
    counts: np.ndarray  # (T, N) raw integer daily new cases
    case_scale: np.ndarray  # (N,) divide raw counts by this to enter model space
    mob_scale: float  # divide raw flows by this to enter model space
    epsilon: float  # adjacency threshold, raw flow units

    def served_space(self) -> dict:
        """The model space a model trained on this dataset serves, as a JSON
        record: the region ids in order (the mobility projector's rows and the
        mobility adapter's columns), the window length, the adjacency
        threshold, and the scales that take counts and flows into model space."""
        return dict(regions=list(self.region_names), w=self.w, epsilon=float(self.epsilon),
                    case_scale=self.case_scale.tolist(), mob_scale=self.mob_scale)


def adjacency(M: np.ndarray, epsilon: float, mob_scale: float) -> np.ndarray:
    """The adjacency of model-space mobility `M`, a patch's window of days or
    any stack of flow matrices: each flow whose raw value ``M * mob_scale``
    exceeds `epsilon`, and 0 elsewhere.  With ``epsilon <= 0`` it is `M`
    itself: a flow is >= 0 and never -0.0, so every flow exceeds such a
    threshold or is 0.0."""
    return M if epsilon <= 0 else np.where(M * mob_scale > epsilon, M, 0.0)


def build_dataset(
    cases: CaseTable,
    flows: np.ndarray,
    w: int,
    epsilon: float = 0.0,
    scale: bool = False,
) -> EpidemicDataset:
    """Window the case features and take the mobility, a table and a flows
    array on one axis.

    `flows` is the (T, N, N) array on the case table's dates and regions that
    ``load_mobility`` and ``synth_sir_tables`` return: ``flows[t, i, j]`` is
    the flow from region i to region j on day t.  An array of another shape
    raises a MalformedRowError, and a negative or non-finite flow a
    NegativeWeightError naming the regions and the date.  With ``scale`` on,
    counts are divided by each region's series maximum and flows by the
    global flow maximum; forecasts are mapped back to raw units on output.
    Scaling uses the whole series (the toggle conditions the optimization, it
    is not a fitted preprocessing step).

    The dataset's ``M`` is the caller's `flows` array itself, not a copy, when
    ``scale`` is off, the array is C-ordered float64 and no flow is -0.0;
    otherwise it is a new array.  Either way nothing here writes into the
    caller's arrays, and a caller that later writes into a shared `flows`
    changes the dataset's mobility with it.
    """
    if w < 1:
        raise ConfigError(f"window length must be >= 1, got {w}")
    if not np.isfinite(epsilon):
        raise ConfigError(f"epsilon must be finite, got {epsilon}")
    counts = cases.counts
    T, N = counts.shape
    if w > T:
        raise ConfigError(f"window length w={w} is longer than the {T}-day series: no patch fits")
    flows = np.asarray(flows, dtype=np.float64)
    if flows.shape != (T, N, N):
        raise MalformedRowError(f"flows shape {flows.shape} != ({T}, {N}, {N})")
    # two reductions, no array of the table's size, unless a flow is bad
    if not (flows.min(initial=0.0) >= 0.0 and flows.max(initial=0.0) < np.inf):
        t, i, j = np.argwhere(~(np.isfinite(flows) & (flows >= 0)))[0]
        regions = cases.regions
        raise NegativeWeightError(f"flow {regions[i]}->{regions[j]} on {cases.dates[t]} has weight {flows[t, i, j]}")

    if scale:
        case_scale = counts.max(axis=0).astype(np.float64)
        case_scale[case_scale <= 0] = 1.0
        mob_scale = float(flows.max())
        if mob_scale <= 0:
            mob_scale = 1.0
    else:
        case_scale = np.ones(N, dtype=np.float64)
        mob_scale = 1.0

    counts_model = counts.astype(np.float64) / case_scale[None, :]
    # model-space flows are C-ordered and hold no -0.0, so that `adjacency` is a view of them
    # at epsilon <= 0; an unscaled table that already is so is used as it is, any other is copied
    if scale or not flows.flags.c_contiguous or np.signbit(flows).any():
        M = np.add(flows, 0.0, order="C")  # -0.0 + 0.0 is 0.0
        M /= mob_scale
    else:
        M = flows
    try:
        X = window_features(counts_model, w)
    except MemoryError as exc:
        why = str(exc) or "out of memory building the windows"
        raise ConfigError(f"window length w={w} over {T} days and {N} regions does not fit in memory ({why})") from exc
    return EpidemicDataset(
        N=N,
        T=T,
        w=w,
        X=X,
        M=M,
        region_names=list(cases.regions),
        dates=list(cases.dates),
        counts=counts,
        case_scale=case_scale,
        mob_scale=mob_scale,
        epsilon=epsilon,
    )


@dataclass(frozen=True)
class SplitSpec:
    test_len: int
    val_len: int

    def __post_init__(self):
        check_field_types(self, InvalidSplitError)
        if self.test_len < 1 or self.val_len < 1:
            raise InvalidSplitError("test_len and val_len must both be positive")


@dataclass(frozen=True)
class Splits:
    train: range
    val: range
    test: range


def split_dataset(ds_or_T, spec: SplitSpec) -> Splits:
    """Temporally ordered split: test = last days, val right before it."""
    T = ds_or_T if isinstance(ds_or_T, int) else ds_or_T.T
    held = spec.test_len + spec.val_len
    if held >= T:
        raise InvalidSplitError(f"test+val = {held} must be < T = {T}")
    train_end = T - held
    val_end = T - spec.test_len
    return Splits(train=range(0, train_end), val=range(train_end, val_end), test=range(val_end, T))


# -- synthetic SIR-on-a-graph data ---------------------------------------------------


@dataclass(frozen=True)
class SirParams:
    beta: float = 0.4  # daily transmission rate
    gamma_rec: float = 0.2  # daily recovery probability
    seed_region: int = 0
    population: int = 5000  # per region

    def __post_init__(self):
        check_field_types(self)
        if self.beta < 0 or not np.isfinite(self.beta):
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if not (0 < self.gamma_rec < 1):
            raise ConfigError(f"gamma_rec must lie in (0, 1), got {self.gamma_rec}")
        if not 0 < self.population < 2**63:  # counts are int64
            raise ConfigError(f"population must be positive and below 2**63, got {self.population}")


@dataclass
class SirSimulation:
    """Full state history of a synthetic run (for inspection and testing)."""

    counts: np.ndarray  # (T, N) daily S->I transitions
    susceptible: np.ndarray  # (T, N)
    infected: np.ndarray  # (T, N)
    recovered: np.ndarray  # (T, N)
    mobility: np.ndarray  # (T, N, N)
    population: np.ndarray  # (N,)


@np.errstate(over="ignore", invalid="ignore")  # a huge beta * S overflows to inf, and inf * 0 is nan
def simulate_sir(
    n_regions: int,
    n_days: int,
    sir_params: SirParams | None = None,
    rng_seed: int = 0,
) -> SirSimulation:
    """Discrete-day SIR over a random directed mobility graph.

    Daily new cases are the integer S->I transitions; S+I+R stays exactly
    equal to the population in every region.  Mobility is a seeded stationary
    base graph with mild multiplicative daily noise.  Bitwise deterministic
    for a given rng_seed.
    """
    p = sir_params or SirParams()
    if n_regions < 1 or n_days < 1:
        raise ConfigError("need at least one region and one day")
    if not (0 <= p.seed_region < n_regions):
        raise ConfigError(f"seed_region {p.seed_region} outside 0..{n_regions - 1}")
    if rng_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {rng_seed}")
    rng = np.random.default_rng(rng_seed)
    if n_days * n_regions * n_regions * 8 >= 2**63:  # past what numpy can address
        raise MemoryError(f"a ({n_days}, {n_regions}, {n_regions}) float64 mobility series passes 2**63 bytes")

    pop = np.full(n_regions, p.population, dtype=np.int64)
    # stationary flow graph: sparse off-diagonal travel plus heavy stay-at-home diagonal
    base = rng.uniform(0.0, 0.02 * p.population, size=(n_regions, n_regions))
    base *= rng.random((n_regions, n_regions)) < 0.5
    np.fill_diagonal(base, rng.uniform(0.2, 0.4, size=n_regions) * p.population)
    # base * (1 + noise), clipped at 0, in place in the noise's array
    M = rng.uniform(-0.1, 0.1, size=(n_days, n_regions, n_regions))
    M += 1.0
    M *= base[None]
    np.maximum(M, 0.0, out=M)

    S = pop.copy()
    I = np.zeros(n_regions, dtype=np.int64)
    R = np.zeros(n_regions, dtype=np.int64)
    seeds = max(1, p.population // 100)
    counts = np.zeros((n_days, n_regions), dtype=np.int64)
    S_hist = np.zeros((n_days, n_regions), dtype=np.int64)
    I_hist = np.zeros((n_days, n_regions), dtype=np.int64)
    R_hist = np.zeros((n_days, n_regions), dtype=np.int64)
    S[p.seed_region] -= seeds
    I[p.seed_region] += seeds
    counts[0, p.seed_region] = seeds
    S_hist[0], I_hist[0], R_hist[0] = S, I, R

    for t in range(1, n_days):
        # contact weights at region i: inflows from j (people j brings to i)
        contact = M[t].T.copy()
        contact /= contact.sum(axis=1, keepdims=True) + 1e-12
        pressure = contact @ (I / pop)
        rate = p.beta * S * pressure
        rate[pressure == 0] = 0.0  # no pressure, no new cases, even where beta * S is inf
        fits = rate < S  # clamp to S before the cast, so no rate past int64 is cast
        new_inf = S.copy()
        new_inf[fits] = np.rint(rate[fits])
        new_rec = np.minimum(np.rint(p.gamma_rec * I).astype(np.int64), I)
        S = S - new_inf
        I = I + new_inf - new_rec
        R = R + new_rec
        counts[t] = new_inf
        S_hist[t], I_hist[t], R_hist[t] = S, I, R

    return SirSimulation(
        counts=counts,
        susceptible=S_hist,
        infected=I_hist,
        recovered=R_hist,
        mobility=M,
        population=pop,
    )


def synth_sir_tables(
    n_regions: int,
    n_days: int,
    sir_params: SirParams | None = None,
    rng_seed: int = 0,
) -> tuple[CaseTable, np.ndarray]:
    """The case table and the (T, N, N) flows array of a synthetic run."""
    sim = simulate_sir(n_regions, n_days, sir_params, rng_seed)
    start = dt.date(2021, 1, 1)
    dates = [start + dt.timedelta(days=t) for t in range(n_days)]
    regions = [f"R{i:03d}" for i in range(n_regions)]
    return CaseTable(dates=dates, regions=regions, counts=sim.counts), sim.mobility


def synth_sir(
    n_regions: int,
    n_days: int,
    sir_params: SirParams | None = None,
    rng_seed: int = 0,
    w: int = 3,
    epsilon: float = 0.0,
    scale: bool = False,
) -> EpidemicDataset:
    cases, flows = synth_sir_tables(n_regions, n_days, sir_params, rng_seed)
    return build_dataset(cases, flows, w=w, epsilon=epsilon, scale=scale)


# -- CSV emission ---------------------------------------------------------------------


def write_cases_csv(cases: CaseTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "region_id", "new_cases"])
        for t, day in enumerate(cases.dates):
            for i, region in enumerate(cases.regions):
                writer.writerow([day.isoformat(), region, int(cases.counts[t, i])])


def write_mobility_csv(cases: CaseTable, flows: np.ndarray, path) -> None:
    """Write each nonzero flow of the (T, N, N) `flows` on `cases`' axis as
    one row; a weight is its float's ``repr``, so ``load_mobility`` reads
    back the array bitwise."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "src_region", "dst_region", "weight"])
        for t, i, j in np.argwhere(flows):  # nonzero entries in (t, i, j) order
            day, src, dst = cases.dates[t], cases.regions[i], cases.regions[j]
            writer.writerow([day.isoformat(), src, dst, repr(float(flows[t, i, j]))])
