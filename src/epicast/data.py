"""Loading, validation, windowing, splitting, and synthesis of epidemic data.

Two CSV schemas are ingested:

* cases:    ``date,region_id,new_cases``  (one row per day and region)
* mobility: ``date,src_region,dst_region,weight``  (absent pairs = zero flow)

Each loads into a dense table: (T, N) counts, (T, R, R) flows.  ``build_dataset``
aligns the two into per-day feature rows holding the last ``w`` daily counts and
per-day mobility matrices.  The adjacency is that mobility, thresholded: with a
positive ``epsilon`` the dataset keeps a boolean mask of the flows above it, and
``adjacency`` reads any window's adjacency from the mobility and that mask.
``synth_sir`` generates a fully deterministic SIR-on-a-mobility-graph dataset.
"""

from __future__ import annotations

import csv
import datetime as dt
import re
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class DataError(Exception):
    """Base class for dataset validation failures."""


class ConfigError(ValueError):
    """A configured value outside its domain; the CLI exits 2 on it and its subclasses."""


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


class EmptyOverlapError(DataError):
    pass


class InvalidSplitError(DataError, ConfigError):
    """A split that holds out nothing or the whole series."""


def read_file(path, error: type[Exception], what: str, binary: bool = False) -> str | bytes:
    """The contents of the input file at `path`: UTF-8 text, or bytes with `binary`.

    Every input file is read here, so what an unreadable file means is decided
    in one place: one that is missing, a directory, unreadable or not UTF-8
    raises `error` with a message that starts with `what` and the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return data if binary else data.decode("utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL byte in the path
        raise error(f"{what} {path}: {exc}") from exc


# one line of text with its terminator, split where a file opened with
# newline="" splits it: at "\r\n", "\r" or "\n"
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def _csv_rows(text: str):
    """A csv.reader over `text`, fed its lines one at a time, so parsing holds
    no second copy of the file (an io.StringIO would, at 4 bytes a character)."""
    return csv.reader(line.group() for line in _LINE.finditer(text))


def _records(path, what: str, header: list[str]):
    """``(where, row)`` for each non-empty data row of the CSV file at `path`,
    `where` its ``path:line``, after checking the file's header is `header`
    and each row has that many fields; `what` names the file in a read error."""
    reader = _csv_rows(read_file(path, DataError, what))
    first = next(reader, None)
    if first is None or [h.strip() for h in first] != header:
        raise MalformedRowError(f"{path}: expected header '{','.join(header)}'")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise MalformedRowError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        yield f"{path}:{lineno}", row


def _parse_date(text: str, where: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise DateFormatError(f"{where}: bad date {text!r} (expected ISO-8601)") from exc


# -- tables ---------------------------------------------------------------------


@dataclass
class CaseTable:
    """Daily new-case counts per region on a gapless, strictly increasing date axis."""

    dates: list[dt.date]
    regions: list[str]
    counts: np.ndarray  # (T, N) int64, >= 0

    def __post_init__(self):
        T, N = len(self.dates), len(self.regions)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (T, N):
            raise MalformedRowError(f"counts shape {self.counts.shape} != ({T}, {N})")
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


@dataclass
class MobilityTable:
    """Daily directed flows as a dense table: ``flows[t, i, j]`` is the flow
    from ``regions[i]`` to ``regions[j]`` on ``dates[t]``; unlisted pairs are zero."""

    dates: list[dt.date]
    regions: list[str]
    flows: np.ndarray  # (T, R, R) float64, finite and >= 0

    def __post_init__(self):
        T, R = len(self.dates), len(self.regions)
        self.flows = np.asarray(self.flows, dtype=np.float64)
        if self.flows.shape != (T, R, R):
            raise MalformedRowError(f"flows shape {self.flows.shape} != ({T}, {R}, {R})")
        # two reductions, no array of the table's size, unless a flow is bad
        if not (self.flows.min(initial=0.0) >= 0.0 and self.flows.max(initial=0.0) < np.inf):
            t, i, j = np.argwhere(~(np.isfinite(self.flows) & (self.flows >= 0)))[0]
            wgt = self.flows[t, i, j]
            raise NegativeWeightError(f"flow {self.regions[i]}->{self.regions[j]} on {self.dates[t]} has weight {wgt}")


def load_cases(path) -> CaseTable:
    """Parse a case CSV; raises a named DataError per kind of defect."""
    per_date: dict[dt.date, dict[str, int]] = {}
    regions: set[str] = set()
    for where, row in _records(path, "case file", ["date", "region_id", "new_cases"]):
        day = _parse_date(row[0], where)
        region = row[1].strip()
        if not region:
            raise MalformedRowError(f"{where}: empty region id")
        try:
            count = int(row[2])
        except ValueError as exc:
            raise MalformedRowError(f"{where}: bad count {row[2]!r}") from exc
        if count < 0:
            raise NegativeCountError(f"{where}: negative count {count}")
        if count >= 2**63:
            raise MalformedRowError(f"{where}: count {count} does not fit in 64 bits")
        bucket = per_date.setdefault(day, {})
        if region in bucket:
            raise DuplicateRowError(f"{where}: duplicate entry for ({day}, {region})")
        bucket[region] = count
        regions.add(region)
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


def load_mobility(path, dates: list[dt.date] | None = None) -> MobilityTable:
    """Parse a mobility CSV into a dense table.

    When `dates` is given it fixes the date axis (so an empty file yields
    all-zero flows over those dates); otherwise the axis is the sorted set of
    dates present in the file.  The region axis is the sorted set of ids the
    file names, zero-weight rows included.  Rows are added in file order, so
    rows repeating a (date, src, dst) sum.
    """
    rows: list[tuple[dt.date, str, str, float]] = []
    for where, row in _records(path, "mobility file", ["date", "src_region", "dst_region", "weight"]):
        day = _parse_date(row[0], where)
        src, dst = row[1].strip(), row[2].strip()
        if not (src and dst):
            raise MalformedRowError(f"{where}: empty region id")
        try:
            wgt = float(row[3])
        except ValueError as exc:
            raise MalformedRowError(f"{where}: bad weight {row[3]!r}") from exc
        if not np.isfinite(wgt) or wgt < 0:
            raise NegativeWeightError(f"{where}: negative or non-finite weight {wgt}")
        rows.append((day, src, dst, wgt))
    if dates is None:
        dates = sorted({day for day, _, _, _ in rows})
    else:
        outside = {day for day, _, _, _ in rows} - set(dates)
        if outside:
            raise MalformedRowError(f"{path}: rows on dates outside the expected axis: {sorted(outside)[:3]}")
    regions = sorted({src for _, src, _, _ in rows} | {dst for _, _, dst, _ in rows})
    t_of = {day: t for t, day in enumerate(dates)}
    r_of = {region: i for i, region in enumerate(regions)}
    flows = np.zeros((len(dates), len(regions), len(regions)), dtype=np.float64)
    for day, src, dst, wgt in rows:
        flows[t_of[day], r_of[src], r_of[dst]] += wgt
    return MobilityTable(dates=list(dates), regions=regions, flows=flows)


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
    reads the thresholded adjacency of any window."""

    N: int
    T: int
    w: int
    X: np.ndarray  # (T, N, F) feature rows, F == w, model space
    M: np.ndarray  # (T, N, N) mobility, model space, no -0.0
    mask: np.ndarray | None  # (T, N, N) bool, raw flow > epsilon; None when epsilon <= 0
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


def adjacency(M: np.ndarray, mask: np.ndarray | None, days: slice) -> np.ndarray:
    """The adjacency of mobility `M` on `days`: each flow where `mask` holds,
    and 0 elsewhere.  With no mask it is the mobility itself (a view): a flow
    is >= 0 and never -0.0, so every flow exceeds a threshold <= 0 or is 0.0."""
    return M[days] if mask is None else np.where(mask[days], M[days], 0.0)


def build_dataset(
    cases: CaseTable,
    mobility: MobilityTable,
    w: int,
    epsilon: float = 0.0,
    scale: bool = False,
) -> EpidemicDataset:
    """Join the two tables over their date overlap and window the features.

    With ``scale`` on, counts are divided by each region's series maximum and
    flows by the global flow maximum; forecasts are mapped back to raw units
    on output.  Scaling uses the whole series (the toggle conditions the
    optimization, it is not a fitted preprocessing step).
    """
    if w < 1:
        raise ConfigError(f"window length must be >= 1, got {w}")
    if not np.isfinite(epsilon):
        raise ConfigError(f"epsilon must be finite, got {epsilon}")
    if not mobility.dates:
        raise EmptyOverlapError("mobility table has no dates")
    start = max(cases.dates[0], mobility.dates[0])
    end = min(cases.dates[-1], mobility.dates[-1])
    if start > end:
        raise EmptyOverlapError(f"case dates end {cases.dates[-1]}, mobility starts {mobility.dates[0]}")
    unknown = set(mobility.regions) - set(cases.regions)
    if unknown:
        raise RegionMismatchError(f"mobility references unknown regions: {sorted(unknown)[:3]}")

    c0 = cases.dates.index(start)
    c1 = cases.dates.index(end)
    dates = cases.dates[c0 : c1 + 1]
    counts = cases.counts[c0 : c1 + 1]
    T, N = counts.shape
    if w > T:
        raise ConfigError(f"window length w={w} is longer than the {T}-day series: no patch fits")
    region_index = {r: i for i, r in enumerate(cases.regions)}
    idx = [region_index[r] for r in mobility.regions]
    mob_t = {day: k for k, day in enumerate(mobility.dates)}
    days = [t for t, day in enumerate(dates) if day in mob_t]

    M = np.zeros((T, N, N), dtype=np.float64)  # days without mobility rows keep zero flow
    cells = np.ix_(idx, idx)
    for t in days:  # one day at a time: no copy of the whole table
        M[t][cells] = mobility.flows[mob_t[dates[t]]]
    M += 0.0  # -0.0 flows become 0.0, so that `adjacency` needs no mask at epsilon <= 0

    if scale:
        case_scale = counts.max(axis=0).astype(np.float64)
        case_scale[case_scale <= 0] = 1.0
        mob_scale = float(M.max())
        if mob_scale <= 0:
            mob_scale = 1.0
    else:
        case_scale = np.ones(N, dtype=np.float64)
        mob_scale = 1.0

    counts_model = counts.astype(np.float64) / case_scale[None, :]
    mask = M > epsilon if epsilon > 0 else None  # in raw flow units
    M /= mob_scale
    try:
        X = window_features(counts_model, w)
    except MemoryError as exc:
        raise ConfigError(f"window length w={w} over {T} days and {N} regions does not fit in memory ({exc})") from exc
    return EpidemicDataset(
        N=N,
        T=T,
        w=w,
        X=X,
        M=M,
        mask=mask,
        region_names=list(cases.regions),
        dates=dates,
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
) -> tuple[CaseTable, MobilityTable]:
    sim = simulate_sir(n_regions, n_days, sir_params, rng_seed)
    start = dt.date(2021, 1, 1)
    dates = [start + dt.timedelta(days=t) for t in range(n_days)]
    regions = [f"R{i:03d}" for i in range(n_regions)]
    cases = CaseTable(dates=dates, regions=regions, counts=sim.counts)
    mobility = MobilityTable(dates=list(dates), regions=list(regions), flows=sim.mobility)
    return cases, mobility


def synth_sir(
    n_regions: int,
    n_days: int,
    sir_params: SirParams | None = None,
    rng_seed: int = 0,
    w: int = 3,
    epsilon: float = 0.0,
    scale: bool = False,
) -> EpidemicDataset:
    cases, mobility = synth_sir_tables(n_regions, n_days, sir_params, rng_seed)
    return build_dataset(cases, mobility, w=w, epsilon=epsilon, scale=scale)


# -- CSV emission ---------------------------------------------------------------------


def write_cases_csv(cases: CaseTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "region_id", "new_cases"])
        for t, day in enumerate(cases.dates):
            for i, region in enumerate(cases.regions):
                writer.writerow([day.isoformat(), region, int(cases.counts[t, i])])


def write_mobility_csv(mobility: MobilityTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "src_region", "dst_region", "weight"])
        for t, i, j in np.argwhere(mobility.flows):  # nonzero entries in (t, i, j) order
            day, src, dst = mobility.dates[t], mobility.regions[i], mobility.regions[j]
            writer.writerow([day.isoformat(), src, dst, f"{mobility.flows[t, i, j]:.10g}"])
