"""Data pipeline: CSV ingestion, windowing, splitting, synthetic SIR."""

import csv
import datetime as dt
import io
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epicast.data as data_mod
from epicast.data import (
    CaseTable,
    ConfigError,
    DataError,
    DateFormatError,
    DateGapError,
    DuplicateRowError,
    InvalidSplitError,
    MalformedRowError,
    NegativeCountError,
    NegativeWeightError,
    RegionMismatchError,
    SirParams,
    SplitSpec,
    adjacency,
    build_dataset,
    load_cases,
    load_mobility,
    simulate_sir,
    split_dataset,
    synth_sir,
    synth_sir_tables,
    window_features,
    write_cases_csv,
    write_mobility_csv,
)


def _write(path, text):
    path.write_text(text)
    return path


CASES_HEADER = "date,region_id,new_cases\n"
MOB_HEADER = "date,src_region,dst_region,weight\n"


def _case_csv(tmp_path, rows, name="cases.csv"):
    return _write(tmp_path / name, CASES_HEADER + "\n".join(rows) + ("\n" if rows else ""))


def _mob_csv(tmp_path, rows, name="mob.csv"):
    return _write(tmp_path / name, MOB_HEADER + "\n".join(rows) + ("\n" if rows else ""))


# -- load_cases ----------------------------------------------------------------------


def test_load_cases_two_regions_three_days_all_zero(tmp_path):
    rows = [
        f"2020-03-{10+d:02d},{r},0" for d in range(3) for r in ("north", "south")
    ]
    table = load_cases(_case_csv(tmp_path, rows))
    assert table.n_regions == 2
    assert table.n_days == 3
    assert (table.counts == 0).all()


def test_load_cases_duplicate_row(tmp_path):
    rows = ["2020-03-10,a,1", "2020-03-10,a,2"]
    with pytest.raises(DuplicateRowError):
        load_cases(_case_csv(tmp_path, rows))


def test_load_cases_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_cases(tmp_path / "nope.csv")


def test_load_cases_malformed_row(tmp_path):
    with pytest.raises(MalformedRowError):
        load_cases(_case_csv(tmp_path, ["2020-03-10,a"]))


def test_load_cases_bad_count(tmp_path):
    with pytest.raises(MalformedRowError):
        load_cases(_case_csv(tmp_path, ["2020-03-10,a,many"]))


def test_load_cases_negative_count(tmp_path):
    with pytest.raises(NegativeCountError):
        load_cases(_case_csv(tmp_path, ["2020-03-10,a,-3"]))


def test_load_cases_date_gap(tmp_path):
    rows = ["2020-03-10,a,1", "2020-03-12,a,1"]
    with pytest.raises(DateGapError):
        load_cases(_case_csv(tmp_path, rows))


def test_load_cases_bad_header(tmp_path):
    path = _write(tmp_path / "c.csv", "day,region,cases\n2020-03-10,a,1\n")
    with pytest.raises(MalformedRowError):
        load_cases(path)


def test_load_cases_header_only_has_no_data_rows(tmp_path):
    with pytest.raises(MalformedRowError, match="no data rows"):
        load_cases(_case_csv(tmp_path, []))


def test_load_cases_skips_blank_lines(tmp_path):
    rows = ["2020-03-10,a,1", "2020-03-10,b,2", "2020-03-11,a,3", "2020-03-11,b,4"]
    plain = load_cases(_case_csv(tmp_path, rows))
    spaced = load_cases(_case_csv(tmp_path, ["", rows[0], rows[1], "", "", rows[2], rows[3], ""], name="spaced.csv"))
    assert (spaced.dates, spaced.regions) == (plain.dates, plain.regions)
    np.testing.assert_array_equal(spaced.counts, plain.counts)


def test_case_table_rejects_bad_shape_and_negative_counts():
    dates = [dt.date(2020, 3, 10), dt.date(2020, 3, 11)]
    with pytest.raises(MalformedRowError, match=r"counts shape \(2, 3\) != \(2, 2\)"):
        CaseTable(dates=dates, regions=["a", "b"], counts=np.zeros((2, 3)))
    with pytest.raises(NegativeCountError, match="case counts must be nonnegative"):
        CaseTable(dates=dates, regions=["a", "b"], counts=[[0, 1], [-1, 0]])


@pytest.mark.parametrize("bad", [1.7, -0.5, np.nan, np.inf, -np.inf, 1e30, 2.0**63])
def test_case_table_refuses_a_count_that_is_not_an_integer_in_int64(bad):
    """A float count must be a finite integer that int64 holds, and the error
    names it, its region and its day; an integral float such as 3.0 passes."""
    dates = [dt.date(2020, 3, 10), dt.date(2020, 3, 11)]
    assert CaseTable(dates, ["a", "b"], np.array([[3.0, 0.0], [2.0**62, 1.0]])).counts.tolist() == [[3, 0], [2**62, 1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning on the way
        with pytest.raises(MalformedRowError) as info:
            CaseTable(dates, ["a", "b"], np.array([[3.0, 0.0], [1.0, bad]]))
    assert str(info.value) == f"count {bad} of b on 2020-03-11 is not an integer in int64's range"


@pytest.mark.parametrize(
    "bad", [np.uint64(2**63), 2**64, -(2**63) - 1], ids=["uint64", "int_past_64_bits", "int_below_int64"]
)
def test_case_table_refuses_an_integer_count_outside_int64(bad):
    """An integer count, of an unsigned dtype or a Python int past 64 bits,
    must fit in int64, and the error names it, its region and its day;
    integers that fit pass."""
    dates = [dt.date(2020, 3, 10), dt.date(2020, 3, 11)]
    assert CaseTable(dates, ["a", "b"], np.array([[3, 0], [2**63 - 1, 1]], dtype=np.uint64)).counts[1, 0] == 2**63 - 1
    assert CaseTable(dates, ["a", "b"], [[3, 0], [2**62, 1]]).counts.dtype == np.int64
    counts = np.array([[3, 0], [1, bad]], dtype=np.uint64) if isinstance(bad, np.uint64) else [[3, 0], [1, bad]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning on the way
        with pytest.raises(MalformedRowError) as info:
            CaseTable(dates, ["a", "b"], counts)
    assert str(info.value) == f"count {bad} of b on 2020-03-11 is not an integer in int64's range"


@pytest.mark.parametrize("bad", ["3", 3 + 1j], ids=["str", "complex"])
def test_case_table_refuses_a_count_that_is_neither_an_integer_nor_a_float(bad):
    """A string or complex count is refused, not cast, and with no numpy warning."""
    dates = [dt.date(2020, 3, 10), dt.date(2020, 3, 11)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedRowError) as info:
            CaseTable(dates, ["a", "b"], np.array([[bad, bad], [bad, bad]]))
    assert str(info.value) == f"counts of dtype {np.asarray(bad).dtype} are neither integers nor floats"


def test_a_bad_row_after_a_quoted_line_break_is_named_by_its_own_line(tmp_path):
    """A quoted field may hold a line break, so a row's line is the reader's
    line count, not the row's index."""
    path = _write(tmp_path / "c.csv", 'date,region_id,new_cases\n2021-01-01,"a\nb",1\n2021-01-01,c,x\n')
    with pytest.raises(MalformedRowError, match=r"c.csv:4: bad count 'x'"):
        load_cases(path)


def test_a_decode_error_surfaces_where_the_reading_reaches_the_bad_bytes(tmp_path):
    """The file is decoded in pieces as it is read: a malformed row read before
    a piece holding bytes that are not UTF-8 fails first, and bytes in the
    piece read first fail before any row; both are data errors."""
    path = tmp_path / "c.csv"
    path.write_bytes(b"date,region_id,new_cases\n2021-01-01,a,x\n" + b"\n" * 2**16 + b"\xff\n")
    with pytest.raises(MalformedRowError, match=r"c.csv:2: bad count 'x'"):
        load_cases(path)
    path.write_bytes(b"date,region_id,new_cases\n2021-01-01,a,x\n\xff\n")
    with pytest.raises(DataError, match=r"case file .*c.csv: 'utf-8' codec can't decode byte 0xff") as info:
        load_cases(path)
    assert type(info.value) is DataError


# -- load_mobility --------------------------------------------------------------------


def _axis(regions=("a", "b", "c"), days=3):
    """A case table of zero counts on `days` days from 2020-03-10 over `regions`:
    the axes a mobility file loads onto."""
    dates = [dt.date(2020, 3, 10) + dt.timedelta(days=d) for d in range(days)]
    return CaseTable(dates=dates, regions=list(regions), counts=np.zeros((days, len(regions)), dtype=np.int64))


def test_load_mobility_empty_file_over_three_dates(tmp_path):
    flows = load_mobility(_mob_csv(tmp_path, []), _axis(("a", "b")))
    assert flows.shape == (3, 2, 2) and flows.dtype == np.float64 and not flows.any()


def test_load_mobility_negative_weight(tmp_path):
    with pytest.raises(NegativeWeightError):
        load_mobility(_mob_csv(tmp_path, ["2020-03-10,a,b,-1"]), _axis())


def test_load_mobility_bad_weight(tmp_path):
    with pytest.raises(MalformedRowError, match="bad weight 'heavy'"):
        load_mobility(_mob_csv(tmp_path, ["2020-03-10,a,b,heavy"]), _axis())


def test_load_mobility_bad_date(tmp_path):
    with pytest.raises(DateFormatError):
        load_mobility(_mob_csv(tmp_path, ["10/03/2020,a,b,1.0"]), _axis())


@pytest.mark.parametrize("row", ["2020-03-10,a, ,1.0", "2020-03-10,,b,1.0"])
def test_load_mobility_empty_region_id(tmp_path, row):
    with pytest.raises(MalformedRowError, match=r"mob.csv:3: empty region id"):
        load_mobility(_mob_csv(tmp_path, ["2020-03-10,a,b,1.0", row]), _axis())


def test_load_mobility_malformed_row(tmp_path):
    with pytest.raises(MalformedRowError):
        load_mobility(_mob_csv(tmp_path, ["2020-03-10,a,b"]), _axis())


def test_load_mobility_dense_axes_and_summed_duplicates(tmp_path):
    """The flows lie on the case table's axes, regions no row names (d) and
    days no row falls on (the 12th) included, and repeated rows sum."""
    rows = ["2020-03-11,b,a,2.5", "2020-03-10,c,c,0", "2020-03-11,b,a,1.25", "2020-03-10,a,b,4"]
    flows = load_mobility(_mob_csv(tmp_path, rows), _axis(("a", "b", "c", "d")))
    expected = np.zeros((3, 4, 4))
    expected[0, 0, 1] = 4.0
    expected[1, 1, 0] = 3.75
    np.testing.assert_array_equal(flows, expected)


@pytest.mark.parametrize("row", ["2020-03-13,a,b,1.0", "2020-03-09,a,b,1.0"])
def test_load_mobility_fails_at_a_row_on_a_date_outside_the_case_dates(tmp_path, row):
    path = _mob_csv(tmp_path, ["2020-03-10,a,b,1.0", "2020-03-12,b,a,2.0", row, "2020-03-11,a,b,-1"])
    with pytest.raises(MalformedRowError, match=r"mob.csv:4: rows on dates outside the expected axis: 2020-03-"):
        load_mobility(path, _axis())


@pytest.mark.parametrize("row", ["2020-03-11,ghost,a,1.0", "2020-03-11,a,ghost,0"])
def test_load_mobility_fails_at_a_row_naming_a_region_the_case_file_lacks(tmp_path, row):
    path = _mob_csv(tmp_path, ["2020-03-10,a,b,1.0", row, "2020-03-12,a,b,-1"])
    with pytest.raises(RegionMismatchError, match=r"mob.csv:3: mobility references unknown region 'ghost'"):
        load_mobility(path, _axis())


def test_load_mobility_holds_no_row_objects(tmp_path):
    """Loading a (34, 120) mobility file streams it: it holds the flows array,
    no copy of the file and no Python object per row, so the traced peak
    stays under the array's size plus 1 MiB."""
    cases, flows = synth_sir_tables(34, 120, rng_seed=1)
    path = tmp_path / "mob.csv"
    write_mobility_csv(cases, flows, path)
    tracemalloc.start()
    try:
        loaded = load_mobility(path, cases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < loaded.nbytes + 2**20, f"peak {peak / 2**20:.2f} MiB for a {size / 2**20:.1f} MiB file"


# fields and line endings a CSV line can hold, quoted newlines and a NUL included
_CSV_PIECES = ("a", "1", " ", "é", ",", '"', '""', "\r", "\n", "\r\n", '"x\ry"', '"x\ny"', '"x\r\ny"', "\x00")


@given(text=st.lists(st.sampled_from(_CSV_PIECES), max_size=40).map("".join))
@settings(max_examples=300, deadline=None)
def test_csv_rows_are_those_of_the_file_object(tmp_path_factory, text):
    """The lines `read_file` yields for a file holding `text` are those of the
    text read as a file opened with newline="", and give csv.reader exactly
    the rows, or the error, that those give."""
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_bytes(text.encode())

    def rows(reader):
        try:
            return list(reader)
        except csv.Error as exc:
            return repr(exc)

    assert list(data_mod.read_file(path, DataError, "file")) == io.StringIO(text, newline="").readlines()
    expected = rows(csv.reader(io.StringIO(text, newline="")))
    assert rows(csv.reader(data_mod.read_file(path, DataError, "file"))) == expected


# -- build_dataset --------------------------------------------------------------------


def _tiny_tables(counts_by_day):
    dates = [dt.date(2021, 1, 1) + dt.timedelta(days=d) for d in range(len(counts_by_day))]
    regions = ["r0"]
    counts = np.array([[c] for c in counts_by_day])
    return CaseTable(dates=dates, regions=regions, counts=counts), np.zeros((len(dates), 1, 1))


def test_build_dataset_window_definition():
    cases, mobility = _tiny_tables([1, 2, 3])
    ds = build_dataset(cases, mobility, w=3)
    np.testing.assert_array_equal(ds.X[2, 0], [1.0, 2.0, 3.0])


def test_build_dataset_zero_padding():
    cases, mobility = _tiny_tables([1, 2, 3])
    ds = build_dataset(cases, mobility, w=3)
    np.testing.assert_array_equal(ds.X[0, 0], [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(ds.X[1, 0], [0.0, 1.0, 2.0])


def test_build_dataset_shapes():
    ds = synth_sir(5, 10, rng_seed=0, w=3)
    assert ds.X.shape == (10, 5, 3)
    assert ds.M.shape == (10, 5, 5)
    A = adjacency(ds.M, ds.epsilon, ds.mob_scale)
    assert np.shares_memory(A, ds.M) and A.tobytes() == ds.M.tobytes()  # epsilon 0: the mobility is its own adjacency
    assert ds.X.shape[-1] == ds.w == 3


def test_build_dataset_round_trip_reproduces_counts():
    ds = synth_sir(4, 30, rng_seed=2, w=5)
    np.testing.assert_array_equal(ds.X[:, :, -1], ds.counts.astype(float))


def test_build_dataset_scaled_round_trip():
    ds = synth_sir(4, 30, rng_seed=2, w=5, scale=True)
    np.testing.assert_allclose(ds.X[:, :, -1] * ds.case_scale[None, :], ds.counts.astype(float))
    assert ds.X.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("shape", [(3, 2, 2), (2, 1, 1), (4, 1, 1), (3, 1), (3, 1, 1, 1)])
def test_build_dataset_refuses_flows_of_another_shape(shape):
    """The flows must be the (T, N, N) array on the case table's axis: a
    region or a day too many or too few, or another rank, is refused."""
    cases, _ = _tiny_tables([1, 2, 3])
    with pytest.raises(MalformedRowError, match=rf"flows shape \({', '.join(map(str, shape))},?\) != \(3, 1, 1\)"):
        build_dataset(cases, np.zeros(shape), w=2)


def test_build_dataset_names_the_first_bad_flow():
    dates = [dt.date(2020, 3, 10), dt.date(2020, 3, 11)]
    cases = CaseTable(dates=dates, regions=["a", "b"], counts=np.zeros((2, 2), dtype=np.int64))
    flows = np.zeros((2, 2, 2))
    flows[1, 0, 1] = -1.0
    flows[1, 1, 0] = np.nan
    with pytest.raises(NegativeWeightError, match="flow a->b on 2020-03-11 has weight -1.0"):
        build_dataset(cases, flows, w=1)
    flows[1, 0, 1] = np.inf
    with pytest.raises(NegativeWeightError, match="flow a->b on 2020-03-11 has weight inf"):
        build_dataset(cases, flows, w=1)
    flows[1, 1, 0] = 0.0  # the infinite flow alone
    with pytest.raises(NegativeWeightError, match="flow a->b on 2020-03-11 has weight inf"):
        build_dataset(cases, flows, w=1)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
def test_build_dataset_rejects_nonfinite_epsilon(epsilon):
    cases, mobility = _tiny_tables([1, 2, 3])
    with pytest.raises(ValueError, match="epsilon must be finite"):
        build_dataset(cases, mobility, w=2, epsilon=epsilon)


@st.composite
def _mobility_rows(draw):
    """Case regions and dates plus mobility rows on a subset of both: repeated
    (date, src, dst) triples, zero weights and days without rows included."""
    n_regions = draw(st.integers(1, 4))
    n_days = draw(st.integers(1, 6))
    regions = [f"r{i}" for i in range(n_regions)]
    named = draw(st.lists(st.sampled_from(regions), min_size=1, max_size=n_regions, unique=True))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False))
    row = st.tuples(st.integers(0, n_days - 1), st.sampled_from(named), st.sampled_from(named), weight)
    rows = draw(st.lists(row, max_size=30))
    return regions, n_days, rows


@given(data=_mobility_rows(), scale=st.booleans())
@settings(max_examples=150, deadline=None)
def test_build_dataset_mobility_matches_row_oracle(tmp_path_factory, data, scale):
    regions, n_days, rows = data
    dates = [dt.date(2021, 1, 1) + dt.timedelta(days=d) for d in range(n_days)]
    cases = CaseTable(dates=dates, regions=regions, counts=np.ones((n_days, len(regions)), dtype=np.int64))
    path = _mob_csv(
        tmp_path_factory.mktemp("mob"),
        [f"{dates[d].isoformat()},{src},{dst},{wgt!r}" for d, src, dst, wgt in rows],
    )
    ds = build_dataset(cases, load_mobility(path, cases), w=min(2, n_days), scale=scale)

    # oracle: add every row, in file order, into the day and region pair it names
    assert ds.dates == dates
    index = {r: i for i, r in enumerate(regions)}
    M_raw = np.zeros((n_days, len(regions), len(regions)))
    for d, src, dst, wgt in rows:
        M_raw[d, index[src], index[dst]] += wgt
    mob_scale = (float(M_raw.max()) or 1.0) if scale else 1.0
    assert ds.mob_scale == mob_scale
    assert ds.M.tobytes() == (M_raw / mob_scale).tobytes()


def test_build_dataset_rejects_w_longer_than_the_series():
    cases, mobility = synth_sir_tables(2, 5, rng_seed=0)
    assert build_dataset(cases, mobility, w=5).X.shape == (5, 2, 5)
    with pytest.raises(ValueError, match="w=6 is longer than the 5-day series"):
        build_dataset(cases, mobility, w=6)


@pytest.mark.parametrize("w", [0, -2])
def test_build_dataset_rejects_nonpositive_w(w):
    cases, mobility = synth_sir_tables(2, 5, rng_seed=0)
    with pytest.raises(ConfigError, match=f"window length must be >= 1, got {w}"):
        build_dataset(cases, mobility, w=w)


def test_build_dataset_names_w_when_its_windows_do_not_fit(monkeypatch):
    cases, mobility = synth_sir_tables(2, 5, rng_seed=0)
    # a bare MemoryError says nothing, so the message says what ran out
    for error, why in ((MemoryError("Unable to allocate 1.00 PiB"), "Unable to allocate 1.00 PiB"),
                       (MemoryError(), "out of memory building the windows")):  # fmt: skip

        def too_large(counts, w):
            raise error

        monkeypatch.setattr(data_mod, "window_features", too_large)
        with pytest.raises(ValueError) as info:
            build_dataset(cases, mobility, w=3)
        assert str(info.value) == f"window length w=3 over 5 days and 2 regions does not fit in memory ({why})"


def test_adjacency_threshold_sparsity():
    ds = synth_sir(5, 12, rng_seed=4, w=3, epsilon=10.0)
    raw_M = ds.M * ds.mob_scale
    A = adjacency(ds.M, ds.epsilon, ds.mob_scale)
    np.testing.assert_array_equal(A > 0, raw_M > 10.0)
    assert np.all((A > 0) <= (ds.M > 0))  # A positive implies M positive
    assert not np.shares_memory(A, ds.M)


@pytest.mark.parametrize("T, w", [(9, 4), (9, 1), (1, 1), (1, 3), (5, 5), (4, 7), (30, 7)])
def test_window_features_matches_hand_loop(T, w):
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 20, size=(T, 3)).astype(float)
    X = window_features(counts, w)
    assert X.shape == (T, 3, w) and X.flags.c_contiguous and X.flags.owndata
    for t in range(T):
        for i in range(3):
            for k in range(w):
                day = t - (w - 1 - k)
                expected = counts[day, i] if day >= 0 else 0.0
                assert X[t, i, k] == expected


# -- split_dataset --------------------------------------------------------------------


@pytest.mark.parametrize(
    "T,test_len,val_len,train_days",
    [
        (61, 3, 3, 55),
        (61, 14, 7, 40),
        (61, 7, 7, 47),
        (79, 3, 3, 73),
        (79, 14, 7, 58),
    ],
)
def test_split_boundaries(T, test_len, val_len, train_days):
    s = split_dataset(T, SplitSpec(test_len=test_len, val_len=val_len))
    assert s.train == range(0, train_days)
    assert s.val == range(train_days, train_days + val_len)
    assert s.test == range(T - test_len, T)


def test_split_rejects_whole_series():
    with pytest.raises(InvalidSplitError):
        split_dataset(10, SplitSpec(test_len=5, val_len=5))


def test_split_rejects_nonpositive_parts():
    with pytest.raises(InvalidSplitError):
        SplitSpec(test_len=0, val_len=3)


@pytest.mark.parametrize("name, value", [("test_len", 3.0), ("val_len", True)])
def test_split_rejects_a_length_that_is_no_integer(name, value):
    """A float or bool length is the split's own config error (exit 2), not a
    bare TypeError once the range is built."""
    with pytest.raises(InvalidSplitError, match=f"^{name} must be an integer, got {value!r}$"):
        SplitSpec(**{"test_len": 3, "val_len": 3, name: value})


@given(
    T=st.integers(min_value=3, max_value=400),
    test_len=st.integers(min_value=1, max_value=100),
    val_len=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=200, deadline=None)
def test_split_is_partition(T, test_len, val_len):
    if test_len + val_len >= T:
        with pytest.raises(InvalidSplitError):
            split_dataset(T, SplitSpec(test_len=test_len, val_len=val_len))
        return
    s = split_dataset(T, SplitSpec(test_len=test_len, val_len=val_len))
    merged = list(s.train) + list(s.val) + list(s.test)
    assert merged == list(range(T))


# -- synthetic SIR ---------------------------------------------------------------------


def test_sir_zero_beta_means_no_spread():
    params = SirParams(beta=0.0, gamma_rec=0.2, seed_region=1, population=1000)
    sim = simulate_sir(4, 15, params, rng_seed=0)
    assert sim.counts[0, 1] > 0  # the seeding day
    assert (sim.counts[1:] == 0).all()


@pytest.mark.parametrize("name, value", [("seed_region", 1.0), ("seed_region", False), ("population", 2000.0)])
def test_sir_params_reject_a_seed_region_or_population_that_is_no_integer(name, value):
    """A float seed region is a ConfigError naming the field, not a bare
    IndexError once the simulation seeds it; a float population likewise."""
    with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {value!r}$"):
        SirParams(**{name: value})


@pytest.mark.parametrize("name, value", [("beta", "0.4"), ("gamma_rec", None), ("beta", 1j), ("gamma_rec", False)])
def test_sir_params_reject_a_rate_that_is_no_real_number(name, value):
    """A string, None, complex or bool rate is a ConfigError naming the
    field, not a bare TypeError from its range check."""
    with pytest.raises(ConfigError, match=f"^{name} must be a real number, got {re.escape(repr(value))}$"):
        SirParams(**{name: value})


def test_sir_determinism():
    a = synth_sir(6, 25, rng_seed=42, w=3)
    b = synth_sir(6, 25, rng_seed=42, w=3)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.M, b.M)
    assert np.array_equal(a.counts, b.counts)


def test_sir_different_seeds_differ():
    a = synth_sir(6, 25, rng_seed=1, w=3)
    b = synth_sir(6, 25, rng_seed=2, w=3)
    assert not np.array_equal(a.M, b.M)


def test_synth_tables_hand_over_the_simulated_mobility():
    params = SirParams(beta=0.5, gamma_rec=0.2)
    sim = simulate_sir(6, 20, params, rng_seed=3)
    cases, flows = synth_sir_tables(6, 20, params, rng_seed=3)
    assert cases.counts.tobytes() == sim.counts.tobytes()
    assert flows.shape == sim.mobility.shape
    assert flows.tobytes() == sim.mobility.tobytes()


def test_set_up_holds_no_second_mobility_series():
    """Simulating and validating the (T, N, N) mobility series, and joining it
    into a dataset, never hold a second array of its size: synthesis peaks
    under 1.25 series, and an unscaled dataset's M is the caller's flows
    array, so `build_dataset` peaks under 0.25 series.  Scaled flows and flows
    holding -0.0 are copied, and the caller's array comes back byte-equal."""
    build_dataset(*synth_sir_tables(2, 2), w=1)  # the modules numpy imports on first use are not traced
    tracemalloc.start()
    try:
        cases, flows = synth_sir_tables(60, 120, rng_seed=1)
        synth_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        ds = build_dataset(cases, flows, w=3)
        dataset_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    series = flows.nbytes
    assert np.shares_memory(ds.M, flows)
    assert synth_peak < 1.25 * series, f"synth_sir_tables peak {synth_peak / series:.2f} series"
    assert dataset_peak < 0.25 * series, f"build_dataset peak {dataset_peak / series:.2f} series"

    signed = flows.copy()
    signed[signed == 0] = -0.0
    for given_flows, scale in ((flows, True), (signed, False)):
        before = given_flows.tobytes()
        ds = build_dataset(cases, given_flows, w=3, scale=scale)
        assert given_flows.tobytes() == before
        assert not np.shares_memory(ds.M, given_flows)
        assert not np.signbit(ds.M).any()


def test_sir_population_conserved_exactly():
    sim = simulate_sir(8, 40, SirParams(beta=0.5, gamma_rec=0.2), rng_seed=7)
    totals = sim.susceptible + sim.infected + sim.recovered
    assert (totals == sim.population[None, :]).all()


@given(beta=st.floats(0.0, 1e308), population=st.integers(1, 2**63 - 1), seed=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_sir_any_finite_beta_keeps_counts_in_range_without_warnings(beta, population, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sim = simulate_sir(3, 8, SirParams(beta=beta, population=population), rng_seed=seed)
    before = np.concatenate((sim.population[None, :], sim.susceptible[:-1]))
    assert (sim.counts >= 0).all() and (sim.counts <= before).all()
    assert (sim.susceptible + sim.infected + sim.recovered == sim.population[None, :]).all()
    # a region that no infected region (itself included) sends travellers to gets no new cases
    exposed = np.einsum("tji,tj->ti", sim.mobility[1:] > 0, sim.infected[:-1] > 0)
    assert (sim.counts[1:][~exposed] == 0).all()


def test_sir_rejects_bad_params():
    with pytest.raises(ValueError):
        SirParams(beta=-0.1)
    with pytest.raises(ValueError):
        SirParams(gamma_rec=0.0)
    with pytest.raises(ValueError):
        SirParams(gamma_rec=1.5)
    with pytest.raises(ValueError):
        SirParams(population=0)


def test_sir_epidemic_actually_happens():
    sim = simulate_sir(10, 60, SirParams(beta=0.4, gamma_rec=0.2), rng_seed=0)
    # the wave should spread beyond the seed region and infect a meaningful share
    attack = sim.recovered[-1].sum() / sim.population.sum()
    assert attack > 0.2
    assert (sim.counts.sum(axis=0) > 0).sum() >= 8


# -- CSV round trip ---------------------------------------------------------------------


@given(
    n=st.integers(min_value=1, max_value=6),
    days=st.integers(min_value=1, max_value=15),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_csv_round_trip(n, days, seed):
    """Synthetic tables written as CSV files load back bitwise: every weight
    is written exactly (``repr``), and every count as an integer."""
    cases, flows = synth_sir_tables(n, days, rng_seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        write_cases_csv(cases, Path(tmp) / "cases.csv")
        write_mobility_csv(cases, flows, Path(tmp) / "mob.csv")
        cases2 = load_cases(Path(tmp) / "cases.csv")
        flows2 = load_mobility(Path(tmp) / "mob.csv", cases2)
    assert (cases2.dates, cases2.regions) == (cases.dates, cases.regions)
    assert cases2.counts.tobytes() == cases.counts.tobytes()
    assert flows2.tobytes() == flows.tobytes()
