import numpy as np
import pytest

from oracles import (
    brute_force_decluster,
    daily_maxima_unique,
    detrend_moving_mean_temporaries,
    read_hourly_csv_rows,
    write_hourly_csv_rows,
)
from surgebma import preprocess
from surgebma.preprocess import (
    DailySeries,
    ExceedanceSet,
    HourlySeries,
    compute_threshold,
    daily_maxima,
    decluster,
    detrend_moving_mean,
    read_hourly_csv,
    write_hourly_csv,
)


def hourly(levels, start="2000-01-01T00"):
    levels = np.asarray(levels, dtype=float)
    t0 = np.datetime64(start, "h")
    times = np.arange(t0, t0 + np.timedelta64(levels.size, "h"), dtype="datetime64[h]")
    return HourlySeries(times, levels)


def daily(dates, values, valid=None):
    values = np.asarray(values, dtype=float)
    if valid is None:
        valid = np.isfinite(values)
    return DailySeries(np.asarray(dates, dtype="datetime64[D]"), values, np.asarray(valid))


# ---------------------------------------------------------------------------
# detrend
# ---------------------------------------------------------------------------


def test_detrend_constant_series_is_zero():
    series = hourly(np.full(24 * 40, 1.5))
    out = detrend_moving_mean(series, window_days=10)
    assert np.allclose(out.levels, 0.0)


def test_detrend_linear_trend_vanishes_on_full_windows():
    n = 24 * 30
    series = hourly(0.001 * np.arange(n))
    out = detrend_moving_mean(series, window_days=5)
    half = int(5 * 24 / 2)
    interior = out.levels[half : n - half]
    # centered mean of a linear function equals its midpoint value
    assert np.max(np.abs(interior)) < 1e-12


def test_detrend_constant_offset_invariance():
    rng = np.random.default_rng(1)
    vals = rng.normal(0.0, 0.3, size=24 * 60)
    a = detrend_moving_mean(hourly(vals), window_days=7)
    b = detrend_moving_mean(hourly(vals + 2.5), window_days=7)
    assert np.allclose(a.levels, b.levels, atol=1e-12, equal_nan=True)


def test_detrend_removes_trend_and_seasonal_cycle():
    # annual cycle plus 5 mm/yr trend; annual means of the detrended interior
    # (full years with symmetric windows) carry essentially no residual trend
    n_years = 5
    n = 24 * 365 * n_years
    t_years = np.arange(n) / (24.0 * 365.25)
    rng = np.random.default_rng(2)
    vals = 0.3 * np.cos(2 * np.pi * t_years) + 0.005 * t_years + 0.02 * rng.standard_normal(n)
    out = detrend_moving_mean(hourly(vals), window_days=365.25)
    centers, means = [], []
    for y in range(1, n_years - 1):  # interior calendar years only
        seg = out.levels[24 * 365 * y : 24 * 365 * (y + 1)]
        means.append(np.nanmean(seg))
        centers.append(y + 0.5)
    coef = np.polyfit(centers, means, 1)
    assert abs(coef[0]) < 0.0005  # < 0.5 mm/yr


def test_detrend_marks_sparse_windows_missing():
    vals = np.full(24 * 10, np.nan)
    vals[-24:] = 1.0  # only the final day observed
    out = detrend_moving_mean(hourly(vals), window_days=10)
    # every window is dominated by the missing stretch
    assert np.isnan(out.levels).all()
    out = detrend_moving_mean(hourly(vals), window_days=1)
    assert np.isnan(out.levels[: 24 * 9]).all()  # missing in stays missing
    assert np.isfinite(out.levels[-1])


def test_detrend_empty_series_errors():
    with pytest.raises(ValueError, match="empty input"):
        HourlySeries(np.array([], dtype="datetime64[h]"), np.array([]))


# ---------------------------------------------------------------------------
# daily maxima
# ---------------------------------------------------------------------------


def test_daily_maxima_simple_max():
    vals = np.full(48, np.nan)
    vals[[3, 10, 15]] = [0.1, 0.5, 0.3]
    out = daily_maxima(hourly(vals), min_valid_hours=1)
    assert out.valid[0] and out.max_level[0] == 0.5
    assert not out.valid[1]


def test_daily_maxima_min_valid_hours_rule():
    vals = np.full(24, np.nan)
    vals[:10] = 1.0
    out = daily_maxima(hourly(vals), min_valid_hours=12)
    assert not out.valid[0]
    out = daily_maxima(hourly(vals), min_valid_hours=10)
    assert out.valid[0]


def test_daily_maxima_matches_naive_scan():
    rng = np.random.default_rng(3)
    n = 24 * 30
    vals = rng.normal(size=n)
    vals[rng.uniform(size=n) < 0.3] = np.nan
    series = hourly(vals)
    out = daily_maxima(series, min_valid_hours=6)

    # brute-force oracle: per-day scan
    for d in range(30):
        day = vals[24 * d : 24 * (d + 1)]
        finite = day[np.isfinite(day)]
        if finite.size >= 6:
            assert out.valid[d]
            assert out.max_level[d] == finite.max()
        else:
            assert not out.valid[d]


@pytest.mark.parametrize(
    "n, start, window_days",
    [(24 * 400, "1999-12-31T07", 365.25), (24 * 30, "2000-01-01T00", 3.0),
     (1, "2000-01-01T23", 1.0), (50, "1969-12-31T20", 30.0)],
)
def test_detrend_and_daily_maxima_equal_the_temporaries_oracle(n, start, window_days):
    rng = np.random.default_rng(n)
    vals = rng.normal(size=n)
    vals[rng.uniform(size=n) < 0.3] = np.nan
    vals[rng.uniform(size=n) < 0.01] = np.inf
    vals[: n // 7] = np.nan  # a sparse opening stretch, so some windows fall short
    series = hourly(vals, start)
    got = detrend_moving_mean(series, window_days)
    want = detrend_moving_mean_temporaries(series, window_days)
    assert got.levels.tobytes() == want.levels.tobytes()
    for min_hours in (1, 6, 24):
        got_days, want_days = daily_maxima(got, min_hours), daily_maxima_unique(want, min_hours)
        for field in ("dates", "max_level", "valid"):
            a, b = getattr(got_days, field), getattr(want_days, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------


def test_threshold_interpolated_99th():
    dates = np.arange("2000-01-01", "2000-04-10", dtype="datetime64[D]")[:100]
    series = daily(dates, np.arange(1.0, 101.0))
    # linear order-statistic interpolation: 99 + 0.01 * (100 - 99)
    assert compute_threshold(series, 0.99) == pytest.approx(99.01, abs=1e-12)


def test_threshold_degenerate_and_median():
    dates = np.arange("2000-01-01", "2000-04-10", dtype="datetime64[D]")[:100]
    series = daily(dates, np.full(100, 3.3))
    assert compute_threshold(series, 0.99) == pytest.approx(3.3)

    vals = np.array([1.0, 2.0, 3.0])
    from surgebma.utils import empirical_quantile

    assert empirical_quantile(vals, 0.5) == pytest.approx(2.0)


def test_threshold_requires_enough_days():
    dates = np.arange("2000-01-01", "2000-02-01", dtype="datetime64[D]")
    series = daily(dates, np.linspace(0, 1, dates.size))
    with pytest.raises(ValueError, match="insufficient data"):
        compute_threshold(series, 0.99)


# ---------------------------------------------------------------------------
# decluster
# ---------------------------------------------------------------------------


def make_daily_from_heights(day_heights: dict[int, float], n_days=400, start="2001-01-01"):
    dates = np.arange(np.datetime64(start, "D"), np.datetime64(start, "D") + n_days)
    vals = np.zeros(n_days)
    for d, h in day_heights.items():
        vals[d] = h
    return daily(dates, vals, valid=np.ones(n_days, dtype=bool))


def test_decluster_single_cluster_keeps_max():
    series = make_daily_from_heights({0: 1.0, 1: 1.2, 2: 1.1})
    out = decluster(series, threshold=1.0, separation_days=3)
    recs = out.all_records()
    assert len(recs) == 1
    assert recs[0].height == 1.2
    assert recs[0].date == np.datetime64("2001-01-02")


def test_decluster_distant_events_both_kept():
    series = make_daily_from_heights({0: 1.0, 9: 1.1})
    out = decluster(series, threshold=1.0, separation_days=3)
    assert [r.height for r in out.all_records()] == [1.0, 1.1]


def test_decluster_tie_breaks_to_earliest():
    series = make_daily_from_heights({5: 1.5, 6: 1.5})
    out = decluster(series, threshold=1.0, separation_days=3)
    recs = out.all_records()
    assert len(recs) == 1 and recs[0].date == np.datetime64("2001-01-06")


@pytest.mark.parametrize("seed", range(5))
def test_decluster_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n_days = 730
    vals = rng.normal(0.0, 0.5, size=n_days)
    series = make_daily_from_heights(dict(enumerate(vals)), n_days=n_days)
    thr = 0.8
    out = decluster(series, threshold=thr, separation_days=3)

    days_int = series.dates.astype(np.int64)
    exc = [(int(d), float(v)) for d, v in zip(days_int, vals) if v >= thr]
    expected = brute_force_decluster([d for d, _ in exc], [v for _, v in exc], 3)
    got = sorted((int(r.date.astype(np.int64)), r.height) for r in out.all_records())
    assert got == pytest.approx(expected)


def test_decluster_idempotent_and_separated():
    rng = np.random.default_rng(11)
    n_days = 500
    vals = rng.normal(0.2, 0.6, size=n_days)
    series = make_daily_from_heights(dict(enumerate(vals)), n_days=n_days)
    out = decluster(series, threshold=0.9, separation_days=3)

    recs = out.all_records()
    day_ints = np.array([r.date.astype(np.int64) for r in recs])
    assert np.all(np.diff(day_ints) >= 3)
    assert all(r.height >= out.threshold for r in recs)
    assert sum(b.count for b in out.years) == len(recs)

    # rebuild a daily series holding only the retained records: re-declustering
    # must keep the content unchanged
    again_vals = {int(d - day_ints.min()): r.height for d, r in zip(day_ints, recs)}
    span = int(day_ints.max() - day_ints.min()) + 1
    start = str(recs[0].date)
    series2 = make_daily_from_heights(again_vals, n_days=span, start=start)
    # mark only record days valid so year durations differ but records persist
    out2 = decluster(series2, threshold=out.threshold, separation_days=3)
    got = [(str(r.date), r.height) for r in out2.all_records()]
    want = [(str(r.date), r.height) for r in recs]
    assert got == want


def test_decluster_year_blocks_count_durations():
    # two calendar years, all days valid
    series = make_daily_from_heights({10: 2.0, 400: 2.2}, n_days=730)
    out = decluster(series, threshold=1.5, separation_days=3)
    assert [b.year for b in out.years] == [2001, 2002]
    assert [b.count for b in out.years] == [1, 1]
    assert [b.duration_days for b in out.years] == [365, 365]


# ---------------------------------------------------------------------------
# io round-trips
# ---------------------------------------------------------------------------


def test_hourly_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    vals = rng.normal(size=100)
    vals[[3, 7]] = np.nan
    series = hourly(vals)
    path = tmp_path / "station.csv"
    write_hourly_csv(path, series)
    back = read_hourly_csv(path)
    assert np.array_equal(back.times, series.times)
    assert np.array_equal(back.levels, series.levels, equal_nan=True)


def test_hourly_csv_malformed_rows_report_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,level_m\n2000-01-01T00:00,1.0\nnot-a-time,2.0\n")
    with pytest.raises(ValueError, match="bad.csv:3"):
        read_hourly_csv(path)
    path.write_text("timestamp,level_m\n2000-01-01T00:00,oops\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        read_hourly_csv(path)


# chunk sizes: one line per chunk, a few lines, and the module default
READ_CHUNKS = [1, 64, preprocess.READ_CHUNK_CHARS]
H = "timestamp,level_m\n"

# every input form the hourly CSV reader accepts, each read the same as the
# row-by-row reader in ``oracles``
HOURLY_CSV_CASES = {
    "plain": H + "2000-01-01T00,1.0\n2000-01-01T01,-0.25\n2000-01-01T02,0.1\n",
    "blank_lines": H + "\n2000-01-01T00,1.0\n   \n\t\n2000-01-01T01,2.0\n , \n,\n\n",
    "z_suffix": H + "2000-01-01T00Z,1.0\n2000-01-01T01Z,2.0\nZ2000-01-01T02,3.0\n",
    "minutes": H + "2000-01-01T00:00,1.0\n2000-01-01T01:00:00,2.0\n2000-01-01T02:30,3.0\n",
    "date_only": H + "2000-01-01,1.0\n2000-01-01T01,2.0\n",
    "whitespace": H + "  2000-01-01T00 ,  1.5  \n\t2000-01-01T01\t,\t2.5\t\n",
    "extra_columns": H.replace("level_m", "level_m,sigma") + "2000-01-01T00,1.0,0.1\n2000-01-01T01,2.0,,x,y\n",
    "missing_level_column": H + "2000-01-01T00,1.0\n2000-01-01T01\n2000-01-01T02,3.0\n",
    "two_extra_columns": H + "2000-01-01T00,1.0,a,b\n2000-01-01T01,2.0,c,d\n",
    "mixed_columns": H + "2000-01-01T00,1.0,9\n2000-01-01T01\n2000-01-01T02,3.0\n",
    "mixed_columns_cr": H + "2000-01-01T00,1.0,9\r2000-01-01T01\r2000-01-01T02,3.0\r",
    "empty_levels": H + "2000-01-01T00,\n2000-01-01T01,  \n2000-01-01T02,3.0\n",
    "nan_and_inf_levels": H + "2000-01-01T00,nan\n2000-01-01T01,-inf\n2000-01-01T02,1e-310\n",
    "quoted": H + '"2000-01-01T00","1.0"\n2000-01-01T01," 2.0 ","a,b"\n"2000-01-01T02",3.0\n',
    "quoted_newline": H + '2000-01-01T00,"1.0\n"\n"2000-01-01T01\n",2.0\n'
                      '2000-01-01T02,"3.0\n",x\n"2000-01-01T03","4.0"\n',
    "crlf": (H + "2000-01-01T00,1.0\n2000-01-01T01,2.0\n").replace("\n", "\r\n"),
    "cr": (H + "2000-01-01T00,1.0\n2000-01-01T01,2.0\n").replace("\n", "\r"),
    "mixed_line_ends": H + "2000-01-01T00,1.0\r\n2000-01-01T01,2.0\n2000-01-01T02,3.0\r",
    "no_final_newline": H + "2000-01-01T00,1.0\n2000-01-01T01,2.0",
    "unsorted": H + "2000-01-01T02,3.0\n2000-01-01T00,1.0\n2000-01-01T01,2.0\n",
    "gaps": H + "2000-01-01T00,1.0\n2000-01-01T05,2.0\n2000-01-03T00,3.0\n",
    "header_case": " Timestamp , LEVEL_M \n2000-01-01T00,1.0\n",
}


@pytest.mark.parametrize("chunk", READ_CHUNKS)
@pytest.mark.parametrize("case", list(HOURLY_CSV_CASES))
def test_hourly_csv_reader_equals_row_oracle(tmp_path, monkeypatch, case, chunk):
    path = tmp_path / "station.csv"
    with open(path, "w", newline="") as fh:
        fh.write(HOURLY_CSV_CASES[case])
    want = read_hourly_csv_rows(path)
    monkeypatch.setattr(preprocess, "READ_CHUNK_CHARS", chunk)
    got = read_hourly_csv(path)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.levels.view(np.int64), want.levels.view(np.int64))


def test_hourly_csv_reader_equals_row_oracle_on_a_long_record(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    vals = rng.normal(size=5000)
    vals[rng.uniform(size=vals.size) < 0.05] = np.nan
    path = tmp_path / "station.csv"
    write_hourly_csv(path, hourly(vals))
    with open(path, "a", newline="") as fh:  # a few odd rows late in the file
        fh.write('\r\n"2001-01-01T00Z", 1.25 ,x\r\n2001-01-01T02\r\n   \r\n2000-12-31T23,\r\n')
    want = read_hourly_csv_rows(path)
    monkeypatch.setattr(preprocess, "READ_CHUNK_CHARS", 4096)
    got = read_hourly_csv(path)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.levels.view(np.int64), want.levels.view(np.int64))


# inputs the reader refuses, each past the first few chunks of 64 characters
LATE = H + "".join(f"2000-01-0{1 + h // 24}T{h % 24:02d},0.5\n" for h in range(30))
BAD_HOURLY_CSV_CASES = {
    "bad_timestamp": LATE + "2000-02-30T00,1.0\n",
    "bad_timestamp_after_blank_lines": LATE + "\n \n2000-03-01T00,1.0\nnot-a-time,2.0\n",
    "bad_level": LATE + "2000-03-01T00,1.0\n2000-03-01T01,oops\n",
    "bad_level_with_extra_column": LATE + "2000-03-01T01,1.0.0,x\n",
    "bad_level_after_quoted_newline": LATE + '2000-03-01T00,"1.0\n"\n2000-03-01T01,1,5\n2000-03-01T02,x\n',
    "duplicate_timestamp": LATE + "2000-01-01T05,1.0\n",
    "duplicate_timestamp_z": LATE + "2000-01-01T05Z,1.0\n",
    "bad_header": "time,level\n2000-01-01T00,1.0\n",
    "header_only": H,
    "blank_rows_only": H + "\n , \n\n",
    "empty_file": "",
}


@pytest.mark.parametrize("case", list(BAD_HOURLY_CSV_CASES))
def test_hourly_csv_reader_refuses_what_row_oracle_refuses(tmp_path, monkeypatch, case):
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="") as fh:
        fh.write(BAD_HOURLY_CSV_CASES[case])
    with pytest.raises(ValueError) as want:
        read_hourly_csv_rows(path)
    monkeypatch.setattr(preprocess, "READ_CHUNK_CHARS", 64)
    with pytest.raises(ValueError) as got:
        read_hourly_csv(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("stamp", ["", "  ", "NaT", "nat", "Z"])
def test_hourly_csv_missing_timestamp_names_its_line(tmp_path, stamp):
    path = tmp_path / "bad.csv"
    path.write_text(f"timestamp,level_m\n2000-01-01T00,1.0\n{stamp},2.0\n")
    with pytest.raises(ValueError, match=f"bad.csv:3: bad timestamp {stamp!r}"):
        read_hourly_csv(path)


@pytest.mark.parametrize("chunk", [7, preprocess.WRITE_CHUNK_ROWS])
def test_hourly_csv_writer_equals_row_oracle(tmp_path, monkeypatch, chunk):
    rng = np.random.default_rng(9)
    vals = rng.normal(size=40) * 10.0 ** rng.integers(-8, 8, size=40)
    vals[[0, 5, 13, 39]] = [np.nan, np.inf, -np.inf, np.nan]
    vals[7] = -0.0
    series = hourly(vals, start="1899-12-31T20")
    monkeypatch.setattr(preprocess, "WRITE_CHUNK_ROWS", chunk)
    write_hourly_csv(tmp_path / "got.csv", series)
    write_hourly_csv_rows(tmp_path / "want.csv", series)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_hourly_csv_fills_gaps(tmp_path):
    path = tmp_path / "gappy.csv"
    path.write_text(
        "timestamp,level_m\n"
        "2000-01-01T00:00,1.0\n"
        "2000-01-01T03:00,2.0\n"
    )
    series = read_hourly_csv(path)
    assert series.times.size == 4
    assert np.isnan(series.levels[1]) and np.isnan(series.levels[2])


def test_exceedance_set_json_roundtrip(tmp_path):
    series = make_daily_from_heights({10: 2.0, 40: 2.2, 41: 2.5}, n_days=365)
    out = decluster(series, threshold=1.5, separation_days=3)
    path = tmp_path / "exc.json"
    out.save(path)
    back = ExceedanceSet.load(path)
    assert back.threshold == out.threshold
    assert [(str(r.date), r.height) for r in back.all_records()] == [
        (str(r.date), r.height) for r in out.all_records()
    ]
    assert [b.duration_days for b in back.years] == [b.duration_days for b in out.years]
