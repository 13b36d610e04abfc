import codecs
import csv
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (
    brute_force_decluster,
    daily_maxima_unique,
    daily_maxima_whole,
    detrend_moving_mean_temporaries,
    detrend_moving_mean_whole,
    read_hourly_csv_rows,
    write_hourly_csv_rows,
)
from surgebma import preprocess
from surgebma.models import ModelStructure, NonstatLevel
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
from surgebma.simulate import SimulationSpec, simulate_record


def hourly(levels, start="2000-01-01T00"):
    return HourlySeries(np.datetime64(start, "h"), np.asarray(levels, dtype=float))


def hours(series):
    """The hour of each level of ``series``."""
    return series.start + np.arange(series.levels.size)


def bits(values):
    """The float64 bit patterns of ``values``, NaN's and the sign of zero included."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def daily(first_day, values):
    return DailySeries(np.datetime64(first_day, "D"), np.asarray(values, dtype=float))


def days(series):
    """The day of each maximum of ``series``."""
    return series.first_day + np.arange(series.max_level.size)


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
        HourlySeries(np.datetime64("2000-01-01T00", "h"), np.array([]))


@pytest.mark.parametrize("window_days", [0.5, 0.0, -1.0, np.inf, np.nan])
def test_detrend_refuses_a_window_below_one_day_or_not_finite(window_days):
    with pytest.raises(ValueError, match="window_days must be a finite number >= 1"):
        detrend_moving_mean(hourly(np.ones(48)), window_days)


@pytest.mark.parametrize("start", [np.datetime64("NaT", "h")], ids=["nat_first"])
def test_hourly_series_refuses_a_broken_grid(start):
    # the grid is its first hour and one step per level: only a NaT start can break it
    with pytest.raises(ValueError, match="start must be an hour, not NaT"):
        HourlySeries(start, np.zeros(3))


def test_hourly_series_accepts_one_hour_and_a_minute_grid_on_whole_hours():
    one = HourlySeries(np.datetime64("2000-01-01T05", "h"), np.array([1.0]))
    assert hours(one).tolist() == [np.datetime64("2000-01-01T05", "h")]
    # a start given in minutes on a whole hour is coerced to hours
    series = HourlySeries(np.datetime64("2000-01-01T05:00", "m"), np.zeros(3))
    assert series.start.dtype == np.dtype("datetime64[h]")
    assert series.start == np.datetime64("2000-01-01T05", "h")
    assert hours(series).tolist() == hours(hourly(np.zeros(3), "2000-01-01T05")).tolist()


def test_daily_series_coerces_an_hour_first_day_to_its_day():
    series = DailySeries(np.datetime64("1969-12-31T20", "h"), np.zeros(3))
    assert series.first_day.dtype == np.dtype("datetime64[D]")
    assert series.first_day == np.datetime64("1969-12-31", "D")


def test_daily_series_refuses_an_infinite_maximum():
    daily("2000-01-01", [1.0, np.nan, -2.0])  # NaN marks an unusable day
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite or NaN"):
            daily("2000-01-01", [1.0, bad, np.nan])


# ---------------------------------------------------------------------------
# daily maxima
# ---------------------------------------------------------------------------


def test_daily_maxima_simple_max():
    vals = np.full(48, np.nan)
    vals[[3, 10, 15]] = [0.1, 0.5, 0.3]
    out = daily_maxima(hourly(vals), min_valid_hours=1)
    assert out.max_level[0] == 0.5
    assert np.isnan(out.max_level[1])


def test_daily_maxima_min_valid_hours_rule():
    vals = np.full(24, np.nan)
    vals[:10] = 1.0
    out = daily_maxima(hourly(vals), min_valid_hours=12)
    assert np.isnan(out.max_level[0])
    out = daily_maxima(hourly(vals), min_valid_hours=10)
    assert out.max_level[0] == 1.0


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
            assert out.max_level[d] == finite.max()
        else:
            assert np.isnan(out.max_level[d])


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
        got_days = daily_maxima(got, min_hours)
        want_days = daily_maxima_unique(want, min_hours)
        got_fields = (days(got_days), got_days.max_level)
        for field, a, b in zip(("days", "max_level"), got_fields, want_days):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


BLOCK = preprocess.BLOCK_HOURS


def reference_record(n, kind, seed):
    """Hourly levels for the whole-record references: gappy normal levels with
    a few infinite ones, and then by ``kind`` NaN runs longer than half of a
    30-day window, signed zeros (all -0.0 for over a block first), or levels
    near 1e308, whose running sums overflow; or, for ``negative_zeros``, -0.0
    at every hour but the last 5, which are 1.0."""
    if kind == "negative_zeros":
        return np.r_[np.full(n - 5, -0.0), np.ones(5)]
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=n)
    if kind == "nan_runs":
        for first in range(0, n, 3000):
            vals[first:first + rng.integers(400, 2000)] = np.nan
    elif kind == "signed_zeros":
        vals = rng.choice([0.0, -0.0, 1.0, -1.0], size=n, p=[0.45, 0.45, 0.05, 0.05])
        vals[:BLOCK + 100] = -0.0
    elif kind == "huge":
        vals = rng.uniform(-1.0, 1.0, size=n) * 1.7e308
    gappy = rng.uniform(size=n) < 0.2
    gappy[:BLOCK + 100] &= kind != "signed_zeros"
    vals[gappy] = np.nan
    vals[rng.uniform(size=n) < 0.01 * (kind != "signed_zeros")] = np.inf
    return vals


@pytest.mark.parametrize(
    "n, start, window_days, kind",
    [
        pytest.param(1, "2000-01-01T23", 365.25, "gappy", id="one_hour"),
        pytest.param(BLOCK, "2000-01-01T00", 365.25, "gappy", id="one_block"),
        pytest.param(BLOCK - 1, "1999-12-31T07", 30.0, "gappy", id="one_block_less_one"),
        pytest.param(BLOCK + 1, "1969-12-31T20", 1.0, "gappy", id="one_block_and_one"),
        pytest.param(7 * BLOCK + 1001, "1987-03-05T13", 365.25, "gappy", id="seven_blocks_and_a_tail"),
        pytest.param(7 * BLOCK + 1001, "1987-03-05T13", 1000.0, "gappy", id="window_of_blocks"),
        pytest.param(3 * BLOCK + 5, "1950-06-30T01", 20_000.0, "gappy", id="window_past_the_record"),
        pytest.param(2 * BLOCK + 7, "2001-02-03T04", 1.0, "gappy", id="one_day_window"),
        pytest.param(3 * BLOCK + 17, "1990-01-01T05", 30.0, "nan_runs", id="nan_runs"),
        pytest.param(3 * BLOCK + 17, "1990-01-01T11", 1.0, "signed_zeros", id="signed_zeros"),
        pytest.param(3 * BLOCK + 17, "1990-01-01T22", 30.0, "huge", id="overflowing_sums"),
        # half a window longer than a block: a later block's running sums
        # must not add a 0.0 before hour 0, which would turn a sum of -0.0 to 0.0
        pytest.param(3 * BLOCK + 100, "1990-01-01T00", 1100.0, "negative_zeros",
                     id="negative_zeros_1100_day_window"),
        pytest.param(3 * BLOCK + 100, "1990-01-01T00", 2000.0, "negative_zeros",
                     id="negative_zeros_2000_day_window"),
    ],
)
def test_detrend_and_daily_maxima_equal_the_whole_record_references(n, start, window_days, kind):
    series = hourly(reference_record(n, kind, seed=n), start)
    got = detrend_moving_mean(series, window_days)
    want = detrend_moving_mean_whole(series, window_days)
    assert np.array_equal(got.levels.view(np.int64), want.levels.view(np.int64))
    for min_hours in (1, 12, 24):
        got_days, want_days = daily_maxima(got, min_hours), daily_maxima_whole(want, min_hours)
        assert got_days.first_day == want_days.first_day
        assert np.array_equal(got_days.max_level.view(np.int64), want_days.max_level.view(np.int64))
    # each record holds what it is named for
    dropped = np.isnan(want.levels) & np.isfinite(series.levels)  # windows short of valid hours
    zeros = want.levels[want.levels == 0]
    assert {
        "nan_runs": dropped.any(),
        "signed_zeros": 0 < np.count_nonzero(np.signbit(zeros)) < zeros.size,
        # -0.0 less the mean of a window of -0.0 from hour 0 is 0.0
        "negative_zeros": (~np.signbit(zeros)).any(),
        "huge": np.isinf(want.levels).any() and dropped.any(),
    }.get(kind, True)


@pytest.mark.parametrize("block", [24, 25, 72, 1000])
def test_detrend_and_daily_maxima_do_not_depend_on_the_block_size(monkeypatch, block):
    n = 24 * 40 + 13
    series = hourly(reference_record(n, "nan_runs", seed=block), "1999-12-30T19")
    monkeypatch.setattr(preprocess, "BLOCK_HOURS", block)
    for window_days in (1.0, 3.0, 20.0, 100.0):
        got = detrend_moving_mean(series, window_days)
        want = detrend_moving_mean_whole(series, window_days)
        assert np.array_equal(got.levels.view(np.int64), want.levels.view(np.int64))
        got_days, want_days = daily_maxima(got, 6), daily_maxima_whole(want, 6)
        assert np.array_equal(got_days.max_level.view(np.int64), want_days.max_level.view(np.int64))


@pytest.mark.parametrize(
    "first_year, last_year", [(2000, 2002), (1990, 2010), (2001, 2001), (2003, 2005), (1990, 1995)]
)
def test_restrict_years_keeps_the_days_of_those_calendar_years(first_year, last_year):
    series = daily("1999-12-20", np.arange(1200.0))
    got = series.restrict_years(first_year, last_year)
    years = days(series).astype("datetime64[Y]").astype(np.int64) + 1970
    keep = (years >= first_year) & (years <= last_year)
    assert got.max_level.tolist() == series.max_level[keep].tolist()
    assert got.max_level.size == np.count_nonzero(keep)
    if keep.any():
        assert got.first_day == days(series)[keep][0]


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------


def test_threshold_interpolated_99th():
    series = daily("2000-01-01", np.arange(1.0, 101.0))
    # linear order-statistic interpolation: 99 + 0.01 * (100 - 99)
    assert compute_threshold(series, 0.99) == pytest.approx(99.01, abs=1e-12)


def test_threshold_degenerate_and_median():
    series = daily("2000-01-01", np.full(100, 3.3))
    assert compute_threshold(series, 0.99) == pytest.approx(3.3)

    vals = np.array([1.0, 2.0, 3.0])
    from surgebma.utils import empirical_quantile

    assert empirical_quantile(vals, 0.5) == pytest.approx(2.0)


def test_threshold_requires_enough_days():
    series = daily("2000-01-01", np.linspace(0, 1, 31))
    with pytest.raises(ValueError, match="insufficient data"):
        compute_threshold(series, 0.99)


def test_threshold_reads_only_the_days_that_are_not_nan():
    vals = np.full(300, np.nan)
    vals[::3] = np.arange(1.0, 101.0)
    assert compute_threshold(daily("2000-01-01", vals), 0.99) == pytest.approx(99.01, abs=1e-12)
    vals[0] = np.nan  # 99 usable days of 300
    with pytest.raises(ValueError, match="insufficient data"):
        compute_threshold(daily("2000-01-01", vals), 0.99)


# ---------------------------------------------------------------------------
# decluster
# ---------------------------------------------------------------------------


def make_daily_from_heights(day_heights: dict[int, float], n_days=400, start="2001-01-01"):
    vals = np.zeros(n_days)
    for d, h in day_heights.items():
        vals[d] = h
    return daily(start, vals)


def test_decluster_single_cluster_keeps_max():
    series = make_daily_from_heights({0: 1.0, 1: 1.2, 2: 1.1})
    out = decluster(series, threshold=1.0, separation_days=3)
    assert out.heights.tolist() == [1.2]
    assert out.dates.tolist() == [np.datetime64("2001-01-02").item()]


def test_decluster_distant_events_both_kept():
    series = make_daily_from_heights({0: 1.0, 9: 1.1})
    out = decluster(series, threshold=1.0, separation_days=3)
    assert out.heights.tolist() == [1.0, 1.1]


def test_decluster_tie_breaks_to_earliest():
    series = make_daily_from_heights({5: 1.5, 6: 1.5})
    out = decluster(series, threshold=1.0, separation_days=3)
    assert out.dates.tolist() == [np.datetime64("2001-01-06").item()]


@pytest.mark.parametrize("seed", range(5))
def test_decluster_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n_days = 730
    vals = rng.normal(0.0, 0.5, size=n_days)
    series = make_daily_from_heights(dict(enumerate(vals)), n_days=n_days)
    thr = 0.8
    out = decluster(series, threshold=thr, separation_days=3)

    days_int = days(series).astype(np.int64)
    exc = [(int(d), float(v)) for d, v in zip(days_int, vals) if v >= thr]
    expected = brute_force_decluster([d for d, _ in exc], [v for _, v in exc], 3)
    got = sorted(zip(out.dates.astype(np.int64).tolist(), out.heights.tolist()))
    assert got == pytest.approx(expected)


def test_decluster_idempotent_and_separated():
    rng = np.random.default_rng(11)
    n_days = 500
    vals = rng.normal(0.2, 0.6, size=n_days)
    series = make_daily_from_heights(dict(enumerate(vals)), n_days=n_days)
    out = decluster(series, threshold=0.9, separation_days=3)

    day_ints = out.dates.astype(np.int64)
    assert np.all(np.diff(day_ints) >= 3)
    assert np.all(out.heights >= out.threshold)
    assert out.counts.sum() == out.n_events == out.dates.size

    # rebuild a daily series holding only the retained records: re-declustering
    # must keep the content unchanged
    again_vals = {int(d - day_ints.min()): h for d, h in zip(day_ints, out.heights)}
    span = int(day_ints.max() - day_ints.min()) + 1
    start = str(out.dates[0])
    series2 = make_daily_from_heights(again_vals, n_days=span, start=start)
    # mark only record days valid so year durations differ but records persist
    out2 = decluster(series2, threshold=out.threshold, separation_days=3)
    assert out2.dates.tolist() == out.dates.tolist()
    assert out2.heights.tolist() == out.heights.tolist()


def test_decluster_durations_count_only_valid_days():
    series = make_daily_from_heights({10: 2.0, 400: 2.2}, n_days=730)
    series.max_level[[0, 1, 2, 500]] = np.nan  # three days of 2001, one of 2002
    out = decluster(series, 1.5, 3)
    assert out.years.tolist() == [2001, 2002]
    assert out.durations.tolist() == [362, 364]


def test_decluster_year_blocks_count_durations():
    # two calendar years, all days valid
    series = make_daily_from_heights({10: 2.0, 400: 2.2}, n_days=730)
    out = decluster(series, threshold=1.5, separation_days=3)
    assert out.years.tolist() == [2001, 2002]
    assert out.counts.tolist() == [1, 1]
    assert out.durations.tolist() == [365, 365]


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
    assert back.start == series.start
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
    "z_suffix": H + "2000-01-01T00Z,1.0\n2000-01-01T01Z,2.0\n2000-01-01T02:00:00Z,3.0\n",
    "space_in_stamp": H + "2000-01-01 00:00:00,1.0\n2000-01-01 01,2.0\n2000-01-01 02:30Z,3.0\n",
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
    "unsorted_gaps_pre_epoch": H + "1969-12-31T23,2.0\n1969-12-30T21,1.0\n1970-01-01T02,4.0\n"
                               "1969-12-31T01,3.0\n1969-12-30T22,1.5\n",
    "header_case": " Timestamp , LEVEL_M \n2000-01-01T00,1.0\n",
}


@pytest.mark.parametrize("chunk", READ_CHUNKS)
@pytest.mark.parametrize("case", list(HOURLY_CSV_CASES))
def test_hourly_csv_reader_equals_row_oracle(tmp_path, monkeypatch, case, chunk):
    path = tmp_path / "station.csv"
    with open(path, "w", newline="") as fh:
        fh.write(HOURLY_CSV_CASES[case])
    want_times, want_levels = read_hourly_csv_rows(path)
    monkeypatch.setattr(preprocess, "READ_CHUNK_CHARS", chunk)
    got = read_hourly_csv(path)
    assert np.array_equal(hours(got), want_times)
    assert np.array_equal(got.levels.view(np.int64), want_levels.view(np.int64))
    # the first pass sizes the buffers by the lines that text mode reads
    with open(path, newline="") as fh:
        assert preprocess._count_lines(path) == len(fh.readlines())


@pytest.mark.parametrize("chunk", [64, preprocess.READ_CHUNK_CHARS])
def test_hourly_csv_reader_equals_row_oracle_on_a_long_contiguous_record(
    tmp_path, monkeypatch, chunk
):
    rng = np.random.default_rng(10)
    vals = rng.normal(size=5000)
    vals[rng.uniform(size=vals.size) < 0.05] = np.nan
    path = tmp_path / "station.csv"
    write_hourly_csv(path, hourly(vals, start="1969-12-30T22"))
    want_times, want_levels = read_hourly_csv_rows(path)
    monkeypatch.setattr(preprocess, "READ_CHUNK_CHARS", chunk)

    def no_sort(*args, **kwargs):
        raise AssertionError("a sorted, contiguous record needs no sort")

    monkeypatch.setattr(np, "argsort", no_sort)
    got = read_hourly_csv(path)
    assert np.array_equal(hours(got), want_times)
    assert np.array_equal(got.levels.view(np.int64), want_levels.view(np.int64))


def test_hourly_csv_reader_and_detrend_hold_the_record_about_once(tmp_path):
    # numpy reports its buffers to tracemalloc; per row, the record itself is
    # 8 bytes (its level) and the detrended levels 8 more
    n = 50_000
    rng = np.random.default_rng(11)
    vals = rng.normal(size=n)
    vals[rng.uniform(size=n) < 0.05] = np.nan
    path = tmp_path / "station.csv"
    write_hourly_csv(path, hourly(vals, start="1990-01-01T00"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        series = read_hourly_csv(path)
        kept, peak = tracemalloc.get_traced_memory()
        read_peak, read_kept = (peak - before) / n, (kept - before) / n
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        detrended = detrend_moving_mean(series, 365.25)
        detrend_peak = (tracemalloc.get_traced_memory()[1] - before) / n
    finally:
        tracemalloc.stop()
    assert series.levels.size == detrended.levels.size == n
    assert read_peak <= 56, read_peak
    assert read_kept <= 17, read_kept
    assert read_kept <= 9, read_kept  # the levels, without a stamp per hour
    assert detrend_peak <= 40, detrend_peak


def test_detrend_and_daily_maxima_work_in_blocks():
    # per row above the input: the detrended levels are 8 bytes, and the daily
    # maxima a third of a byte; the blocks and a window of running sums add
    # the rest, which a record of 400,000 hours spreads thin
    n = 400_000
    rng = np.random.default_rng(12)
    vals = rng.normal(size=n)
    vals[rng.uniform(size=n) < 0.05] = np.nan
    series = hourly(vals, start="1970-01-01T00")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        detrended = detrend_moving_mean(series, 365.25)
        detrend_peak = (tracemalloc.get_traced_memory()[1] - before) / n
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        days = daily_maxima(detrended, 12)
        maxima_peak = (tracemalloc.get_traced_memory()[1] - before) / n
    finally:
        tracemalloc.stop()
    assert not np.isnan(days.max_level).all()
    assert detrend_peak <= 12, detrend_peak
    assert maxima_peak <= 5, maxima_peak


def test_hourly_csv_reader_equals_row_oracle_on_a_long_record(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    vals = rng.normal(size=5000)
    vals[rng.uniform(size=vals.size) < 0.05] = np.nan
    path = tmp_path / "station.csv"
    write_hourly_csv(path, hourly(vals))
    with open(path, "a", newline="") as fh:  # a few odd rows late in the file
        fh.write('\r\n"2001-01-01T00Z", 1.25 ,x\r\n2001-01-01T02\r\n   \r\n2000-12-31T23,\r\n')
    want_times, want_levels = read_hourly_csv_rows(path)
    monkeypatch.setattr(preprocess, "READ_CHUNK_CHARS", 4096)
    got = read_hourly_csv(path)
    assert np.array_equal(hours(got), want_times)
    assert np.array_equal(got.levels.view(np.int64), want_levels.view(np.int64))


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
    "leading_z": LATE + "Z2000-03-01T00,1.0\n",
    "z_inside_timestamp": LATE + "2000-03Z-01T00,1.0\n",
    "two_trailing_zs": LATE + "2000-03-01T00ZZ,1.0\n",
    "utc_offset": LATE + "2000-03-01T05+0100,1.0\n",
    "utc_offset_with_colon": LATE + "2000-03-01T07-02:00,1.0\n",
    "space_before_z": LATE + "2000-03-01T09 Z,1.0\n",
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


# a first row whose quoted level spans lines 2 and 3, so that each row after
# it starts on the line below its row number
SPANNING = H + '2000-01-01T00,"1.0\n"\n2000-01-01T01,2.0\n2000-01-01T02,3.0\n'
BAD_ROWS_AFTER_A_SPANNING_ROW = {
    "bad_timestamp": (SPANNING + "notatime,4.0\n", "6: bad timestamp 'notatime'"),
    "bad_timestamp_after_plain_chunks": (
        SPANNING + LATE[len(H):] + "notatime,4.0\n", "36: bad timestamp 'notatime'"),
    "bad_level_spanning_two_lines": (SPANNING + '2000-01-01T03,"4.0\nx"\n', "6: bad level '4.0\\nx'"),
    "bad_timestamp_spanning_two_lines": (SPANNING + '"not\na time",4.0\n', "6: bad timestamp 'not\\na time'"),
}
# the default size reads each file as one chunk; at 64 characters the bad row
# lies in a later chunk than the spanning row; at 76 a chunk ends inside the
# quoted level of bad_level_spanning_two_lines, which then reads on
@pytest.mark.parametrize("chunk", [preprocess.READ_CHUNK_CHARS, 64, 76])
@pytest.mark.parametrize("case", list(BAD_ROWS_AFTER_A_SPANNING_ROW))
def test_hourly_csv_reader_names_the_line_a_bad_row_starts_on(tmp_path, monkeypatch, case, chunk):
    text, where = BAD_ROWS_AFTER_A_SPANNING_ROW[case]
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    want = f"^{re.escape(f'{path}:{where}')}$"
    with pytest.raises(ValueError, match=want):
        read_hourly_csv_rows(path)
    monkeypatch.setattr(preprocess, "READ_CHUNK_CHARS", chunk)
    with pytest.raises(ValueError, match=want):
        read_hourly_csv(path)


def test_hourly_csv_reader_names_the_file_of_a_field_over_the_csv_size_limit(tmp_path):
    path = tmp_path / "station.csv"
    path.write_text(LATE + f'2000-03-01T00,"{"1" * (csv.field_size_limit() + 1)}"\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: field larger than"):
        read_hourly_csv(path)


# level forms that a plain chunk may hold, and forms that float reads but that
# send their chunk the csv way
PLAIN_LEVELS = ["", "-0.0", "0", "12", "-3.5", "0.001", "-0.642", "00.10",
                "12345678901234567", "-1234567.890123456"]
OTHER_LEVELS = ["1e-5", "-2.5E+3", "1e300", "nan", "-inf", "inf", "1_0", "\u0661",
                ".5", "5.", "+1", " 1.5 ", "-0.0\t"]


def random_hourly_csv(rng, n):
    """An hourly CSV of ``n`` rows with distinct stamps: mostly plain rows,
    with quoted (some over two lines), ``Z``, ``YYYY-MM-DD HH:MM:SS``,
    ``...T00:00:00Z``, padded, blank and CR-ended rows and other level forms
    mixed in."""
    hours = np.datetime64("1969-12-31T20", "h") + rng.choice(3 * n, size=n, replace=False)
    if rng.uniform() < 0.5:
        hours.sort()
    end = "\r\n" if rng.uniform() < 0.5 else "\n"
    rows = []
    for stamp in np.datetime_as_string(hours).tolist():
        seconds = f"{stamp}:00:00"
        if rng.uniform() < 0.3:
            stamp += ":00"
        if rng.uniform() < 0.5:  # 17 significant digits
            level = f"{rng.uniform(-10, 10):.16f}"
        else:
            level = PLAIN_LEVELS[rng.integers(len(PLAIN_LEVELS))]
        row = f"{stamp},{level}{end}"
        odd = rng.integers(40)
        if odd == 0:
            row = f"{stamp},{OTHER_LEVELS[rng.integers(len(OTHER_LEVELS))]}{end}"
        elif odd == 1:
            row = f'"{stamp}","{level}"{end}'
        elif odd == 2:
            row = f"{stamp}Z,{level}{end}"
        elif odd == 3:
            row = f" {stamp}\t, {level} {end}"
        elif odd == 4:
            row = f"{end} ,{end}{row}"
        elif odd == 5:
            row = f"{stamp},{level}\r"
        elif odd == 6:  # a quoted line end, perhaps across chunks
            row = f'{stamp},"{level}{end}"{end}'
        elif odd == 7:  # as pandas writes a stamp
            row = f"{seconds.replace('T', ' ')},{level}{end}"
        elif odd == 8:
            row = f"{seconds}Z,{level}{end}"
        rows.append(row)
    return H + "".join(rows)


@pytest.mark.parametrize("chunk", [64, 4096])
@pytest.mark.parametrize("seed", range(8))
def test_hourly_csv_reader_equals_row_oracle_on_random_files(tmp_path, monkeypatch, seed, chunk):
    rng = np.random.default_rng(seed)
    path = tmp_path / "station.csv"
    path.write_text(random_hourly_csv(rng, 400), encoding="utf-8", newline="")
    want_times, want_levels = read_hourly_csv_rows(path)
    monkeypatch.setattr(preprocess, "READ_CHUNK_CHARS", chunk)
    got = read_hourly_csv(path)
    assert np.array_equal(hours(got), want_times)
    assert np.array_equal(got.levels.view(np.int64), want_levels.view(np.int64))


BAD_ROWS = ["2000-02-30T00,1.0", "1999-13-01T00,1.0", "not-a-time,1.0", "2000-01-01T00,1.2.3",
            "2000-01-01T00,-", "2000-01-01T00,1..2", "2000-01-01T00,1-2", "2000-01-01T00,--1",
            "1969-12-31T23+01,1.0", "1969-12-31T23:00-02:00,1.0", "1969-12-31T23 Z,1.0"]


@pytest.mark.parametrize("chunk", [64, 4096])
@pytest.mark.parametrize("seed", range(len(BAD_ROWS)))
def test_hourly_csv_reader_names_a_bad_row_as_row_oracle_on_random_files(
    tmp_path, monkeypatch, seed, chunk
):
    rng = np.random.default_rng(100 + seed)
    lines = random_hourly_csv(rng, 400).splitlines(keepends=True)
    at = int(rng.integers(1, len(lines)))
    lines.insert(at, BAD_ROWS[seed] + "\n")
    path = tmp_path / "bad.csv"
    path.write_text("".join(lines), encoding="utf-8", newline="")
    with pytest.raises(ValueError) as want:
        read_hourly_csv_rows(path)
    assert "bad.csv:" in str(want.value)
    monkeypatch.setattr(preprocess, "READ_CHUNK_CHARS", chunk)
    with pytest.raises(ValueError) as got:
        read_hourly_csv(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("level", ["", "0", "-0", "-0.0", "007", "12345678901234567.5",
                                   "-1.0000000000000000000000000001"])
def test_a_level_of_the_plain_grammar_is_parsed_as_bytes(level):
    rows = f"2000-01-01T00,1.5\r\n2000-01-01T01,{level}\r\n2000-01-01T02,-2\r\n"
    stamps, levels = preprocess._bulk_columns(rows)
    assert stamps.tolist() == [b"2000-01-01T00", b"2000-01-01T01", b"2000-01-01T02"]
    assert bits(levels) == bits([1.5, float(level or "nan"), -2.0])


# forms the plain grammar -?digits[.digits] leaves out, float reads or not:
# their chunk goes the csv path, whatever numpy's cast would make of them
@pytest.mark.parametrize("level", ["1.2.3", "1..2", "1.", ".5", "-.5", "+1", "-", "--1", "1-2",
                                   "1e5", "1E5", "1_0", "nan", "inf", "0x1", "1.5x", "1 5", "1" * 32])
def test_a_level_outside_the_plain_grammar_goes_the_text_path(level):
    rows = f"2000-01-01T00,1.5\n2000-01-01T01,{level}\n2000-01-01T02,2.5\n"
    assert preprocess._bulk_columns(rows) is None
    assert preprocess._bulk_columns(rows.replace(level, "0.25")) is not None


@pytest.mark.parametrize("stamp", ["2000-01-01T00Z", "2000-01-01T00:00:00Z", "2000-01-01Z",
                                   "1928-01-01 00:00:00", "2000-01-01 00", "2000-01-01 00:00Z"])
def test_a_stamp_of_the_plain_grammar_is_parsed_as_bytes(stamp):
    rows = f"2000-01-01T02,2.5\n{stamp},1.5\r\n2000-01-01T03Z,\n"
    stamps, levels = preprocess._bulk_columns(rows)
    assert stamps.tolist() == [b"2000-01-01T02", stamp.removesuffix("Z").encode(), b"2000-01-01T03"]
    assert bits(levels) == bits([2.5, 1.5, np.nan])


@pytest.mark.parametrize("rows", [
    '"2000-01-01T00",1.5\n', " 2000-01-01T00,1.5\n", "2000-01-01T00,1.5 \n",
    "2000-01-01T00\t,1.5\n", "2000-01-01T00,1.5\r2000-01-01T01,1\n",
    "\n2000-01-01T00,1.5\n", ",1.5\n", "2000-01-01T00\n", "2000-01-01T00,1.5,x\n",
    "2000-01-01T00,1.5\n\n", "2000-01-01T00,١\n", "2000-01-01T00\x0b,1.5\n",
    " 2000-01-01 00,1.5\n", "2000-01-01 00 ,1.5\n", "2000-01-01T00 Z,1.5\n",
    "2000-01Z-01T00,1.5\n",
])
def test_a_row_that_is_not_plain_sends_its_chunk_the_text_path(rows):
    assert preprocess._bulk_columns("2000-01-01T02,2.5\n" + rows) is None


# a UTC offset after a plain stamp's time: its chunk goes the bytes path, where
# numpy's cast warns of the zone, and the reader refuses the row by its line
@pytest.mark.parametrize("stamp", ["2000-01-01T00+01", "2000-01-01T00:00-0130", "2000-01-01 00-01",
                                   "2000-01-01T00+01Z", "2000-01-01T00:00:00.12345-01"])
def test_an_offset_is_refused_on_the_bytes_path(tmp_path, stamp):
    rows = f"2000-01-01T02,2.5\n{stamp},1.5\n"
    assert preprocess._bulk_columns(rows) is not None
    path = tmp_path / "bad.csv"
    path.write_text(H + rows)
    with pytest.raises(ValueError, match=re.escape(f"bad.csv:3: bad timestamp {stamp!r}")):
        read_hourly_csv(path)


# the zone forms after a stamp's time that README names: the reader refuses
# each because numpy's cast of it, as the reader casts a list of str and a byte
# array, warns (UserWarning on numpy 2, DeprecationWarning on numpy 1.24) or
# fails, and never returns an hour silently
ZONE_STAMPS = ["2000-01-01T05+0100", "2000-01-01T07-02:00", "2000-01-01T05+01",
               "2000-01-01T09 Z", "2000-01-01T09 ", "2000-01-01T05Z", "2000-01-01T05a"]


@pytest.mark.parametrize("form", ["str", "bytes"])
@pytest.mark.parametrize("stamp", ZONE_STAMPS)
def test_numpy_casts_a_stamp_with_a_zone_only_with_a_warning_or_an_error(stamp, form):
    stamps = [stamp] if form == "str" else np.array([stamp.encode()])
    t = np.empty(1, dtype="datetime64[h]")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((UserWarning, DeprecationWarning, ValueError)):
            t[:] = stamps


# plain levels for the mantissa parse: leading zeros, negative zeros, the
# most digits it takes (15) and the fewest
MANTISSA_LEVELS = ["", "0", "-0", "-0.000", "000", "007.500", "-0000.0001", "00.10",
                   "999999999999999", "-99999999.9999999", "0.00000000000001", "123456789012345"]


def random_plain_levels(rng, n):
    """``n`` random ``-?digits[.digits]`` levels of at most 15 digits, leading
    zeros and ``-0`` forms included."""
    levels = []
    for _ in range(n):
        whole = rng.integers(1, 10)
        digits = "".join(map(str, rng.integers(0, 10, size=whole + rng.integers(0, 16 - whole))))
        sign = "-" if rng.uniform() < 0.5 else ""
        levels.append(sign + digits[:whole] + ("." + digits[whole:] if len(digits) > whole else ""))
    return levels


@pytest.mark.parametrize("longest", [None, "1234567890123456", "-0.0000000000000001",
                                     "12345678901234567890.5"])
def test_plain_levels_read_as_mantissas_equal_numpy_bit_for_bit(monkeypatch, longest):
    # at most 15 digits a level: the mantissa parse alone; one longer level
    # sends its chunk to numpy's cast
    rng = np.random.default_rng(16)
    levels = MANTISSA_LEVELS + random_plain_levels(rng, 3000)
    if longest is not None:
        levels.insert(int(rng.integers(len(levels))), longest)
    text = "".join(f"2000-01-01T00,{level}\n" for level in levels)
    want = bits([level or "nan" for level in levels])
    cast = preprocess._cast_levels
    casts = []
    monkeypatch.setattr(preprocess, "_cast_levels", lambda *a: casts.append(1) or cast(*a))
    assert bits(preprocess._bulk_columns(text)[1]) == want
    assert len(casts) == (longest is not None)


def csv_path(*args):
    raise AssertionError("a plain chunk went the csv path")


def test_hourly_csv_reader_parses_a_written_record_as_bytes(tmp_path, monkeypatch):
    # every chunk of a file that write_hourly_csv writes is plain: none may
    # fall back to the csv path
    rng = np.random.default_rng(12)
    vals = rng.normal(size=20_000).round(3)
    vals[rng.uniform(size=vals.size) < 0.05] = np.nan
    vals[:3] = [-0.0, 12345.5, 0.0]
    path = tmp_path / "station.csv"
    write_hourly_csv(path, hourly(vals, start="1969-12-30T22"))
    for name in ("_csv_rows", "_row_columns"):
        monkeypatch.setattr(preprocess, name, csv_path)
    got = read_hourly_csv(path)
    assert got.start == np.datetime64("1969-12-30T22", "h")
    assert np.array_equal(got.levels.view(np.int64), vals.view(np.int64))


@pytest.mark.parametrize("form", ["z_suffix", "space_in_stamp"])
def test_hourly_csv_reader_parses_z_and_space_stamps_as_bytes(tmp_path, monkeypatch, form):
    # a written record with its stamps rewritten as other tools write them
    rng = np.random.default_rng(13)
    vals = rng.normal(size=20_000).round(3)
    vals[rng.uniform(size=vals.size) < 0.05] = np.nan
    path = tmp_path / "station.csv"
    write_hourly_csv(path, hourly(vals, start="1969-12-30T22"))
    lines = path.read_text().splitlines(keepends=True)
    for k, line in enumerate(lines[1:], start=1):
        stamp, level = line.split(",")
        lines[k] = (f"{stamp}:00:00Z," if form == "z_suffix"
                    else f"{stamp.replace('T', ' ')}:00:00,") + level
    path.write_text("".join(lines))
    want_times, want_levels = read_hourly_csv_rows(path)
    bulk_columns = preprocess._bulk_columns

    def bytes_path(text):
        return bulk_columns(text) or csv_path()

    monkeypatch.setattr(preprocess, "_bulk_columns", bytes_path)
    got = read_hourly_csv(path)
    assert np.array_equal(hours(got), want_times)
    assert np.array_equal(got.levels.view(np.int64), want_levels.view(np.int64))
    assert np.array_equal(got.levels.view(np.int64), vals.view(np.int64))


def test_hourly_csv_reader_skips_a_byte_order_mark(tmp_path):
    # spreadsheet programs start a UTF-8 CSV with one
    text = b"timestamp,level_m\r\n2000-01-01T00,1.0\r\n2000-01-01T01,2.0\r\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text)
    marked.write_bytes(codecs.BOM_UTF8 + text)
    want, got = read_hourly_csv(plain), read_hourly_csv(marked)
    assert got.start == want.start == np.datetime64("2000-01-01T00", "h")
    assert got.levels.tolist() == want.levels.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("stamp", ["", "  ", "NaT", "nat", "Z", "now", "NOW", "today"])
def test_hourly_csv_missing_timestamp_names_its_line(tmp_path, stamp):
    path = tmp_path / "bad.csv"
    path.write_text(f"timestamp,level_m\n2000-01-01T00,1.0\n{stamp},2.0\n")
    with pytest.raises(ValueError, match=f"bad.csv:3: bad timestamp {stamp!r}"):
        read_hourly_csv(path)


# a Z that does not end its stamp: such a chunk never goes the bytes path,
# and the row is refused whether or not it is padded (csv rows either way)
@pytest.mark.parametrize("row", ["{},2.0", " {} , 2.0 "])
@pytest.mark.parametrize("stamp", ["2000-01Z-01T00", "2000-01-01T00ZZ", "Z2000-01-01T01"])
def test_hourly_csv_z_that_does_not_end_its_timestamp_names_its_line(tmp_path, stamp, row):
    path = tmp_path / "bad.csv"
    text = f"timestamp,level_m\n2000-01-01T00,1.0\n{row.format(stamp)}\n"
    path.write_text(text)
    assert preprocess._bulk_columns(text.split("\n", 1)[1]) is None
    field = row.format(stamp).split(",")[0]
    with pytest.raises(ValueError, match=re.escape(f"bad.csv:3: bad timestamp {field!r}")):
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


def test_hourly_csv_writer_equals_row_oracle_on_thousands_of_levels(tmp_path, monkeypatch):
    rng = np.random.default_rng(17)
    millimetres = np.concatenate([
        rng.integers(-5000, 5000, size=2000),
        rng.integers(-10**12 + 1, 10**12, size=1000),
        10 ** rng.integers(0, 12, size=500) * rng.choice([-1, 1], size=500) - 1,
    ]) / 1000
    others = rng.normal(size=1500) * 10.0 ** rng.integers(-12, 14, size=1500)
    edges = [999999999.999, -999999999.999, 1e9, -1e9, 1e12, np.nextafter(1e9, 0),
             np.nextafter(1e9, 2e9), 999999999.9995, 0.001, -0.001, 0.0005, 1e-4, 1e16,
             0.0, -0.0, np.nan, np.inf, -np.inf]
    vals = np.concatenate([millimetres, others, np.repeat(edges, 20)])
    vals = vals[rng.permutation(vals.size)]
    vals[rng.uniform(size=vals.size) < 0.05] = np.nan
    # chunk edges fall inside a day; the record starts before 1970, at 07:00
    monkeypatch.setattr(preprocess, "WRITE_CHUNK_ROWS", 1000)
    for start in ("1969-11-30T07", "1899-12-31T20"):
        series = hourly(vals, start=start)
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
    assert series.start == np.datetime64("2000-01-01T00", "h")
    assert series.levels.size == 4
    assert np.isnan(series.levels[1]) and np.isnan(series.levels[2])


def test_hourly_csv_reads_a_ten_year_hole(tmp_path):
    path = tmp_path / "hole.csv"
    path.write_text("timestamp,level_m\n2000-01-01T00,1.0\n2000-01-01T01,2.0\n2010-01-01T00,3.0\n")
    series = read_hourly_csv(path)
    hours = (np.datetime64("2010-01-01T00") - np.datetime64("2000-01-01T00")).astype(int)
    assert series.start == np.datetime64("2000-01-01T00", "h")
    assert series.levels.size == hours + 1
    assert series.levels[[0, 1, -1]].tolist() == [1.0, 2.0, 3.0]
    assert np.isnan(series.levels[2:-1]).all()


def test_hourly_csv_allows_at_most_a_century_of_absent_hours(tmp_path):
    path = tmp_path / "sparse.csv"
    start = np.datetime64("2000-01-01T00", "h")
    limit = preprocess.MAX_ABSENT_HOURS
    assert limit == 100 * 8766
    end = start + np.timedelta64(limit + 1, "h")  # two rows, limit hours absent between
    path.write_text(f"timestamp,level_m\n{start},1.0\n{end},2.0\n")
    assert read_hourly_csv(path).levels.size == limit + 2
    end += np.timedelta64(1, "h")
    path.write_text(f"timestamp,level_m\n{end},2.0\n{start},1.0\n")
    with pytest.raises(ValueError, match=(
        f"sparse.csv: 2 rows from {start} to {end} leave more than a century of hours absent$"
    )):
        read_hourly_csv(path)


def simulated_record():
    # about one event in three years: some years have none
    spec = SimulationSpec(
        [0.001, 0.12, 0.1], ModelStructure(NonstatLevel.ST, None), None, 1990, 2013, 1.0, seed=3
    )
    return simulate_record(spec)


@pytest.mark.parametrize(
    "make",
    [
        # 2002 is observed but has no event
        lambda: decluster(
            make_daily_from_heights({10: 2.0, 40: 2.2, 41: 2.5}, n_days=730), 1.5, 3
        ),
        lambda: decluster(make_daily_from_heights({}, n_days=730), 1.5, 3),  # no events at all
        simulated_record,
    ],
    ids=["declustered", "no_events", "simulated"],
)
def test_exceedance_json_roundtrips_byte_for_byte(tmp_path, make):
    data = make()
    assert data.years.size >= 2 and (data.counts == 0).any()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    data.save(first)
    back = ExceedanceSet.load(first)
    back.save(second)
    assert second.read_bytes() == first.read_bytes()
    for name in ("years", "durations", "counts", "dates", "heights"):
        assert getattr(back, name).tolist() == getattr(data, name).tolist()
        assert getattr(back, name).dtype == getattr(data, name).dtype


@pytest.mark.parametrize(
    "change, message",
    [
        ({"durations": [366]}, "years, durations and counts must have equal length"),
        ({"counts": [1, 0, 0]}, "years, durations and counts must have equal length"),
        ({"durations": [0, 365]}, "duration_days out of range: 0"),
        ({"durations": [366, 367]}, "duration_days out of range: 367"),
        ({"dates": ["2000-03-01", "2000-03-05"]}, "dates and heights must have equal length"),
        ({"counts": [1, 1]}, "sum to the number of events"),
        ({"counts": [0, 0]}, "sum to the number of events"),
        ({"counts": [2, -1]}, "counts must be nonnegative"),
        ({"years": [2000, 2000]}, "year 2000 is listed more than once"),
        ({"dates": ["2001-03-01"]}, "event dated 2001-03-01 lies outside its year 2000"),
        ({"dates": ["NaT"]}, "event dated NaT lies outside its year 2000"),
        ({"heights": [0.5]}, "event height 0.5 lies below the threshold 1.0"),
        ({"heights": [float("nan")]}, "event height nan lies below the threshold 1.0"),
    ],
)
def test_exceedance_set_refuses_inconsistent_arrays(change, message):
    fields = dict(years=[2000, 2001], durations=[366, 365], counts=[1, 0],
                  dates=["2000-03-01"], heights=[1.2])
    assert ExceedanceSet(1.0, **fields).n_events == 1
    with pytest.raises(ValueError, match=message):
        ExceedanceSet(1.0, **{**fields, **change})


def test_exceedance_json_with_a_bad_duration_is_refused():
    payload = ExceedanceSet(1.0, [2000], [366], [1], ["2000-03-01"], [1.2]).to_dict()
    payload["years"][0]["duration_days"] = 400
    with pytest.raises(ValueError, match="duration_days out of range: 400"):
        ExceedanceSet.from_dict(payload)


def test_exceedance_set_json_roundtrip(tmp_path):
    series = make_daily_from_heights({10: 2.0, 40: 2.2, 41: 2.5}, n_days=365)
    out = decluster(series, threshold=1.5, separation_days=3)
    path = tmp_path / "exc.json"
    out.save(path)
    back = ExceedanceSet.load(path)
    assert back.threshold == out.threshold
    for name in ("years", "durations", "counts", "dates", "heights"):
        assert getattr(back, name).tolist() == getattr(out, name).tolist()
        assert getattr(back, name).dtype == getattr(out, name).dtype
