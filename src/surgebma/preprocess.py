"""Tide-gauge preprocessing: detrend, daily maxima, threshold, decluster.

Turns raw hourly sea level records into the year-grouped set of declustered
threshold exceedances that the Poisson-process/GPD likelihood consumes.
The processing chain follows common peaks-over-threshold practice: subtract
a centered one-year running mean, reduce to daily maxima, keep days above a
high empirical quantile, and retain only cluster maxima so the final events
are approximately independent.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .utils import dump_json, empirical_quantile, load_json, write_csv

HOURS_PER_DAY = 24
# chunk sizes of the hourly CSV reader (characters) and writer (rows): they
# bound the memory per numpy call and change no result
READ_CHUNK_CHARS = 1 << 16
WRITE_CHUNK_ROWS = 1 << 15


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HourlySeries:
    """Regular hourly grid of sea levels in meters; NaN marks missing hours.

    ``times`` is a contiguous datetime64[h] grid (strictly increasing by
    construction); gaps in the source data appear as NaN levels.
    """

    times: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        if self.times.size == 0:
            raise ValueError("empty input")
        if self.times.size != self.levels.size:
            raise ValueError("times and levels must have equal length")
        step = np.diff(self.times.astype("datetime64[h]").astype(np.int64))
        if step.size and not np.all(step == 1):
            raise ValueError("times must form a contiguous hourly grid")

    @property
    def valid(self) -> np.ndarray:
        return np.isfinite(self.levels)


@dataclass(frozen=True)
class DailySeries:
    """Daily maxima of (detrended) sea level; ``valid`` flags usable days."""

    dates: np.ndarray  # datetime64[D], strictly increasing
    max_level: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        if not (self.dates.size == self.max_level.size == self.valid.size):
            raise ValueError("fields must have equal length")
        if self.dates.size and np.any(np.diff(self.dates.astype(np.int64)) <= 0):
            raise ValueError("dates must be strictly increasing")
        if np.any(~np.isfinite(self.max_level[self.valid])):
            raise ValueError("valid days must carry finite maxima")

    def restrict_years(self, first_year: int, last_year: int) -> "DailySeries":
        years = self.dates.astype("datetime64[Y]").astype(np.int64) + 1970
        keep = (years >= first_year) & (years <= last_year)
        return DailySeries(self.dates[keep], self.max_level[keep], self.valid[keep])


@dataclass(frozen=True)
class ExceedanceRecord:
    date: np.datetime64  # calendar day
    height: float  # meters, >= owning threshold


@dataclass(frozen=True)
class YearBlock:
    """One calendar year of observation: retained events plus coverage."""

    year: int
    records: tuple[ExceedanceRecord, ...]
    duration_days: int  # valid observed days that year

    @property
    def count(self) -> int:
        return len(self.records)

    def __post_init__(self):
        if not (0 < self.duration_days <= 366):
            raise ValueError(f"duration_days out of range: {self.duration_days}")


@dataclass(frozen=True)
class ExceedanceSet:
    """Declustered exceedances of ``threshold``, grouped by calendar year."""

    threshold: float
    years: tuple[YearBlock, ...]

    @property
    def n_events(self) -> int:
        return sum(b.count for b in self.years)

    def all_records(self) -> list[ExceedanceRecord]:
        return [r for b in self.years for r in b.records]

    def to_dict(self) -> dict:
        return {
            "threshold_m": self.threshold,
            "years": [
                {
                    "year": b.year,
                    "duration_days": b.duration_days,
                    "records": [
                        {"date": str(r.date), "height_m": r.height} for r in b.records
                    ],
                }
                for b in self.years
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExceedanceSet":
        blocks = []
        for b in d["years"]:
            records = tuple(
                ExceedanceRecord(np.datetime64(r["date"], "D"), float(r["height_m"]))
                for r in b["records"]
            )
            blocks.append(YearBlock(int(b["year"]), records, int(b["duration_days"])))
        return cls(float(d["threshold_m"]), tuple(blocks))

    def save(self, path) -> None:
        dump_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "ExceedanceSet":
        return cls.from_dict(load_json(path))


# ---------------------------------------------------------------------------
# CSV ingest
# ---------------------------------------------------------------------------


def read_hourly_csv(path) -> HourlySeries:
    """Read ``timestamp,level_m`` CSV (ISO-8601 UTC, empty field = missing).

    Rows are parsed in chunks of about ``READ_CHUNK_CHARS``: one numpy
    conversion per column and chunk, with a row-by-row scan only to name the
    line of a bad row. The output grid is regularized: hours absent from the
    file become NaN.
    """
    stamps = [np.empty(0, dtype="datetime64[h]")]
    values = [np.empty(0)]
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError("empty input")
        if [c.strip().lower() for c in header[:2]] != ["timestamp", "level_m"]:
            raise ValueError(f"expected header 'timestamp,level_m', got {header!r}")
        lineno = 2
        while lines := fh.readlines(READ_CHUNK_CHARS):
            rows = None
            columns = _plain_columns(lines)
            if columns is None:
                rows = _csv_rows(lines, fh)
                columns = _row_columns(rows)
            try:
                t, v = _parse_columns(*columns)
            except ValueError:
                _raise_bad_row(path, csv.reader(lines) if rows is None else rows, lineno)
                raise
            stamps.append(t)
            values.append(v)
            lineno += len(lines) if rows is None else len(rows)
    t = np.concatenate(stamps)
    if not t.size:
        raise ValueError("empty input")
    order = np.argsort(t)
    t, vals = t[order], np.concatenate(values)[order]
    if np.any(np.diff(t.astype(np.int64)) == 0):
        raise ValueError("duplicate timestamps in input")
    grid = np.arange(t[0], t[-1] + np.timedelta64(1, "h"), dtype="datetime64[h]")
    full = np.full(grid.size, np.nan)
    full[(t - grid[0]).astype(np.int64)] = vals
    return HourlySeries(grid, full)


def _plain_columns(lines):
    """Stripped timestamp and level fields of ``lines``, or None unless every
    line is a plain ``timestamp,level`` row: no quote, exactly one comma, a
    non-blank timestamp and no field over the csv module's size limit. Such
    lines split into fields without a list per row."""
    joined = ",".join(lines)
    limit = csv.field_size_limit()
    if '"' in joined or (len(joined) > limit and max(map(len, lines)) > limit):
        return None
    fields = joined.split(",")
    stamps = fields[0::2]
    # 2n fields mean n commas in the n lines; no line end in an even (timestamp)
    # field means an odd number of commas in every line, so one in each
    heads = "".join(stamps)
    if len(fields) != 2 * len(lines) or "\n" in heads or "\r" in heads:
        return None
    stamps = list(map(str.strip, stamps))
    if "" in stamps:  # a blank row or a missing timestamp
        return None
    return stamps, list(map(str.strip, fields[1::2]))


def _csv_rows(lines, fh) -> list[list[str]]:
    """The csv rows of ``lines``, reading on from ``fh`` to the end of a quoted
    field left open by the last line."""
    reader = csv.reader(chain(lines, fh))
    rows = []
    while reader.line_num < len(lines):
        rows.append(next(reader))
    return rows


def _row_columns(rows):
    """Stripped timestamp and level fields of the non-blank ``rows``."""
    kept = [row for row in rows if any(c.strip() for c in row)]
    return ([row[0].strip() for row in kept],
            [row[1].strip() if len(row) > 1 else "" for row in kept])


def _parse_columns(stamps, levels):
    """datetime64[h] and float arrays of the stripped fields; an empty level is
    NaN. Raises ValueError on any bad field."""
    t = np.array([s.replace("Z", "") for s in stamps], dtype="datetime64[h]")
    if np.isnat(t).any():  # numpy reads "" and "NaT" as NaT without raising
        raise ValueError("missing timestamp")
    return t, np.array([v or "nan" for v in levels], dtype=float)  # float("nan") is np.nan


def _raise_bad_row(path, rows, first_lineno) -> None:
    """Raise the ``path:line`` error of the first bad row, scanning row by row."""
    for lineno, row in enumerate(rows, start=first_lineno):
        if not any(c.strip() for c in row):
            continue
        try:
            ts = np.datetime64(row[0].strip().replace("Z", ""), "h")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad timestamp {row[0]!r}") from exc
        if np.isnat(ts):
            raise ValueError(f"{path}:{lineno}: bad timestamp {row[0]!r}")
        raw = row[1].strip() if len(row) > 1 else ""
        if raw:
            try:
                float(raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad level {raw!r}") from exc


def write_hourly_csv(path, series: HourlySeries) -> None:
    write_csv(path, ["timestamp", "level_m"], chain.from_iterable(
        _hourly_rows(series.times[i:i + WRITE_CHUNK_ROWS], series.levels[i:i + WRITE_CHUNK_ROWS])
        for i in range(0, series.times.size, WRITE_CHUNK_ROWS)
    ))


def _hourly_rows(times, levels):
    """CSV rows of one chunk: timestamps as ``str`` writes them, finite levels
    in their shortest round-trip form, other levels empty."""
    texts = list(map(repr, levels.tolist()))
    for k in np.flatnonzero(~np.isfinite(levels)).tolist():
        texts[k] = ""
    return zip(np.datetime_as_string(times).tolist(), texts)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def detrend_moving_mean(
    series: HourlySeries,
    window_days: float = 365.25,
    min_valid_fraction: float = 0.5,
) -> HourlySeries:
    """Subtract a centered moving-window mean (default one year) from each hour.

    The window is [t - w/2, t + w/2], shrinking where it overhangs the record
    edges. Hours whose window holds fewer than ``min_valid_fraction`` valid
    samples are marked missing, as are hours missing in the input.
    """
    if window_days < 1:
        raise ValueError("window_days must be >= 1")
    levels = series.levels
    n = levels.size
    half = int(round(window_days * HOURS_PER_DAY / 2))

    # running sums of the valid levels and of the valid count, each led by a 0;
    # every full-length buffer below is made once and worked on in place
    valid = np.isfinite(levels)
    csum = np.zeros(n + 1)
    np.copyto(csum[1:], levels, where=valid)
    np.cumsum(csum[1:], out=csum[1:])
    ccount = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(valid, out=ccount[1:])

    # hour i averages hours lo[i] .. hi[i] - 1
    lo = np.arange(-half, n - half)
    np.maximum(lo, 0, out=lo)
    hi = np.arange(half + 1, n + half + 1)
    np.minimum(hi, n, out=hi)
    n_valid = ccount[hi]
    n_valid -= ccount[lo]
    del ccount
    out = csum[hi]
    out -= csum[lo]
    hi -= lo  # the window's length in hours

    with np.errstate(invalid="ignore", divide="ignore"):
        out /= n_valid  # the window mean
    np.subtract(levels, out, out=out)
    out[~valid] = np.nan
    # valid hours short of min_valid_fraction of the window, in csum's buffer
    short = np.less(n_valid, np.multiply(hi, min_valid_fraction, out=csum[:n]), out=valid)
    out[short] = np.nan
    return HourlySeries(series.times, out)


def daily_maxima(series: HourlySeries, min_valid_hours: int = 12) -> DailySeries:
    """Reduce an hourly series to per-UTC-day maxima.

    Days with fewer than ``min_valid_hours`` valid hours are flagged invalid.
    """
    if not 1 <= min_valid_hours <= 24:
        raise ValueError("min_valid_hours must be in [1, 24]")
    # the grid is increasing, so each day's hours are one run: it starts where
    # the day changes (np.unique's first indices, without its sort)
    days = series.times.astype("datetime64[D]")
    start = np.concatenate([[0], np.flatnonzero(days[1:] != days[:-1]) + 1])
    uniq = days[start]
    del days

    valid = np.isfinite(series.levels)
    counts = np.add.reduceat(valid, start, dtype=np.int64)
    filled = np.where(valid, series.levels, -np.inf)
    maxima = np.maximum.reduceat(filled, start)

    ok = counts >= min_valid_hours
    out = np.where(ok, maxima, np.nan)
    out[~np.isfinite(out)] = np.nan
    ok &= np.isfinite(out)
    return DailySeries(uniq, out, ok)


def compute_threshold(daily: DailySeries, quantile: float = 0.99) -> float:
    """Empirical quantile of the valid daily maxima (the GPD threshold)."""
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must lie in (0, 1)")
    vals = daily.max_level[daily.valid]
    if vals.size < 100:
        raise ValueError("insufficient data")
    return float(empirical_quantile(vals, quantile))


def decluster(
    daily: DailySeries, threshold: float, separation_days: int = 3
) -> ExceedanceSet:
    """Runs-decluster daily exceedances of ``threshold``.

    Consecutive exceedance days closer than ``separation_days`` chain into
    one cluster; only the cluster maximum survives (earliest day on ties).
    Retained events are therefore pairwise separated by at least
    ``separation_days``, across year boundaries included. Events are grouped
    into calendar-year blocks whose duration is the number of valid observed
    days in that year, so gappy years weight the Poisson term proportionally.
    """
    if separation_days < 1:
        raise ValueError("separation_days must be >= 1")

    exceed = daily.valid & (daily.max_level >= threshold)
    exc_days = daily.dates[exceed].astype(np.int64)
    exc_heights = daily.max_level[exceed]

    records: list[ExceedanceRecord] = []
    i = 0
    while i < exc_days.size:
        j = i
        while j + 1 < exc_days.size and exc_days[j + 1] - exc_days[j] < separation_days:
            j += 1
        k = i + int(np.argmax(exc_heights[i : j + 1]))  # argmax takes earliest tie
        records.append(
            ExceedanceRecord(exc_days[k].astype("datetime64[D]"), float(exc_heights[k]))
        )
        i = j + 1

    valid_years = daily.dates[daily.valid].astype("datetime64[Y]").astype(np.int64) + 1970
    year_of_record = np.array(
        [r.date.astype("datetime64[Y]").astype(np.int64) + 1970 for r in records],
        dtype=np.int64,
    )

    blocks = []
    for year in np.unique(valid_years):
        duration = int(np.sum(valid_years == year))
        recs = tuple(r for r, y in zip(records, year_of_record) if y == year)
        blocks.append(YearBlock(int(year), recs, duration))
    return ExceedanceSet(float(threshold), tuple(blocks))


def preprocess_station(
    series: HourlySeries,
    first_year: int,
    last_year: int,
    window_days: float = 365.25,
    min_valid_hours: int = 12,
    threshold_quantile: float = 0.99,
    separation_days: int = 3,
) -> ExceedanceSet:
    """Full chain: detrend, daily maxima, trim to window, threshold, decluster."""
    detrended = detrend_moving_mean(series, window_days)
    daily = daily_maxima(detrended, min_valid_hours).restrict_years(first_year, last_year)
    threshold = compute_threshold(daily, threshold_quantile)
    return decluster(daily, threshold, separation_days)
