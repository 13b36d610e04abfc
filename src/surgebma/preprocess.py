"""Tide-gauge preprocessing: detrend, daily maxima, threshold, decluster.

Turns raw hourly sea level records into the set of declustered threshold
exceedances that the Poisson-process/GPD likelihood consumes. The hourly
record and its daily maxima are regular series, each its first step and its
values. The exceedance set is arrays only: per calendar year the observed
days and the event count, per event the date and the height, which the
likelihood reads as they are.
The processing chain follows common peaks-over-threshold practice: subtract
a centered one-year running mean, reduce to daily maxima, keep days above a
high empirical quantile, and retain only cluster maxima so the final events
are approximately independent.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from itertools import chain, islice, tee

import numpy as np

from .utils import dump_json, load_json, parse_errors_named, writable

HOURS_PER_DAY = 24
MIN_VALID_FRACTION = 0.5  # detrending: least share of valid hours in an hour's window
# the most hours a gappy or unsorted hourly CSV may leave absent between its
# earliest and latest stamps: a century, which no gauge's gaps come near
MAX_ABSENT_HOURS = 100 * 8766
# chunk sizes of the hourly CSV reader (characters; bytes in its first pass)
# and writer (rows): they bound the memory per numpy call and change no result
READ_CHUNK_CHARS = 1 << 16
WRITE_CHUNK_ROWS = 1 << 15
# detrending and daily maxima take the record in blocks of this many hours
# (whole days), which bound their temporaries and change no result
BLOCK_HOURS = 512 * HOURS_PER_DAY
# the writer formats a level exact to the millimetre from the integer digits
# of its millimetres while they are fewer than this, and any other by repr
MILLIMETRE_BOUND = 1e12
# a stamp's hour after its day, T00 to T23, as rows of bytes
_HOUR_TEXT = np.array([f"T{h:02d}" for h in range(HOURS_PER_DAY)], "S3").view(np.uint8)
_HOUR_TEXT = _HOUR_TEXT.reshape(HOURS_PER_DAY, 3)
# a plain chunk of an hourly CSV (stamps perhaps with a trailing Z or a space
# inside) is parsed as bytes, each field shorter than PLAIN_FIELD_BYTES, and
# any other chunk as csv rows; row k of _FIELD_MASKS, as 64-bit words, keeps
# the first k bytes of a gathered field and zeroes the rest
PLAIN_FIELD_BYTES = 32
_FIELD_MASKS = np.tri(PLAIN_FIELD_BYTES + 1, PLAIN_FIELD_BYTES + 8, -1, np.uint8) * np.uint8(255)
_FIELD_MASKS = _FIELD_MASKS.view(np.uint64)
# a plain level of at most EXACT_DIGITS digits is read as an integer mantissa
# over a power of ten, both exact doubles; a chunk with a longer one takes
# numpy's cast
EXACT_DIGITS = 15
_POWERS_OF_TEN = np.array([10 ** k for k in range(EXACT_DIGITS + 1)], dtype=float)
# stamps are cast to datetime64 at most this many per numpy call: a cast of
# more byte stamps, which numpy seems to run without the GIL, is killed by a
# signal at a bad one ("2000-02-30T00", "notatime"; numpy 2.4) instead of raising
CAST_ITEMS = 500
# ExceedanceSet's array fields and the dtype each is stored in
_EXCEEDANCE_DTYPES = {
    "years": np.int64, "durations": np.int64, "counts": np.int64,
    "dates": "datetime64[D]", "heights": np.float64,
}


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HourlySeries:
    """Sea levels in meters, one per hour: ``levels[k]`` is the level ``k``
    hours after ``start`` (datetime64[h]); NaN marks a missing hour."""

    start: np.datetime64
    levels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "start", np.datetime64(self.start, "h"))
        if np.isnat(self.start):
            raise ValueError("start must be an hour, not NaT")
        if self.levels.size == 0:
            raise ValueError("empty input")


@dataclass(frozen=True)
class DailySeries:
    """Daily maxima of (detrended) sea level, one per day: ``max_level[k]`` is
    for ``k`` days after ``first_day`` (datetime64[D]); NaN marks an unusable day."""

    first_day: np.datetime64
    max_level: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "first_day", np.datetime64(self.first_day, "D"))
        if np.isinf(self.max_level).any():
            raise ValueError("daily maxima must be finite or NaN")

    def restrict_years(self, first_year: int, last_year: int) -> "DailySeries":
        # day offsets of 1 January of first_year and of the year after last_year
        bounds = (np.array([first_year, last_year + 1]) - 1970).astype("datetime64[Y]")
        offsets = (bounds.astype("datetime64[D]") - self.first_day).astype(np.int64)
        lo, hi = np.clip(offsets, 0, self.max_level.size).tolist()
        return DailySeries(self.first_day + lo, self.max_level[lo:hi])


@dataclass(frozen=True)
class ExceedanceSet:
    """Declustered exceedances of ``threshold``, grouped by calendar year.

    Per year (int64 arrays of equal length): ``years``, ``durations`` (valid
    observed days) and event ``counts``. Per event, in year order:
    ``dates`` (datetime64[D]) and ``heights`` (meters, >= ``threshold``);
    the first ``counts[0]`` events fall in ``years[0]``, and so on. Each
    year appears once, in any order. A set that breaks these rules is refused.
    """

    threshold: float
    years: np.ndarray
    durations: np.ndarray
    counts: np.ndarray
    dates: np.ndarray
    heights: np.ndarray

    def __post_init__(self):
        for name, dtype in _EXCEEDANCE_DTYPES.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if not self.years.size == self.durations.size == self.counts.size:
            raise ValueError("years, durations and counts must have equal length")
        out_of_range = (self.durations <= 0) | (self.durations > 366)
        if out_of_range.any():
            raise ValueError(f"duration_days out of range: {self.durations[out_of_range][0]}")
        if self.dates.size != self.heights.size:
            raise ValueError("dates and heights must have equal length")
        if (self.counts < 0).any() or self.counts.sum() != self.heights.size:
            raise ValueError("counts must be nonnegative and sum to the number of events")
        distinct, listed = np.unique(self.years, return_counts=True)
        if (listed > 1).any():
            raise ValueError(f"year {distinct[listed > 1][0]} is listed more than once")
        block_year = np.repeat(self.years, self.counts)
        outside = self.dates.astype("datetime64[Y]").astype(np.int64) + 1970 != block_year
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(f"event dated {self.dates[i]} lies outside its year {block_year[i]}")
        low = ~(self.heights >= self.threshold)  # NaN included
        if low.any():
            raise ValueError(
                f"event height {self.heights[low][0]} lies below the threshold {self.threshold}"
            )

    @property
    def n_events(self) -> int:
        return self.heights.size

    def to_dict(self) -> dict:
        records = [
            {"date": date, "height_m": height}
            for date, height in zip(np.datetime_as_string(self.dates).tolist(), self.heights.tolist())
        ]
        ends = np.cumsum(self.counts).tolist()
        return {
            "threshold_m": self.threshold,
            "years": [
                {"year": year, "duration_days": days, "records": records[end - count:end]}
                for year, days, count, end in zip(
                    self.years.tolist(), self.durations.tolist(), self.counts.tolist(), ends
                )
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExceedanceSet":
        blocks = d["years"]
        records = [r for b in blocks for r in b["records"]]
        return cls(
            float(d["threshold_m"]),
            [b["year"] for b in blocks],
            [b["duration_days"] for b in blocks],
            [len(b["records"]) for b in blocks],
            [r["date"] for r in records],
            [r["height_m"] for r in records],
        )

    def save(self, path) -> None:
        dump_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "ExceedanceSet":
        with parse_errors_named(path):
            return cls.from_dict(load_json(path))


# ---------------------------------------------------------------------------
# CSV ingest
# ---------------------------------------------------------------------------


def read_hourly_csv(path) -> HourlySeries:
    """Read ``timestamp,level_m`` CSV (ISO-8601 UTC, empty field = missing).

    Rows are parsed in chunks of about ``READ_CHUNK_CHARS`` whole lines: one
    numpy conversion per column and chunk, with a row-by-row scan only to name
    the line of a bad row. A plain chunk (``_bulk_columns``) is cut into
    fields as bytes, any other into csv rows. A stamp may end in one ``Z``,
    which is dropped; ``_cast_stamps`` decides which stamps are bad. Each
    chunk is written into two buffers sized by a first pass that counts the
    file's lines, so the record is held once. The series starts at the
    earliest stamp and each level goes to its hour: hours absent from the file
    become NaN, up to ``MAX_ABSENT_HOURS`` of them. A file whose stamps
    increase hour by hour is returned as read. A leading UTF-8 byte-order mark
    is skipped.
    """
    lines_in_file = _count_lines(path)
    with open(path, newline="", encoding="utf-8-sig") as fh, parse_errors_named(path):
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError("empty input")
        if [c.strip().lower() for c in header[:2]] != ["timestamp", "level_m"]:
            raise ValueError(f"expected header 'timestamp,level_m', got {header!r}")
        # every row, the header too, takes at least one line
        stamps = np.empty(lines_in_file - 1, dtype="datetime64[h]")
        values = np.empty(lines_in_file - 1)
        n, lineno, carry = 0, 2, ""
        while text := carry + fh.read(READ_CHUNK_CHARS):
            # cut after the last line end (a last \r may begin a \r\n), but at
            # the end of the file
            if len(text) == len(carry):
                cut = len(text)
            else:
                cut = max(text.rfind("\n"), text.rfind("\r", 0, -1)) + 1
            text, carry = text[:cut], text[cut:]
            if not text:  # a line longer than the chunk
                continue
            rows = columns = lines = None  # the last chunk's, freed
            if (columns := _bulk_columns(text)) is None:
                # a quoted field left open reads on, through the carry
                rest = io.StringIO(carry + fh.readline(), newline="")
                rows, lines = _csv_rows(text, chain(rest, fh))
                carry = rest.read()
            stamp_fields, level_fields = columns or _row_columns(rows)
            try:
                t, v = _cast_stamps(stamp_fields), np.asarray(level_fields, dtype=float)
            except ValueError:
                _raise_bad_row(path, lines or io.StringIO(text, newline=""), lineno)
                raise
            stamps[n:n + t.size] = t
            values[n:n + v.size] = v
            n += t.size
            lineno += t.size if lines is None else len(lines)
    if not n:
        raise ValueError(f"{path}: empty input")
    t, vals = stamps[:n], values[:n]
    if t[-1] - t[0] == np.timedelta64(n - 1, "h") and (t[1:] > t[:-1]).all():
        return HourlySeries(t[0], vals)
    start = t.min()
    hour = (t - start).view(np.int64)
    del stamps, t
    span = int(hour.max()) + 1
    if span - n > MAX_ABSENT_HOURS:
        end = start + np.timedelta64(span - 1, "h")
        raise ValueError(
            f"{path}: {n} rows from {start} to {end} leave more than a century of hours absent"
        )
    seen = np.zeros(span, dtype=bool)
    seen[hour] = True
    if np.count_nonzero(seen) < n:
        raise ValueError(f"{path}: duplicate timestamps in input")
    full = np.full(span, np.nan)
    full[hour] = vals
    return HourlySeries(start, full)


def _count_lines(path) -> int:
    """The number of lines in ``path`` as text mode with ``newline=""`` splits
    them, counting a last line with no end; read in blocks of ``READ_CHUNK_CHARS``
    bytes."""
    lines, last = 0, ord("\n")  # the byte before the file: as after a line end
    with open(path, "rb") as fh:
        while block := fh.read(READ_CHUNK_CHARS):
            b = np.frombuffer(block, dtype=np.uint8)
            lf, cr = b == ord("\n"), b == ord("\r")
            # a line ends at each \n and at each \r that no \n follows, the
            # \n of a \r\n split between two blocks included
            lines += np.count_nonzero(lf) + np.count_nonzero(cr)
            lines -= np.count_nonzero(cr[:-1] & lf[1:])
            lines -= last == ord("\r") and block.startswith(b"\n")
            last = block[-1]
    return lines + (last not in b"\r\n")


def _bulk_columns(text):
    """The stamps of ``text``, whole lines, as a byte array with a trailing
    ``Z`` dropped, and its levels as float64 (``_plain_levels``), made by a
    fixed number of numpy calls. None unless ``text`` is plain: printable ASCII
    with no quote, each line ending in LF or CRLF and holding one comma, a
    stamp and a level that is empty or ``-?digits[.digits]``, both shorter than
    ``PLAIN_FIELD_BYTES``. A space may stand only between two digits, as in
    ``1928-01-01 00:00:00``, and a ``Z`` only at the end of a stamp; a text
    with no space or ``Z`` pays for no check of them.
    """
    if '"' in text or not text.isascii():
        return None
    # a byte before the first stamp, and a line end after a last line with none
    raw = b"\n" + text.encode("ascii") + b"\n" + bytes(PLAIN_FIELD_BYTES + 8)
    b = np.frombuffer(raw, np.uint8, len(text) + (not text.endswith("\n")), 1)
    ends, commas = np.flatnonzero(b == ord("\n")), np.flatnonzero(b == ord(","))
    crlf = b[ends - 1] == ord("\r")
    spaces = np.flatnonzero(b == ord(" ")) if " " in text else ()
    # no byte below "!" but the line ends and the spaces, and each \r one of a \r\n
    if (commas.size != ends.size or np.count_nonzero(b < ord("!"))
            != ends.size + np.count_nonzero(crlf) + len(spaces)):
        return None
    # a space between two digits lies inside a stamp (a level refuses it
    # below), and a Z before a comma ends its stamp (the line's one comma)
    if len(spaces) and not (b[np.r_[spaces - 1, spaces + 1]] - ord("0") < 10).all():
        return None
    if "Z" in text and not (b[np.flatnonzero(b == ord("Z")) + 1] == ord(",")).all():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    # with as many commas as lines, both lengths fit only if each line has one
    stamp_len, level_len = commas - starts, ends - crlf - commas - 1
    if (min(stamp_len.min() - 1, level_len.min()) < 0
            or max(stamp_len.max(), level_len.max()) >= PLAIN_FIELD_BYTES):
        return None
    stamps = _gather(raw, starts, stamp_len + 1)  # each from the line end before it
    levels = _gather(raw, commas + 1, level_len + 1)  # each from its comma
    flat = levels.ravel()
    digit, dot = flat - ord("0") < 10, flat == ord(".")
    # each byte a digit, a comma, a zero, a "." between digits or a "-" between
    # the comma and a digit; at most one "." a level
    ok = digit | (flat == ord(",")) | (flat == 0)
    minus = flat == ord("-")
    ok[1:-1] |= (dot[1:-1] & digit[:-2] | minus[1:-1] & (flat[:-2] == ord(","))) & digit[2:]
    dotted = dot.view(np.uint64).reshape(commas.size, -1).any(axis=1)
    if not ok.all() or np.count_nonzero(dot) > np.count_nonzero(dotted):
        return None
    if "Z" in text:
        stamps[stamps == ord("Z")] = 0  # each ends its stamp: zeroed, it is padding
    return stamps[:, 1:].view(f"S{stamps.shape[1] - 1}")[:, 0], _plain_levels(levels, level_len)


def _plain_levels(fields, length):
    """The float64 values of plain levels gathered with their commas, each
    ``-?digits[.digits]`` of ``length`` bytes or empty (NaN), as ``float``
    reads them. Each value is its integer mantissa, read digit by digit over
    the columns, divided by a power of ten: both are exact below 2**53, so the
    quotient is correctly rounded, as ``float`` is. A chunk with a level of
    more than ``EXACT_DIGITS`` digits takes numpy's cast instead."""
    columns = np.ascontiguousarray(fields.T)
    negative = columns[1] == ord("-")
    # the column of a level's ".", or 0 (its comma) where it has none
    dot = np.argmax(fields == ord("."), axis=1)
    if (length - negative - (dot > 0)).max() > EXACT_DIGITS:
        return _cast_levels(fields, length)
    digits = columns - np.uint8(ord("0"))
    is_digit = digits < 10
    digits *= is_digit
    scale = is_digit * np.uint8(9) + np.uint8(1)  # 10 at a digit, 1 elsewhere
    mantissa = np.zeros(length.size, np.int64)
    for column in range(1, columns.shape[0]):
        mantissa *= scale[column]
        mantissa += digits[column]
    values = mantissa / _POWERS_OF_TEN[np.where(dot > 0, length - dot, 0)]
    np.negative(values, out=values, where=negative)
    values[length == 0] = np.nan
    return values


def _cast_levels(fields, length):
    """numpy's cast of the gathered plain levels, ``nan`` for an empty one."""
    text = fields[:, 1:].copy()
    text[length == 0, :3] = tuple(b"nan")
    return text.view(f"S{text.shape[1]}")[:, 0].astype(float)


def _gather(raw, first, count):
    """Rows ``raw[first:first + count]``, zero-filled to whole 64-bit words
    with one zero at least."""
    width = 8 * (int(count.max()) // 8 + 1)
    # the sliding windows of ``raw`` as items, so the gather copies one per row
    windows = np.ndarray(len(raw) - width + 1, f"V{width}", raw, strides=(1,))
    words = windows[first].view(np.uint64).reshape(first.size, -1)
    words &= np.take(_FIELD_MASKS[:, :width // 8], count, axis=0)
    return words.view(np.uint8)


def _csv_rows(text, rest) -> tuple[list[list[str]], list[str]]:
    """The csv rows of the lines of ``text``, reading on from the lines of
    ``rest`` to the end of a quoted field left open by its last line, and the
    lines they were read from."""
    lines = io.StringIO(text, newline="").readlines()
    rest, read_on = tee(rest)
    reader = csv.reader(chain(lines, rest))
    rows = []
    while reader.line_num < len(lines):
        rows.append(next(reader))
    return rows, [*lines, *islice(read_on, reader.line_num - len(lines))]


def _row_columns(rows):
    """Stripped timestamp and level fields of the non-blank ``rows``, with one
    trailing ``Z`` of a stamp dropped and ``nan`` for an empty level."""
    kept = [row for row in rows if any(c.strip() for c in row)]
    stamps = [row[0].strip().removesuffix("Z") for row in kept]
    return stamps, [(row[1].strip() if len(row) > 1 else "") or "nan" for row in kept]


def _cast_stamps(stamps) -> np.ndarray:
    """The datetime64[h] array of ``stamps``, a list of str or a byte array,
    each stripped and with no trailing ``Z``. Raises ValueError on a stamp
    that is not a UTC date or hour, the one rule of both reader paths.

    A stamp must start with a digit: numpy reads ``now`` and ``today`` as the
    clock, ``""`` and ``NaT`` as NaT, and a leading sign as that of the year.
    The rest is numpy's cast, ``CAST_ITEMS`` stamps at a time, with its
    warnings raised as errors: numpy reads anything after a stamp's time (an
    offset such as ``+0100``, a ``Z``, a space, a letter) as a zone, and only
    warns before it applies it or fails.
    """
    # each stamp's first byte; a stamp that is not ASCII fails here to encode,
    # as numpy's cast would fail to read it
    first = np.asarray(stamps, dtype="S1").view(np.uint8)
    if not (first - ord("0") < 10).all():
        raise ValueError("a timestamp that does not start with a digit")
    t = np.empty(len(stamps), dtype="datetime64[h]")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            for i in range(0, t.size, CAST_ITEMS):
                t[i:i + CAST_ITEMS] = stamps[i:i + CAST_ITEMS]
        except Warning as exc:
            raise ValueError(f"a timestamp with a zone: {exc}") from exc
    return t


def _raise_bad_row(path, lines, first_lineno) -> None:
    """Raise the ``path:line`` error of the first bad csv row of ``lines``, which
    start at file line ``first_lineno``, named by the line the row starts on."""
    reader, lineno = csv.reader(lines), first_lineno
    for row in reader:
        stamps, levels = _row_columns([row])  # both empty for a blank row
        try:
            _cast_stamps(stamps)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad timestamp {row[0]!r}") from exc
        try:
            np.asarray(levels, dtype=float)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad level {levels[0]!r}") from exc
        lineno = first_lineno + reader.line_num


def write_hourly_csv(path, series: HourlySeries) -> None:
    """Write ``series`` as ``timestamp,level_m`` CSV in the dialect of
    ``utils.write_csv``: each stamp as ``str`` writes a datetime64[h], each
    finite level as ``repr`` writes it, any other level empty, and ``\\r\\n``
    after each row, making the file's directory. Each chunk of
    ``WRITE_CHUNK_ROWS`` rows is built as one byte buffer (``_hourly_bytes``)."""
    levels = np.asarray(series.levels, dtype=float)
    with open(writable(path), "wb") as fh:
        fh.write(b"timestamp,level_m\r\n")
        for i in range(0, levels.size, WRITE_CHUNK_ROWS):
            fh.write(_hourly_bytes(series.start + i, levels[i:i + WRITE_CHUNK_ROWS]))


def _hourly_bytes(start, levels) -> np.ndarray:
    """The rows of one chunk from hour ``start``, as bytes: one zero-padded row
    of fixed width per level, then one boolean index drops the padding. A stamp
    is its day, formatted once per day, and its hour from ``_HOUR_TEXT``."""
    day, hour = np.divmod(start.astype(np.int64) + np.arange(levels.size), HOURS_PER_DAY)
    days = np.datetime_as_string(np.arange(day[0], day[-1] + 1).astype("datetime64[D]"))
    day_text = np.array(days.tolist(), "S").view(np.uint8).reshape(days.size, -1)
    level_text = _level_bytes(levels)
    width = day_text.shape[1]
    rows = np.zeros((levels.size, width + 4 + level_text.shape[1] + 2), np.uint8)
    rows[:, :width] = day_text[day - day[0]]
    rows[:, width:width + 3] = _HOUR_TEXT[hour]
    rows[:, width + 3] = ord(",")
    rows[:, width + 4:-2] = level_text
    rows[:, -2:] = tuple(b"\r\n")
    return rows[rows != 0]


def _level_bytes(levels) -> np.ndarray:
    """Each level's text as ``repr`` writes it, empty where it is not finite,
    as zero-padded rows of bytes.

    A level that is exactly its millimetres ``m`` (``m / 1000 == x``, below
    ``MILLIMETRE_BOUND``) is written from the digits of ``m``: its sign, its
    whole metres, a ``.`` and one to three digits with no trailing zero. That
    is ``repr``'s text, the shortest that reads back as ``x``: below 1e9
    doubles lie less than 1.2e-7 apart, so no shorter decimal reads back as
    the same double. Any other finite level takes ``repr`` itself.
    """
    with np.errstate(invalid="ignore"):
        milli = np.rint(levels * 1000)
        exact = (milli / 1000 == levels) & (np.abs(milli) < MILLIMETRE_BOUND)
    milli = np.abs(milli, where=exact, out=np.zeros_like(milli)).astype(np.int64)
    whole, frac = np.divmod(milli, 1000)
    others = np.flatnonzero(~exact & np.isfinite(levels))
    texts = np.array(list(map(repr, levels[others].tolist())), dtype="S")
    places = len(str(whole.max()))  # of the whole metres, the units always written
    text = np.zeros((levels.size, max(places + 5, texts.itemsize)), np.uint8)
    text[:, 0] = np.where(exact & np.signbit(levels), ord("-"), 0)
    for k in range(places - 1):
        place = 10 ** (places - 1 - k)
        text[:, 1 + k] = np.where(whole >= place, whole // place % 10 + ord("0"), 0)
    text[:, places] = whole % 10 + ord("0")
    text[:, places + 1] = ord(".")
    # the first fraction digit always, the others up to the last nonzero one
    tenths, rest = np.divmod(frac, 100)
    hundredths, thousandths = np.divmod(rest, 10)
    text[:, places + 2] = tenths + ord("0")
    text[:, places + 3] = np.where(rest != 0, hundredths + ord("0"), 0)
    text[:, places + 4] = np.where(thousandths != 0, thousandths + ord("0"), 0)
    text[~exact] = 0
    if others.size:
        text[others, :texts.itemsize] = texts.view(np.uint8).reshape(others.size, -1)
    return text


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def detrend_moving_mean(series: HourlySeries, window_days: float) -> HourlySeries:
    """Subtract a centered moving-window mean from each hour.

    The window is [t - w/2, t + w/2], shrinking where it overhangs the record
    edges. Hours whose window holds fewer than ``MIN_VALID_FRACTION`` of its
    hours as valid samples are marked missing, as are hours missing in the input.

    The output hours are computed ``BLOCK_HOURS`` at a time, so the output is
    the one array as long as the record. A window's sum and valid count are
    those of the hours before its end less those of the hours before its
    start, both slices of one array of running sums (``_running_sums``): it
    holds those from the block's first window start to its last window end,
    and each block appends the next and drops those no later window needs.
    """
    if not (np.isfinite(window_days) and window_days >= 1):
        raise ValueError(f"window_days must be a finite number >= 1, got {window_days!r}")
    levels = series.levels
    n = levels.size
    half = int(round(window_days * HOURS_PER_DAY / 2))
    out = np.empty(n)
    # hour i's window is the hours [max(i - half, 0), min(i + half + 1, n));
    # sums[j] is the running sum over the hours before hour first + j, and a
    # block needs those before its windows' starts and ends
    sums, first = np.empty(0, dtype=complex), 1
    with np.errstate(invalid="ignore", divide="ignore"):
        for a in range(0, n, BLOCK_HOURS):
            b = min(a + BLOCK_HOURS, n)
            done, keep = first + sums.size - 1, max(a - half, 1)
            seed = sums[-1] if done else None
            # the next levels are appended as they are and summed in place, so
            # the old array and the new one are all the block holds at once
            piece = levels[done:min(b + half, n)]
            sums, first = np.concatenate((sums[keep - first:], piece)), keep
            _running_sums(sums[sums.size - piece.size:], seed)
            inside = min(max(n - half - a, 0), b - a)  # hours whose window ends before the record does
            end = a + half + 1 - first
            window = np.empty(b - a, dtype=complex)
            window[:inside] = sums[end:end + inside]
            window[inside:] = sums[-1]
            # the hours whose window starts at the first hour subtract nothing,
            # as x - 0.0 is x, bit for bit
            clipped = min(max(half + 1 - a, 0), b - a)
            start = a + clipped - half - first
            window[clipped:] -= sums[start:start + b - a - clipped]
            total, n_valid = window.real, window.imag
            length = 2 * half + 1  # of a window inside the record
            if clipped or inside < b - a:
                hour = np.arange(a, b)
                length = np.minimum(hour + (half + 1), n) - np.maximum(hour - half, 0)
            # valid hours short of MIN_VALID_FRACTION of the window
            short = np.less(n_valid, np.multiply(length, MIN_VALID_FRACTION))
            block = np.divide(total, n_valid, out=out[a:b])  # the window mean
            np.subtract(levels[a:b], block, out=block)
            block[~np.isfinite(levels[a:b])] = np.nan
            block[short] = np.nan
    return HourlySeries(series.start, out)


def _running_sums(levels: np.ndarray, seed) -> None:
    """Turn ``levels``, a complex array of levels as its real parts, into
    their running sums in place, each as one complex number: its real part
    sums the valid levels, and its imaginary part counts the valid hours.
    Complex numbers add part by part, each as float64 adds, and a count below
    2**53 is exact, so one ``np.cumsum`` makes both.

    ``seed`` is the sum before the first level, or None for a piece that starts
    at hour 0, whose first sum is its first level. So each sum is the one that
    a single ``np.cumsum`` over the whole record makes, bit for bit: a missing
    hour adds 0.0, which turns a sum of -0.0 into 0.0 there too, but nothing
    is added before hour 0.
    """
    valid = np.isfinite(levels.real)
    np.copyto(levels.real, 0.0, where=~valid)
    levels.imag = valid
    if seed is not None:
        levels[:1] += seed
    np.cumsum(levels, out=levels)


def daily_maxima(series: HourlySeries, min_valid_hours: int) -> DailySeries:
    """Reduce an hourly series to per-UTC-day maxima.

    Days with fewer than ``min_valid_hours`` valid hours are NaN.
    The days are reduced ``BLOCK_HOURS // HOURS_PER_DAY`` at a time.
    """
    if not 1 <= min_valid_hours <= 24:
        raise ValueError("min_valid_hours must be in [1, 24]")
    levels = series.levels
    # each day's hours are one run: from the first hour, then from each
    # midnight after it, every 24 hours
    first_midnight = -series.start.astype(np.int64) % HOURS_PER_DAY or HOURS_PER_DAY
    start = np.r_[0, np.arange(first_midnight, levels.size, HOURS_PER_DAY)]
    counts = np.empty(start.size, dtype=np.uint8)  # a day has at most 24 hours
    maxima = np.empty(start.size)
    per_block = BLOCK_HOURS // HOURS_PER_DAY
    for d in range(0, start.size, per_block):
        e = min(d + per_block, start.size)
        hours = levels[start[d]:start[e] if e < start.size else levels.size]
        runs = start[d:e] - start[d]
        valid = np.isfinite(hours)
        np.add.reduceat(valid.view(np.uint8), runs, out=counts[d:e])
        filled = hours.copy()
        np.copyto(filled, -np.inf, where=~valid)
        np.maximum.reduceat(filled, runs, out=maxima[d:e])
    # a day with a valid hour has a finite maximum
    maxima[counts < min_valid_hours] = np.nan
    return DailySeries(series.start.astype("datetime64[D]"), maxima)


def compute_threshold(daily: DailySeries, quantile: float) -> float:
    """Empirical quantile of the daily maxima that are not NaN (the GPD
    threshold), interpolated linearly between order statistics."""
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must lie in (0, 1)")
    vals = daily.max_level[~np.isnan(daily.max_level)]
    if vals.size < 100:
        raise ValueError("insufficient data")
    return float(np.quantile(vals, quantile))


def decluster(daily: DailySeries, threshold: float, separation_days: int) -> ExceedanceSet:
    """Runs-decluster daily exceedances of ``threshold``.

    Consecutive exceedance days closer than ``separation_days`` chain into
    one cluster; only the cluster maximum survives (earliest day on ties).
    Retained events are therefore pairwise separated by at least
    ``separation_days``, across year boundaries included. Each calendar year
    with a usable day (not NaN) records its number of usable days as its
    duration, so gappy years weight the Poisson term proportionally.
    """
    if separation_days < 1:
        raise ValueError("separation_days must be >= 1")

    exceed = daily.max_level >= threshold  # False on NaN
    exc_days = np.flatnonzero(exceed)
    exc_heights = daily.max_level[exceed]

    kept = []
    i = 0
    while i < exc_days.size:
        j = i
        while j + 1 < exc_days.size and exc_days[j + 1] - exc_days[j] < separation_days:
            j += 1
        kept.append(i + int(np.argmax(exc_heights[i : j + 1])))  # argmax takes earliest tie
        i = j + 1
    kept = np.array(kept, dtype=np.intp)

    valid_dates = daily.first_day + np.flatnonzero(~np.isnan(daily.max_level))
    valid_years = valid_dates.astype("datetime64[Y]").astype(np.int64) + 1970
    years, durations = np.unique(valid_years, return_counts=True)
    # events are in date order, so each year's events are one run
    event_dates = daily.first_day + exc_days[kept]
    event_years = event_dates.astype("datetime64[Y]").astype(np.int64) + 1970
    counts = np.searchsorted(event_years, years, "right") - np.searchsorted(event_years, years)
    return ExceedanceSet(float(threshold), years, durations, counts, event_dates, exc_heights[kept])


def preprocess_station(
    series: HourlySeries,
    first_year: int,
    last_year: int,
    window_days: float,
    min_valid_hours: int,
    threshold_quantile: float,
    separation_days: int,
) -> ExceedanceSet:
    """Full chain: detrend, daily maxima, trim to window, threshold, decluster."""
    detrended = detrend_moving_mean(series, window_days)
    daily = daily_maxima(detrended, min_valid_hours).restrict_years(first_year, last_year)
    threshold = compute_threshold(daily, threshold_quantile)
    return decluster(daily, threshold, separation_days)
