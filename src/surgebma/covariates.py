"""Annual covariate series that modulate the PP/GPD parameters.

Four candidate covariates are supported: calendar time, global mean surface
temperature, global mean sea level, and the winter-mean (DJF) North Atlantic
Oscillation index. Each is built by splicing an observational record onto a
model projection, then min-max normalized so the historical calibration
window maps onto [0, 1]; projection-era values may fall outside that range.
"""

from __future__ import annotations

import csv
import enum
import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .utils import parse_errors_named

log = logging.getLogger(__name__)


class CovariateKind(str, enum.Enum):
    TIME = "time"
    TEMPERATURE = "temperature"
    SEALEVEL = "sealevel"
    NAO = "nao"


@dataclass(frozen=True)
class CovariateSeries:
    """Normalized annual covariate values, one per year: ``values[k]`` is the
    value of year ``first_year + k``. ``normalize_minmax`` builds them."""

    first_year: int
    values: np.ndarray  # float64, dimensionless

    def __post_init__(self):
        if self.values.size == 0:
            raise ValueError("covariate values must be nonempty")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("covariate values must be finite")

    def values_for_years(self, years: np.ndarray) -> np.ndarray:
        """Exact stored values of ``years``; parameters are constant within a year."""
        years = np.asarray(years, dtype=np.int64)
        first, last = self.first_year, self.first_year + self.values.size - 1
        if years.size and (years.min() < first or years.max() > last):
            raise ValueError(
                f"years {years.min()}-{years.max()} not covered by "
                f"covariate span {first}-{last}"
            )
        return self.values[years - first]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def winter_mean_nao(monthly: Iterable[tuple[int, int, float]]) -> dict[int, float]:
    """Winter (DJF) mean: Dec of the previous year with Jan and Feb of year y.

    Only winters inside the record can be complete: the first year has no
    December before it and the last no January after it. An interior year
    missing any of its three member months is omitted with a warning.
    """
    table: dict[tuple[int, int], float] = {}
    for year, month, value in monthly:
        table[(int(year), int(month))] = float(value)
    if not table:
        raise ValueError("empty input")

    years = sorted({y for (y, _m) in table})
    out: dict[int, float] = {}
    skipped = []
    for y in range(years[0] + 1, years[-1] + 1):
        members = [(y - 1, 12), (y, 1), (y, 2)]
        if all(m in table for m in members):
            out[y] = float(np.mean([table[m] for m in members]))
        elif any(m in table for m in members):
            skipped.append(y)
    if skipped:
        log.warning("winter_mean_nao: omitted years with missing months: %s", skipped)
    return out


def splice(
    historical: Mapping[int, float], projection: Mapping[int, float], switch_year: int
) -> dict[int, float]:
    """Concatenate records; historical values win through ``switch_year``."""
    hist_years = sorted(historical)
    if not hist_years or hist_years[-1] < switch_year:
        raise ValueError(f"historical record does not reach switch year {switch_year}")
    out = {y: float(historical[y]) for y in hist_years if y <= switch_year}
    for y in sorted(projection):
        if y > switch_year:
            out[y] = float(projection[y])
    years = sorted(out)
    gaps = [y for a, b in zip(years, years[1:]) for y in range(a + 1, b)]
    if gaps:
        raise ValueError(f"coverage gap at years {gaps[:5]} after splicing")
    return dict(sorted(out.items()))


def normalize_minmax(
    values: np.ndarray | list[float], first_year: int, historical_range: tuple[int, int]
) -> CovariateSeries:
    """Affine map sending the min/max over the (first, last) years of
    ``historical_range`` to 0/1, applied to one value per year from ``first_year``."""
    values = np.asarray(values, dtype=float)
    lo, hi = historical_range
    hist = values[max(lo - first_year, 0):max(hi - first_year + 1, 0)]
    if not hist.size:
        raise ValueError("historical_range lies outside the series")
    vmin, vmax = hist.min(), hist.max()
    if vmax <= vmin:
        raise ValueError("degenerate covariate: constant over historical range")
    return CovariateSeries(first_year, (values - vmin) / (vmax - vmin))


def time_covariate(
    first_year: int, last_year: int, historical_range: tuple[int, int]
) -> CovariateSeries:
    """The identity covariate: calendar year, normalized on the historical window."""
    years = np.arange(first_year, last_year + 1, dtype=float)
    return normalize_minmax(years, first_year, historical_range)


# ---------------------------------------------------------------------------
# file ingest
# ---------------------------------------------------------------------------


def _read_rows(path, parse: Callable[[list[str]], tuple]) -> list[tuple]:
    """``parse`` of each data row after the header; blank rows are skipped."""
    out = []
    with open(path, newline="") as fh, parse_errors_named(path):
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ValueError("empty input")
        read = reader.line_num  # the lines before the row
        for row in reader:
            lineno, read = read + 1, reader.line_num  # the line the row starts on
            if not row or all(not c.strip() for c in row):
                continue
            try:
                out.append(parse(row))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: bad row {row!r}") from exc
        if not out:
            raise ValueError("empty input")
    return out


def read_annual_csv(path) -> dict[int, float]:
    """Read ``year,value`` rows; a repeated year keeps its last value."""
    return dict(_read_rows(path, lambda row: (int(row[0]), float(row[1]))))


def read_monthly_csv(path) -> list[tuple[int, int, float]]:
    """Read ``year,month,value`` rows (monthly NAO input)."""
    return _read_rows(path, lambda row: (int(row[0]), int(row[1]), float(row[2])))
