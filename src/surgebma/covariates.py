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

log = logging.getLogger(__name__)

NORMALIZATION_TOL = 1e-12


class CovariateKind(str, enum.Enum):
    TIME = "time"
    TEMPERATURE = "temperature"
    SEALEVEL = "sealevel"
    NAO = "nao"


@dataclass(frozen=True)
class CovariateSeries:
    """Normalized annual covariate values over contiguous years.

    ``historical_range`` is the (first, last) year span whose raw minimum and
    maximum define the normalization; within it the stored values attain 0
    and 1 exactly (to within 1e-12).
    """

    kind: CovariateKind
    years: np.ndarray  # int64, contiguous ascending
    values: np.ndarray  # float64, dimensionless
    historical_range: tuple[int, int]

    def __post_init__(self):
        if self.years.size != self.values.size or self.years.size == 0:
            raise ValueError("years and values must be equal-length and nonempty")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("covariate values must be finite")
        if np.any(np.diff(self.years) != 1):
            raise ValueError("years must be contiguous and increasing")
        lo, hi = self.historical_range
        mask = (self.years >= lo) & (self.years <= hi)
        if not np.any(mask):
            raise ValueError("historical_range lies outside the series")
        hist = self.values[mask]
        if abs(hist.min()) > NORMALIZATION_TOL or abs(hist.max() - 1.0) > NORMALIZATION_TOL:
            raise ValueError("values are not min-max normalized over historical_range")

    def values_for_years(self, years: np.ndarray) -> np.ndarray:
        """Exact stored values of ``years``; parameters are constant within a year."""
        years = np.asarray(years, dtype=np.int64)
        first, last = int(self.years[0]), int(self.years[-1])
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
    series: Mapping[int, float], kind: CovariateKind, historical_range: tuple[int, int]
) -> CovariateSeries:
    """Affine map sending the historical min/max to 0/1, applied to all years."""
    years = np.array(sorted(series), dtype=np.int64)
    values = np.array([series[int(y)] for y in years], dtype=float)
    lo, hi = historical_range
    mask = (years >= lo) & (years <= hi)
    if not np.any(mask):
        raise ValueError("historical_range lies outside the series")
    vmin, vmax = values[mask].min(), values[mask].max()
    if vmax <= vmin:
        raise ValueError("degenerate covariate: constant over historical range")
    return CovariateSeries(kind, years, (values - vmin) / (vmax - vmin), (lo, hi))


def time_covariate(
    first_year: int, last_year: int, historical_range: tuple[int, int]
) -> CovariateSeries:
    """The identity covariate: calendar year, normalized on the historical window."""
    years = {y: float(y) for y in range(first_year, last_year + 1)}
    return normalize_minmax(years, CovariateKind.TIME, historical_range)


# ---------------------------------------------------------------------------
# file ingest
# ---------------------------------------------------------------------------


def _read_rows(path, parse: Callable[[list[str]], tuple]) -> list[tuple]:
    """``parse`` of each data row after the header; blank rows are skipped."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ValueError("empty input")
        for lineno, row in enumerate(reader, start=2):
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
