"""Forward simulation from known PP/GPD parameters.

Used as ground truth for identifiability experiments, as the sampler of
the Monte-Carlo return-level oracle of the tests, and to generate the
synthetic station fixtures that let the full pipeline run without access to
real tide-gauge archives. Event magnitudes come from the exact inverse-CDF
generalized Pareto sampler; counts are Poisson.
"""

from __future__ import annotations

import calendar
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .covariates import CovariateKind, CovariateSeries, normalize_minmax, time_covariate
from .models import (
    ACTIVE_PARAMS,
    XI_EPS,
    ModelStructure,
    NonstatLevel,
    all_structures,
    covariate_values,
    effective_params,
)
from .preprocess import ExceedanceSet, HourlySeries, write_hourly_csv
from .priors import mle_fit
from .utils import write_csv

EVENT_SPACING_DAYS = 3  # assigned event dates keep at least this separation

COVARIATE_NOISE_SEED = 7  # synthetic_covariates' noise
PACK_FIRST_YEAR, PACK_LAST_YEAR = 1924, 2013  # make_mle_fixture_pack's simulated span
# write_hourly_fixture's daily peaks: the threshold, the daily probability of
# exceeding it, the GPD excess above it and the half-normal spread below it
FIXTURE_THRESHOLD, FIXTURE_EXCEEDANCE_PROB = 1.0, 0.01
FIXTURE_SIG, FIXTURE_XI, FIXTURE_BODY_SPREAD = 0.12, 0.1, 0.25


@dataclass(frozen=True)
class SimulationSpec:
    """A known truth to simulate from: ``row`` holds the active parameters of
    ``structure``, in ``ACTIVE_PARAMS`` order."""

    row: np.ndarray
    structure: ModelStructure
    cov: CovariateSeries | None
    first_year: int
    last_year: int
    threshold: float
    seed: int

    def __post_init__(self):
        n_active = len(self.structure.active_params)
        if np.shape(self.row) != (n_active,):
            raise ValueError(
                f"{self.structure.id} takes a row of {n_active} active parameters, "
                f"got shape {np.shape(self.row)}"
            )
        if self.last_year < self.first_year:
            raise ValueError("empty year range")
        lam, sig, _ = self.yearly_params()
        bad = (lam <= 0) | (sig <= 0)
        if np.any(bad):
            year = self.first_year + int(np.argmax(bad))
            raise ValueError(f"nonpositive rate or scale in year {year}")

    def yearly_params(self):
        """Effective (lam, sig, xi) arrays, one entry per simulated year."""
        years = np.arange(self.first_year, self.last_year + 1)
        phi = covariate_values(self.structure, self.cov, years)
        return effective_params(self.row, self.structure.level, phi)


def gpd_sample(sig: float, xi: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Exact inverse-CDF draws of GPD excesses above zero."""
    u = rng.uniform(size=size)
    if abs(xi) < XI_EPS:
        return -sig * np.log1p(-u)
    return sig / xi * np.expm1(-xi * np.log1p(-u))


def simulate_year(
    lam: float, sig: float, xi: float, mu: float, dt: float, rng: np.random.Generator
) -> np.ndarray:
    """Heights of one year's exceedances: Poisson count, GPD magnitudes."""
    if lam <= 0 or sig <= 0:
        raise ValueError("lam and sig must be positive")
    n = int(rng.poisson(lam * dt))
    return mu + gpd_sample(sig, xi, n, rng)


def simulate_record(spec: SimulationSpec) -> ExceedanceSet:
    """Simulate a full multi-year exceedance record.

    Event dates within a year are placed on a fixed 3-day grid (so the
    output would survive declustering unchanged); the dates carry no other
    information. Deterministic given the spec's seed.
    """
    rng = np.random.default_rng(spec.seed)
    years = np.arange(spec.first_year, spec.last_year + 1)
    durations, dates, heights = [], [], []
    for year, lam, sig, xi in zip(years.tolist(), *spec.yearly_params()):
        dt = 366 if calendar.isleap(year) else 365
        h = simulate_year(float(lam), float(sig), float(xi), spec.threshold, dt, rng)
        max_events = (dt - EVENT_SPACING_DAYS) // EVENT_SPACING_DAYS
        if h.size > max_events:
            raise ValueError(f"year {year}: {h.size} events exceed the date grid")
        offsets = EVENT_SPACING_DAYS * np.arange(1, h.size + 1) - 1
        dates.append(np.datetime64(f"{year}-01-01", "D") + offsets.astype("timedelta64[D]"))
        durations.append(dt)
        heights.append(h)
    counts = [h.size for h in heights]
    return ExceedanceSet(
        spec.threshold, years, durations, counts, np.concatenate(dates), np.concatenate(heights)
    )


# ---------------------------------------------------------------------------
# fixtures: synthetic stations and hourly tide-gauge records
# ---------------------------------------------------------------------------


def synthetic_covariates(
    first_year: int, last_year: int, historical_range: tuple[int, int]
) -> dict[CovariateKind, CovariateSeries]:
    """Deterministic stand-ins for the four covariates, normalized on the window."""
    years = np.arange(first_year, last_year + 1)
    x = (years - first_year) / max(last_year - first_year, 1)
    rng = np.random.default_rng(COVARIATE_NOISE_SEED)
    smooth_noise = np.convolve(rng.standard_normal(years.size), np.ones(9) / 9, mode="same")

    temp = x**2 + 0.05 * smooth_noise  # accelerating warming-like ramp
    sea = 0.6 * x + 0.4 * x**3 + 0.04 * np.roll(smooth_noise, 3)
    nao = np.sin(2 * np.pi * years / 7.3) + 0.5 * smooth_noise

    out = {CovariateKind.TIME: time_covariate(first_year, last_year, historical_range)}
    for kind, vals in (
        (CovariateKind.TEMPERATURE, temp),
        (CovariateKind.SEALEVEL, sea),
        (CovariateKind.NAO, nao),
    ):
        out[kind] = normalize_minmax(vals, first_year, historical_range)
    return out


def station_parameter_draws(n_stations: int, rng: np.random.Generator) -> np.ndarray:
    """Plausible per-station truths spanning the surge-parameter ranges.

    Returns an (n_stations, 6) stack of NS3 active rows. The scale is drawn
    as a direct scale and stored as its log, the NS3 intercept. Slope spreads
    are deliberately generous relative to what one station's record can pin
    down, so priors elicited from these stations stay weakly informative
    about nonstationarity.
    """
    rows = np.empty((n_stations, len(ACTIVE_PARAMS[NonstatLevel.NS3])))
    for row in rows:
        lam0 = rng.uniform(0.004, 0.014)
        # relative rate change over the covariate span; keep lam(phi) > 0
        rate_slope = float(np.clip(rng.normal(0.0, 1.8), -0.9, 4.0))
        row[:] = (
            lam0,
            lam0 * rate_slope,
            math.log(rng.uniform(0.06, 0.22)),
            rng.normal(0.0, 0.8),
            rng.normal(0.08, 0.12),
            np.clip(rng.normal(0.0, 0.4), -0.7, 0.7),
        )
    return rows


def make_mle_fixture_pack(seed: int, n_stations: int) -> dict[str, np.ndarray]:
    """Per-structure MLE tables from simulated multi-decade stations.

    Stations are simulated over ``PACK_FIRST_YEAR``-``PACK_LAST_YEAR`` from NS3
    truths (so slope spreads are genuine) and each of the 13 candidate
    structures is fit to every station, mirroring how priors would be
    elicited from a long-record station archive.
    """
    first_year, last_year = PACK_FIRST_YEAR, PACK_LAST_YEAR
    rng = np.random.default_rng(seed)
    covs = synthetic_covariates(first_year, last_year, (first_year, last_year))
    truths = station_parameter_draws(n_stations, rng)

    records = []
    for i, row in enumerate(truths):
        # station-specific covariate assignment varies which series drove it
        kind = list(CovariateKind)[i % 4]
        structure = ModelStructure(NonstatLevel.NS3, kind)
        spec = SimulationSpec(
            row, structure, covs[kind], first_year, last_year, 1.0, int(rng.integers(2**31))
        )
        records.append(simulate_record(spec))

    table: dict[str, list[np.ndarray]] = {s.id: [] for s in all_structures()}
    fit_rng = np.random.default_rng(seed + 1)
    for record in records:
        for structure in all_structures():
            table[structure.id].append(
                mle_fit(structure, record, covs.get(structure.covariate), rng=fit_rng)
            )
    return {sid: np.vstack(rows) for sid, rows in table.items()}


def write_hourly_fixture(path, first_year: int, last_year: int, seed: int) -> float:
    """Write a synthetic hourly tide-gauge CSV with a controlled tail.

    Daily peak levels fill a continuous body below ``FIXTURE_THRESHOLD``; on
    exceedance days (probability ``FIXTURE_EXCEEDANCE_PROB``) the peak is the
    threshold plus a GPD(``FIXTURE_SIG``, ``FIXTURE_XI``) excess. The tidal
    hump amplitude is balanced so the hourly record has mean approximately
    zero, hence detrending barely moves the peaks and the daily-maxima
    quantile at 1 - ``FIXTURE_EXCEEDANCE_PROB`` lands at the threshold up to
    sampling noise. Returns ``FIXTURE_THRESHOLD``.
    """
    rng = np.random.default_rng(seed)
    start = np.datetime64(f"{first_year}-01-01T00", "h")
    end = np.datetime64(f"{last_year + 1}-01-01T00", "h")
    n_hours = int((end - start).astype(np.int64))
    n_days = n_hours // 24

    mu_target, p = FIXTURE_THRESHOLD, FIXTURE_EXCEEDANCE_PROB
    sig, xi, body_spread = FIXTURE_SIG, FIXTURE_XI, FIXTURE_BODY_SPREAD
    is_storm = rng.uniform(size=n_days) < p
    peaks = mu_target - np.abs(rng.normal(0.0, body_spread, size=n_days))
    peaks[is_storm] = mu_target + gpd_sample(sig, xi, int(is_storm.sum()), rng)

    # hourly shape: a tidal hump peaking mid-day at the daily peak, with its
    # amplitude chosen so the full record averages to ~zero
    mean_peak = (1 - p) * (mu_target - body_spread * math.sqrt(2 / math.pi)) + p * (
        mu_target + sig / (1 - xi)
    )
    hour = np.arange(24)
    dip = (mean_peak / 6.0) * np.abs(hour - 12.0)  # mean(|h-12|) over a day is 6
    levels = np.repeat(peaks, 24) - np.tile(dip, n_days)
    levels = np.concatenate([levels, np.full(n_hours - levels.size, np.nan)])
    levels += 0.002 * rng.standard_normal(n_hours)

    # sprinkle missing hours so gap handling is exercised
    gaps = rng.uniform(size=n_hours) < 0.01
    levels[gaps] = np.nan

    # to the millimetre, as a gauge reports
    write_hourly_csv(path, HourlySeries(start, np.round(levels, 3)))
    return mu_target


def write_covariate_fixtures(
    outdir,
    first_year: int,
    last_year: int,
    projection_year: int,
    seed: int,
) -> dict[str, str]:
    """Write annual/monthly covariate CSVs spanning history and projection.

    Returns the file paths keyed by config option name.
    """
    outdir = Path(outdir)
    rng = np.random.default_rng(seed)
    years_all = np.arange(first_year, projection_year + 1)
    x = (years_all - first_year) / max(last_year - first_year, 1)
    smooth = np.convolve(rng.standard_normal(years_all.size), np.ones(9) / 9, mode="same")

    raw = {
        "temperature": 0.8 * x**2 + 0.05 * smooth + 14.0,
        "sealevel": 200.0 * (0.6 * x + 0.4 * x**3) + 4.0 * np.roll(smooth, 3),
    }
    paths: dict[str, str] = {}
    for name, series in raw.items():
        hist = outdir / f"{name}_hist.csv"
        proj = outdir / f"{name}_proj.csv"
        for p, mask in ((hist, years_all <= last_year), (proj, years_all > last_year)):
            write_csv(p, ["year", "value"],
                      ([int(y), repr(float(v))] for y, v in zip(years_all[mask], series[mask])))
        paths[f"{name}_hist"] = str(hist)
        paths[f"{name}_proj"] = str(proj)

    # monthly NAO-like oscillation; December of first_year-1 included so the
    # first winter mean is defined
    nao_hist = outdir / "nao_hist.csv"
    nao_proj = outdir / "nao_proj.csv"

    def nao_row(y: int, m: int) -> list:
        v = math.sin(2 * math.pi * (y + m / 12.0) / 7.3) + 0.4 * rng.standard_normal()
        return [y, m, repr(float(v))]

    for p, (y0, y1) in ((nao_hist, (first_year - 1, last_year)), (nao_proj, (last_year, projection_year + 1))):
        write_csv(p, ["year", "month", "value"],
                  (nao_row(y, m) for y in range(y0, y1 + 1) for m in range(1, 13)))
    paths["nao_hist"] = str(nao_hist)
    paths["nao_proj"] = str(nao_proj)
    return paths
