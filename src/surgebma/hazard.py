"""Return-level projection and the model-averaged hazard mixture.

A level z has return period T when the expected number of its exceedances
per year equals 1/T. Under the PP/GPD model with yearly event rate
lam_yr = lam * 365.25 this inverts in closed form (Coles 2001, ch. 4):

    z = mu + (sig/xi) * ((T * lam_yr)^xi - 1)      for xi != 0
    z = mu + sig * ln(T * lam_yr)                  in the exponential limit

The Bayesian-model-averaged hazard is realized as a mixture distribution:
structures are drawn with their BMA weights, then return-level samples are
drawn from the chosen structure's posterior ensemble. The mean of that
mixture is the weight-averaged return level.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .covariates import CovariateSeries
from .evidence import BmaWeights
from .models import DAYS_PER_YEAR, XI_EPS, covariate_values, effective_params
from .sampler import PosteriorEnsemble
from .utils import (
    GateError, dump_json, empirical_quantile, format_float, parse_errors_named, write_csv,
)

# floats: a period's text form names its mixture seed and its curve.json entry
DEFAULT_RETURN_PERIODS = (2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
DEFAULT_QUANTILE_LEVELS = (0.025, 0.05, 0.25, 0.5, 0.75, 0.95, 0.975)
REPORTED_QUANTILE_LEVELS = (0.05, 0.5, 0.95)  # the median and the 90% credible range


@dataclass(frozen=True)
class ReturnLevelEnsemble:
    """Return-level samples (meters) for one target year and period."""

    year: int
    period_years: float
    samples: np.ndarray
    n_clamped: int  # draws whose extrapolated rate is not positive, each also flagged
    n_flagged: int  # draws excluded: rate too low for the threshold regime

    def __post_init__(self):
        if self.samples.size == 0:
            raise ValueError("empty return-level ensemble")


@dataclass(frozen=True)
class HazardReport:
    """Quantile table over return periods; rows ordered as ``periods``."""

    year: int
    periods: tuple[float, ...]
    levels: tuple[float, ...]
    table: np.ndarray  # (n_periods, n_levels)

    @property
    def medians(self) -> np.ndarray:
        return self.table[:, self.levels.index(0.5)]

    def credible_range_90(self) -> np.ndarray:
        lo, hi = self.levels.index(0.05), self.levels.index(0.95)
        return self.table[:, [lo, hi]]


# ---------------------------------------------------------------------------
# ensemble return levels
# ---------------------------------------------------------------------------


def _invert_rate(lam_yr, sig, xi, mu: float, period: float):
    """Closed-form return levels of equal-shaped arrays; callers guarantee T*lam_yr > 1."""
    loggrowth = np.log(period * lam_yr)
    small = np.abs(xi) < XI_EPS
    xi_safe = np.where(small, 1.0, xi)
    z = np.where(
        small,
        mu + sig * loggrowth,
        mu + sig / xi_safe * np.expm1(xi_safe * loggrowth),
    )
    return z


def ensemble_return_levels(
    ensemble: PosteriorEnsemble,
    cov: CovariateSeries | None,
    year: int,
    mu: float,
    period: float,
) -> ReturnLevelEnsemble:
    """Per-draw return levels for one structure at a target year.

    Draws below the one-event-per-T-years regime, among them every draw whose
    extrapolated event rate is not positive (counted in ``n_clamped``), are
    flagged and excluded from the sample set. A period that is not positive is
    an input error, not a flagged draw.
    """
    if period <= 0:
        raise ValueError("return period must be positive")
    structure = ensemble.structure
    phi = covariate_values(structure, cov, year)
    lam, sig, xi = effective_params(ensemble.draws, structure.level, phi)

    n_clamped = int(np.sum(lam <= 0))
    lam_yr = lam * DAYS_PER_YEAR
    ok = (period * lam_yr > 1.0) & (sig > 0)
    n_flagged = int(np.sum(~ok))
    if not np.any(ok):
        raise GateError(f"all draws flagged for {structure.id} at T={period}")
    samples = _invert_rate(lam_yr[ok], sig[ok], xi[ok], mu, period)
    return ReturnLevelEnsemble(year, period, samples, n_clamped, n_flagged)


# ---------------------------------------------------------------------------
# model averaging
# ---------------------------------------------------------------------------


def bma_mixture(
    ensembles: dict[str, ReturnLevelEnsemble],
    weights: BmaWeights,
    mixture_size: int,
    rng: np.random.Generator,
) -> ReturnLevelEnsemble:
    """Sample the BMA predictive mixture of per-structure return levels."""
    if mixture_size < 1:
        raise ValueError("mixture_size must be positive")
    ids = sorted(ensembles)
    if set(ids) != set(weights.weights):
        raise ValueError("ensembles and weights cover different structures")
    ref = next(iter(ensembles.values()))
    if any(e.year != ref.year or e.period_years != ref.period_years for e in ensembles.values()):
        raise ValueError("component ensembles target different years or periods")

    probs = np.array([weights.weights[sid] for sid in ids])
    counts = rng.multinomial(mixture_size, probs / probs.sum())
    parts = []
    for sid, m in zip(ids, counts):
        pool = ensembles[sid].samples
        parts.append(pool[rng.integers(0, pool.size, size=m)])
    samples = np.concatenate(parts)
    return ReturnLevelEnsemble(
        ref.year,
        ref.period_years,
        samples,
        sum(e.n_clamped for e in ensembles.values()),
        sum(e.n_flagged for e in ensembles.values()),
    )


def hazard_report(
    mixtures: dict[float, ReturnLevelEnsemble], levels: tuple[float, ...]
) -> HazardReport:
    """Empirical quantile table of the mixture ensembles, one row per period."""
    if not mixtures:
        raise ValueError("no return-level ensembles supplied")
    periods = tuple(sorted(mixtures))
    year = next(iter(mixtures.values())).year
    table = np.empty((len(periods), len(levels)))
    for i, t in enumerate(periods):
        table[i] = empirical_quantile(mixtures[t].samples, list(levels))
    return HazardReport(year, periods, tuple(levels), table)


def save_return_levels(columns: dict[float, ReturnLevelEnsemble], path) -> None:
    """One column per period: a ``T<period>`` header, a ``flagged=<n>;clamped=<n>``
    row, then the samples (shorter columns end in empty cells)."""
    periods = sorted(columns)
    cols = [columns[t] for t in periods]
    flags = [f"flagged={c.n_flagged};clamped={c.n_clamped}" for c in cols]
    # repr of the Python floats is format_float's text, one column at a time
    samples = zip_longest(*(map(repr, c.samples.tolist()) for c in cols), fillvalue="")
    write_csv(path, [f"T{t:g}" for t in periods], [flags, *samples])


def load_return_levels(path, year: int) -> dict[float, ReturnLevelEnsemble]:
    """Columns saved by ``save_return_levels``, keyed by period."""
    out = {}
    with open(path, newline="") as fh, parse_errors_named(path):
        reader = csv.reader(fh)
        header, flags, rows = next(reader), next(reader), list(reader)
        for j, t in enumerate(float(h[1:]) for h in header):
            # numpy parses each string as float() does
            samples = np.array([row[j] for row in rows if row[j]], dtype=float)
            counts = dict(kv.split("=") for kv in flags[j].split(";"))
            out[t] = ReturnLevelEnsemble(
                year, t, samples, int(counts["clamped"]), int(counts["flagged"])
            )
    return out


def write_quantile_table_csv(report: HazardReport, path) -> None:
    header = ["return_period_years"] + [f"q{100 * lv:g}" for lv in report.levels]
    write_csv(path, header, ([f"{t:g}"] + [format_float(v) for v in row]
                             for t, row in zip(report.periods, report.table)))


def write_curve_json(report: HazardReport, path) -> None:
    rows = []
    for t, row in zip(report.periods, report.table):
        entry = {"T": t}
        entry.update({f"q{100 * lv:g}": float(v) for lv, v in zip(report.levels, row)})
        rows.append(entry)
    dump_json({"year": report.year, "curve": rows}, path)
