"""Return-level projection and the model-averaged hazard mixture.

A level z has return period T when the expected number of its exceedances
per year equals 1/T. Under the PP/GPD model with yearly event rate
lam_yr = lam * 365.25 this inverts in closed form (Coles 2001, ch. 4):

    z = mu + (sig/xi) * ((T * lam_yr)^xi - 1)      for xi != 0
    z = mu + sig * ln(T * lam_yr)                  in the exponential limit

The Bayesian-model-averaged hazard is the mixture of the structures'
return-level ensembles in which each of structure s's n_s samples carries
mass w_s / n_s. Its quantiles are read off exactly, as the inverse of the
weighted empirical CDF (Hyndman & Fan 1996, type 1); nothing is drawn at
random. The mean of that mixture is the weight-averaged return level.
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
from .utils import GateError, dump_json, format_float, parse_errors_named, write_csv

# floats: a period's text form names its return-level column and its curve.json entry
DEFAULT_RETURN_PERIODS = (2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
DEFAULT_QUANTILE_LEVELS = (0.025, 0.05, 0.25, 0.5, 0.75, 0.95, 0.975)
REPORTED_QUANTILE_LEVELS = (0.05, 0.5, 0.95)  # the median and the 90% credible range


@dataclass(frozen=True)
class ReturnLevelEnsemble:
    """Return-level samples (meters) of one structure, filed under its period."""

    samples: np.ndarray
    n_clamped: int  # draws whose extrapolated rate is not positive, each also flagged
    n_flagged: int  # draws excluded: rate too low for the threshold regime

    def __post_init__(self):
        if self.samples.size == 0:
            raise ValueError("empty return-level ensemble")


@dataclass(frozen=True)
class BmaMixture:
    """The BMA mixture of one period's per-structure return levels (meters)."""

    samples: np.ndarray  # ascending
    cum_mass: np.ndarray  # the mass of samples[:i + 1]; the last entry is the total
    n_clamped: int  # the components' sums
    n_flagged: int


@dataclass(frozen=True)
class HazardReport:
    """Quantile table over return periods; rows ordered as ``periods``."""

    periods: tuple[float, ...]
    levels: tuple[float, ...]
    table: np.ndarray  # (n_periods, n_levels)

    @property
    def medians(self) -> np.ndarray:
        return self.table[:, self.levels.index(REPORTED_QUANTILE_LEVELS[1])]

    def credible_range_90(self) -> np.ndarray:
        lo, _, hi = REPORTED_QUANTILE_LEVELS
        return self.table[:, [self.levels.index(lo), self.levels.index(hi)]]


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
    return ReturnLevelEnsemble(samples, n_clamped, n_flagged)


# ---------------------------------------------------------------------------
# model averaging
# ---------------------------------------------------------------------------


def bma_mixture(ensembles: dict[str, ReturnLevelEnsemble], weights: BmaWeights) -> BmaMixture:
    """The BMA predictive mixture of per-structure return levels: each of
    structure s's n_s samples carries mass w_s / n_s."""
    ids = sorted(ensembles)
    if set(ids) != set(weights.weights):
        raise ValueError("ensembles and weights cover different structures")
    parts = [ensembles[sid] for sid in ids]
    sizes = [e.samples.size for e in parts]
    mass = np.repeat([weights.weights[sid] / n for sid, n in zip(ids, sizes)], sizes)
    samples = np.concatenate([e.samples for e in parts])
    order = np.argsort(samples, kind="stable")
    return BmaMixture(samples[order], np.cumsum(mass[order]),
                      sum(e.n_clamped for e in parts), sum(e.n_flagged for e in parts))


def hazard_report(mixtures: dict[float, BmaMixture], levels: tuple[float, ...]) -> HazardReport:
    """Quantile table of the mixtures, one row per period. The q-quantile is
    the first sample whose cumulative mass reaches q times the total: the
    inverse of the weighted empirical CDF (Hyndman & Fan 1996, type 1)."""
    if not mixtures:
        raise ValueError("no return-level mixtures supplied")
    periods = tuple(sorted(mixtures))
    table = np.empty((len(periods), len(levels)))
    for i, t in enumerate(periods):
        m = mixtures[t]
        table[i] = m.samples[np.searchsorted(m.cum_mass, np.multiply(levels, m.cum_mass[-1]))]
    return HazardReport(periods, tuple(levels), table)


def save_return_levels(columns: dict[float, ReturnLevelEnsemble], path) -> None:
    """One column per period: a ``T<period>`` header, a ``flagged=<n>;clamped=<n>``
    row, then the samples (shorter columns end in empty cells)."""
    periods = sorted(columns)
    cols = [columns[t] for t in periods]
    flags = [f"flagged={c.n_flagged};clamped={c.n_clamped}" for c in cols]
    # repr of the Python floats is format_float's text, one column at a time
    samples = zip_longest(*(map(repr, c.samples.tolist()) for c in cols), fillvalue="")
    write_csv(path, [f"T{t:g}" for t in periods], [flags, *samples])


def load_return_levels(path, periods) -> dict[float, ReturnLevelEnsemble]:
    """The columns of ``periods`` saved by ``save_return_levels``, keyed by
    period; refuses a file that lacks one of them."""
    with open(path, newline="") as fh, parse_errors_named(path):
        reader = csv.reader(fh)
        header, flags, rows = next(reader), next(reader), list(reader)
        column = {float(h[1:]): j for j, h in enumerate(header)}
        if missing := [f"T{t:g}" for t in periods if t not in column]:
            raise ValueError(f"no return levels for {', '.join(missing)} (run project first)")
        out = {}
        for t in periods:
            j = column[t]
            # numpy parses each string as float() does
            samples = np.array([row[j] for row in rows if row[j]], dtype=float)
            counts = dict(kv.split("=") for kv in flags[j].split(";"))
            out[t] = ReturnLevelEnsemble(samples, int(counts["clamped"]), int(counts["flagged"]))
    return out


def write_quantile_table_csv(report: HazardReport, path) -> None:
    header = ["return_period_years"] + [f"q{100 * lv:g}" for lv in report.levels]
    write_csv(path, header, ([f"{t:g}"] + [format_float(v) for v in row]
                             for t, row in zip(report.periods, report.table)))


def write_curve_json(report: HazardReport, year: int, path) -> None:
    rows = []
    for t, row in zip(report.periods, report.table):
        entry = {"T": t}
        entry.update({f"q{100 * lv:g}": float(v) for lv, v in zip(report.levels, row)})
        rows.append(entry)
    dump_json({"year": year, "curve": rows}, path)
