import math

import numpy as np
import pytest
from scipy import stats

from oracles import empirical_return_level
from surgebma.covariates import CovariateKind
from surgebma.hazard import ensemble_return_levels
from surgebma.models import ModelStructure, NonstatLevel, make_loglik
from surgebma.preprocess import DailySeries, decluster
from surgebma.sampler import PosteriorEnsemble
from surgebma.simulate import (
    SimulationSpec,
    gpd_sample,
    simulate_record,
    simulate_year,
    synthetic_covariates,
)

ST = ModelStructure(NonstatLevel.ST, None)


def test_gpd_sample_exponential_limit_ks():
    rng = np.random.default_rng(0)
    draws = gpd_sample(0.2, 0.0, 100_000, rng)
    stat, _ = stats.kstest(draws, lambda x: stats.expon.cdf(x, scale=0.2))
    assert stat < 0.01


def test_gpd_sample_matches_genpareto_ks():
    rng = np.random.default_rng(1)
    for xi in (-0.25, 0.3):
        draws = gpd_sample(0.15, xi, 50_000, rng)
        stat, _ = stats.kstest(draws, lambda x: stats.genpareto.cdf(x, c=xi, scale=0.15))
        assert stat < 0.01


def test_simulate_year_tiny_rate_yields_no_events():
    rng = np.random.default_rng(2)
    counts = [simulate_year(1e-12, 0.1, 0.0, 1.0, 365.0, rng).size for _ in range(200)]
    assert sum(counts) == 0


def test_simulate_year_poisson_mean():
    rng = np.random.default_rng(3)
    lam, dt, n = 0.01, 365.0, 100_000
    counts = np.array([simulate_year(lam, 0.1, 0.1, 1.0, dt, rng).size for _ in range(n)])
    mean = lam * dt
    assert abs(counts.mean() - mean) < 3.0 * math.sqrt(mean / n)


def test_missing_covariate_is_refused_alike_by_simulation_likelihood_and_projection():
    ns1 = ModelStructure(NonstatLevel.NS1, CovariateKind.TIME)
    row = np.array([0.01, 0.002, 0.12, 0.1])
    message = "nonstationary structure requires a covariate series"
    with pytest.raises(ValueError, match=message):
        SimulationSpec(row, ns1, None, 2000, 2010, 1.0, seed=1)
    record = simulate_record(SimulationSpec(row[[0, 2, 3]], ST, None, 2000, 2010, 1.0, seed=1))
    with pytest.raises(ValueError, match=message):
        make_loglik(ns1, record, None)(row)
    with pytest.raises(ValueError, match=message):
        ensemble_return_levels(PosteriorEnsemble(ns1, np.tile(row, (4, 1))), None, 2030, 1.0, 100.0)


def test_simulate_record_deterministic():
    cov = synthetic_covariates(1950, 2000, (1950, 2000))[CovariateKind.TIME]
    spec = SimulationSpec([0.01, 0.12, 0.1], ST, cov, 1950, 2000, 1.0, seed=42)
    a, b = simulate_record(spec), simulate_record(spec)
    assert a.n_events > 0
    for name in ("years", "durations", "counts", "dates", "heights"):
        assert getattr(a, name).tolist() == getattr(b, name).tolist()
    # each year's events, in year order, on the 3-day grid: days 3, 6, ... of the year
    event_years = a.dates.astype("datetime64[Y]")
    assert (event_years.astype(np.int64) + 1970).tolist() == np.repeat(a.years, a.counts).tolist()
    index_in_year = np.arange(a.n_events) - np.repeat(np.cumsum(a.counts) - a.counts, a.counts)
    day_of_year = (a.dates - event_years.astype("datetime64[D]")).astype(np.int64)
    assert day_of_year.tolist() == (3 * index_in_year + 2).tolist()


def test_simulate_record_counts_are_poisson():
    spec = SimulationSpec([0.012, 0.1, 0.05], ST, None, 1500, 2499, 1.0, seed=9)
    counts = simulate_record(spec).counts
    mean = counts.mean()
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(kmax + 1), mean) * counts.size
    # merge sparse tail bins for a valid chi-square
    while expected.size > 2 and expected[-1] < 5:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    expected *= observed.sum() / expected.sum()
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    p = stats.chi2.sf(chi2, df=expected.size - 2)
    assert p > 0.001


def test_simulate_record_ns1_counts_track_covariate():
    cov = synthetic_covariates(1500, 1999, (1500, 1999))[CovariateKind.TIME]
    structure = ModelStructure(NonstatLevel.NS1, CovariateKind.TIME)
    spec = SimulationSpec([0.008, 0.008, 0.1, 0.0], structure, cov, 1500, 1999, 1.0, seed=10)
    counts = simulate_record(spec).counts.astype(float)
    phi = cov.values
    slope, _, _, _, se = stats.linregress(phi, counts)[:5]
    assert slope > 3.0 * se  # positive dependence detected


def test_simulate_record_survives_declustering():
    spec = SimulationSpec([0.02, 0.15, 0.1], ST, None, 2000, 2019, 1.0, seed=11)
    record = simulate_record(spec)
    dates, heights = record.dates, record.heights

    first = dates.min() - np.timedelta64(2, "D")
    last = dates.max() + np.timedelta64(2, "D")
    grid = np.arange(first, last + np.timedelta64(1, "D"))
    vals = np.zeros(grid.size)
    vals[(dates - first).astype(np.int64)] = heights
    daily = DailySeries(grid[0], vals)
    out = decluster(daily, record.threshold, separation_days=3)
    assert out.dates.tolist() == dates.tolist()
    assert out.heights.tolist() == heights.tolist()


def test_empirical_return_level_monotone_in_period():
    theta = [0.01, 0.2, 0.1]
    rng = np.random.default_rng(12)
    levels = [
        empirical_return_level(theta, ST, 0.0, 1.0, t, 20_000, rng) for t in (5, 20, 100)
    ]
    assert levels[0] < levels[1] < levels[2]


def test_empirical_return_level_respects_bounded_tail():
    theta = [0.01, 0.2, -0.3]
    rng = np.random.default_rng(13)
    bound = 1.0 - 0.2 / -0.3
    for t in (10, 50):
        assert empirical_return_level(theta, ST, 0.0, 1.0, t, 10_000, rng) < bound


def test_empirical_matches_analytic_return_level():
    # two fully independent routes to the same quantity
    theta = [0.01, 0.2, 0.1]
    rng = np.random.default_rng(14)
    got = empirical_return_level(theta, ST, 0.0, 1.0, 50, 200_000, rng)
    ensemble = PosteriorEnsemble(ST, np.array([theta]))
    want = float(ensemble_return_levels(ensemble, None, 2065, 1.0, 50).samples[0])
    assert got == pytest.approx(want, rel=0.02)


def test_simulation_spec_validates_rates():
    cov = synthetic_covariates(2000, 2010, (2000, 2010))[CovariateKind.TIME]
    structure = ModelStructure(NonstatLevel.NS1, CovariateKind.TIME)
    with pytest.raises(ValueError, match="nonpositive"):
        SimulationSpec([0.005, -0.01, 0.1, 0.0], structure, cov, 2000, 2010, 1.0, seed=1)
    # a row of another level's length would be truncated or misread, so it is refused
    for row in ([0.005, 0.1, 0.0], [0.005, 0.0, 0.1, 0.0, 0.1], [[0.005, 0.0, 0.1, 0.0]]):
        with pytest.raises(ValueError, match="NS1-time takes a row of 4 active parameters"):
            SimulationSpec(row, structure, cov, 2000, 2010, 1.0, seed=1)


def test_loglik_profile_peaks_near_truth():
    # generative/likelihood consistency: the average log-likelihood over a
    # 1-D grid around each component is maximized near the true value
    theta = np.array([0.01, 0.15, 0.1])  # ST: lam0, sig0, xi0
    spec = SimulationSpec(theta, ST, None, 1700, 2199, 1.0, seed=15)
    loglik = make_loglik(ST, simulate_record(spec), None)

    for k, truth, grid in [
        (0, 0.01, np.linspace(0.005, 0.02, 31)),
        (1, 0.15, np.linspace(0.08, 0.3, 31)),
        (2, 0.1, np.linspace(-0.2, 0.5, 31)),
    ]:
        vals = []
        for g in grid:
            row = theta.copy()
            row[k] = g
            vals.append(loglik(row))
        best = grid[int(np.argmax(vals))]
        span = grid.max() - grid.min()
        assert abs(best - truth) < 0.2 * span
