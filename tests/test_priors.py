import logging
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from oracles import scipy_nelder_mead
from surgebma import priors
from surgebma.covariates import CovariateKind, CovariateSeries
from surgebma.models import ModelStructure, NonstatLevel, make_loglik
from surgebma.priors import (
    PriorSet,
    PriorSpec,
    fit_all_priors,
    fit_prior,
    fit_prior_set,
    load_priors,
    mle_fit,
    prior_family_for,
    save_priors,
)
from surgebma.preprocess import ExceedanceSet
from surgebma.simulate import SimulationSpec, simulate_record, synthetic_covariates

ST = ModelStructure(NonstatLevel.ST, None)
NS3 = ModelStructure(NonstatLevel.NS3, CovariateKind.TIME)


# ---------------------------------------------------------------------------
# fit_prior
# ---------------------------------------------------------------------------


def test_fit_prior_normal_moments():
    spec = fit_prior([1.0, 2.0, 3.0], "normal")
    assert spec.family == "normal"
    assert spec.p1 == pytest.approx(2.0)
    assert spec.p2 == pytest.approx(1.0)


def test_fit_prior_gamma_method_of_moments():
    # mean 2, variance 2 -> shape 2, rate 1
    samples = np.array([1.0, 3.0, 2.0, 0.5, 3.5])
    samples = (samples - samples.mean()) / samples.std(ddof=1) * math.sqrt(2.0) + 2.0
    spec = fit_prior(samples, "gamma")
    assert spec.p1 == pytest.approx(2.0)
    assert spec.p2 == pytest.approx(1.0)


def test_fit_prior_gamma_recovery_envelope():
    rng = np.random.default_rng(0)
    shapes = []
    for _ in range(50):
        draws = rng.gamma(3.0, 1.0 / 2.0, size=28)
        shapes.append(fit_prior(draws, "gamma").p1)
    # sampling-noise envelope for 28 draws from Gamma(3, 2)
    assert all(1.5 <= s <= 6.0 for s in shapes)


def test_fit_prior_errors():
    with pytest.raises(ValueError, match="at least 3"):
        fit_prior([1.0, 2.0], "normal")
    with pytest.raises(ValueError, match="degenerate"):
        fit_prior([2.0, 2.0, 2.0], "normal")
    with pytest.raises(ValueError, match="positive samples"):
        fit_prior([1.0, -1.0, 2.0], "gamma")


def test_prior_density_integrates_to_one():
    for spec in (PriorSpec("normal", 0.3, 1.7), PriorSpec("gamma", 2.5, 8.0)):
        lo = -np.inf if spec.family == "normal" else 0.0
        val, _ = quad(lambda x: math.exp(spec.logpdf(x)), lo, np.inf, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)


def test_support_rule():
    assert prior_family_for("lam0", NonstatLevel.NS3) == "gamma"
    assert prior_family_for("sig0", NonstatLevel.ST) == "gamma"
    assert prior_family_for("sig0", NonstatLevel.NS2) == "normal"  # log-scale intercept
    assert prior_family_for("xi0", NonstatLevel.ST) == "normal"
    # sig0 column holds negatives for an ST (direct-scale) structure
    table = np.column_stack(
        [
            np.array([0.01, 0.012, 0.008, 0.011, 0.009]),
            np.array([-0.1, 0.2, 0.1, 0.3, -0.2]),
            np.array([0.0, 0.05, 0.1, 0.15, 0.2]),
        ]
    )
    with pytest.raises(ValueError, match="positive samples"):
        fit_prior_set(ST, table)


def test_priorset_family_enforcement():
    with pytest.raises(ValueError, match="gamma"):
        PriorSet(
            ST,
            {
                "lam0": PriorSpec("normal", 0.01, 0.005),
                "sig0": PriorSpec("gamma", 2.0, 10.0),
                "xi0": PriorSpec("normal", 0.0, 0.2),
            },
        )


# ---------------------------------------------------------------------------
# mle_fit
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def st_record_200yr():
    truth = np.array([0.02, 0.15, 0.3])  # ST: lam0, sig0, xi0
    spec = SimulationSpec(truth, ST, None, 1814, 2013, 1.0, seed=0)
    return truth, simulate_record(spec)


def test_mle_recovers_truth_within_ten_percent(st_record_200yr):
    truth, record = st_record_200yr
    fit = mle_fit(ST, record, None, rng=np.random.default_rng(0))
    assert fit == pytest.approx(truth, rel=0.10)


def test_mle_dominates_truth_in_sample(st_record_200yr):
    truth, record = st_record_200yr
    fit = mle_fit(ST, record, None, rng=np.random.default_rng(1))
    loglik = make_loglik(ST, record, None)
    assert loglik(fit) >= loglik(truth) - 1e-6


def test_mle_is_local_maximum(st_record_200yr):
    _, record = st_record_200yr
    fit = mle_fit(ST, record, None, rng=np.random.default_rng(2))
    loglik = make_loglik(ST, record, None)
    base = loglik(fit)
    for i in range(fit.size):
        for sign in (+1, -1):
            bumped = fit.copy()
            bumped[i] *= 1 + sign * 1e-4
            assert loglik(bumped) <= base + 1e-8


def test_mle_ns3_slopes_near_zero_on_stationary_data():
    cov = synthetic_covariates(1864, 2013, (1864, 2013))[CovariateKind.TIME]
    truth = [0.02, 0.0, math.log(0.15), 0.0, 0.1, 0.0]  # NS3 with zero slopes
    slopes = {"lam1": [], "sig1": [], "xi1": []}
    for seed in range(10):
        spec = SimulationSpec(truth, NS3, cov, 1864, 2013, 1.0, seed=seed)
        record = simulate_record(spec)
        fit = dict(zip(NS3.active_params, mle_fit(NS3, record, cov, rng=np.random.default_rng(seed))))
        for name in slopes:
            slopes[name].append(fit[name])
    for name, vals in slopes.items():
        spread = np.std(vals, ddof=1)
        assert abs(np.median(vals)) < 2.0 * spread, name


def test_mle_no_exceedances():
    with pytest.raises(ValueError, match="no exceedances"):
        mle_fit(ST, ExceedanceSet(1.0, [], [], [], [], []), None, np.random.default_rng(0))


def test_mle_no_feasible_start(st_record_200yr, monkeypatch):
    calls = []

    def make_loglik(structure, data, cov):
        def loglik(row):
            calls.append(row)
            return -math.inf

        return loglik

    monkeypatch.setattr(priors, "make_loglik", make_loglik)
    with pytest.raises(ValueError, match="no feasible start"):
        mle_fit(ST, st_record_200yr[1], None, np.random.default_rng(0))
    assert len(calls) == priors.MLE_RESTARTS  # each start evaluated once, none searched


def test_mle_warns_when_the_best_search_stops_at_the_cap(st_record_200yr, monkeypatch, caplog):
    _, record = st_record_200yr
    with caplog.at_level(logging.WARNING, logger="surgebma.priors"):
        full = mle_fit(ST, record, None, rng=np.random.default_rng(0))
    assert caplog.records == []
    monkeypatch.setattr(priors, "MLE_MAX_ITERATIONS", 1)
    with caplog.at_level(logging.WARNING, logger="surgebma.priors"):
        capped = mle_fit(ST, record, None, rng=np.random.default_rng(0))
    [warning] = caplog.records
    assert warning.levelno == logging.WARNING
    assert "ST" in warning.getMessage() and "1 iterations" in warning.getMessage()
    assert not np.array_equal(capped, full)


@pytest.mark.parametrize("seed", range(3))
def test_mle_warns_when_the_fit_ends_on_the_gpd_support_edge(seed, caplog):
    # five excesses in one year: the GPD likelihood grows without bound as
    # xi falls below -1 with the largest excess on the support edge, so the
    # ascent stops at xi = -1 or just past it (seed 0: -0.99999998)
    excess = np.array([0.05, 0.1, 0.2, 0.3, 0.5])
    dates = ["2000-01-10", "2000-03-01", "2000-05-01", "2000-07-01", "2000-09-01"]
    record = ExceedanceSet(1.0, [2000], [366], [5], dates, 1.0 + excess)
    with caplog.at_level(logging.WARNING, logger="surgebma.priors"):
        lam0, sig0, xi0 = mle_fit(ST, record, None, rng=np.random.default_rng(seed))
    assert xi0 == pytest.approx(-1, abs=0.1) and sig0 == pytest.approx(0.5, abs=0.05)
    [warning] = caplog.records
    assert warning.levelno == logging.WARNING
    assert warning.getMessage().startswith("ST: ") and "support edge" in warning.getMessage()


def scipy_best(structure, record, cov, rng):
    """The best log L of ``MLE_RESTARTS`` chained pairs of scipy Nelder-Mead
    searches over the whole row, from the moment start and from perturbed ones."""
    loglik = make_loglik(structure, record, cov)
    base = priors._moment_start(structure, record)
    positive = [prior_family_for(p, structure.level) == "gamma" for p in structure.active_params]
    best = -math.inf
    for k in range(priors.MLE_RESTARTS):
        x0 = base.copy()
        if k > 0:
            x0 = base + 0.3 * np.maximum(np.abs(base), 0.05) * rng.standard_normal(base.size)
            x0[positive] = np.abs(x0[positive])
        res = scipy_nelder_mead(lambda x: -loglik(x), x0, 1e-7, 1e-8, 20000)
        res = scipy_nelder_mead(lambda x: -loglik(x), res.x, 1e-9, 1e-10, 20000)
        best = max(best, -res.fun)
    return best


def test_mle_returns_the_best_of_scipy_searches(st_record_200yr):
    """Scipy's simplex search is the reference optimizer: on an ST and an NS3
    record, no restart of it ends higher than ``mle_fit``."""
    cov = synthetic_covariates(1864, 2013, (1864, 2013))[CovariateKind.TIME]
    truth = [0.02, 0.005, math.log(0.15), 0.3, 0.1, -0.1]
    ns3_record = simulate_record(SimulationSpec(truth, NS3, cov, 1864, 2013, 1.0, seed=3))
    for structure, record, series in ((ST, st_record_200yr[1], None), (NS3, ns3_record, cov)):
        got = mle_fit(structure, record, series, rng=np.random.default_rng(4))
        best = scipy_best(structure, record, series, np.random.default_rng(4))
        assert make_loglik(structure, record, series)(got) >= best - 1e-9, structure.id


@pytest.fixture(scope="module")
def rate_boundary_record():
    """20 years whose counts grow as phi^2 from none at phi = 0: the rate line
    that fits them best would dip below 0 there, so the NS rate MLE puts the
    first year's rate on the boundary lam0 + lam1 * phi = 0, at lam0 = 0."""
    years = np.arange(1990, 2010)
    phi = np.linspace(0.0, 1.0, years.size)
    counts = np.rint(8 * phi**2).astype(int)
    dates = np.concatenate(
        [np.datetime64(f"{y}-01-01") + 3 * np.arange(n) for y, n in zip(years, counts)])
    heights = 1.0 + np.random.default_rng(3).exponential(0.2, counts.sum())
    durations = [366 if y % 4 == 0 else 365 for y in years]
    return ExceedanceSet(1.0, years, durations, counts, dates, heights), CovariateSeries(1990, phi)


def test_mle_rate_block_on_the_boundary_matches_a_search_along_it(rate_boundary_record):
    record, cov = rate_boundary_record
    ns1 = ModelStructure(NonstatLevel.NS1, CovariateKind.TIME)
    lam0, lam1 = mle_fit(ns1, record, cov, rng=np.random.default_rng(0))[:2]
    phi, counts = cov.values, record.counts
    days = record.durations.astype(float)
    seen = counts > 0

    def rate_loglik(lam0, lam1):
        lam = lam0 + lam1 * phi
        return float((counts[seen] * np.log(lam[seen] * days[seen])).sum() - (lam * days).sum())

    # along the constraint the first year's rate is 0: lam0 = 0, lam1 free;
    # log L is flat at the top, so the search pins lam1 to about sqrt(eps)
    line = minimize_scalar(lambda b: -rate_loglik(0.0, b), bounds=(1e-6, 1.0), method="bounded",
                           options={"xatol": 1e-13})
    assert 0.0 < lam0 < 1e-12
    assert lam1 == pytest.approx(line.x, rel=1e-7)
    assert rate_loglik(lam0, lam1) >= -line.fun - 1e-9


def test_mle_emits_no_warning_when_the_fit_lies_on_the_rate_boundary(rate_boundary_record):
    # on this record an NS3 line search tries a point where exp(-log sig) overflows
    record, cov = rate_boundary_record
    for level in (NonstatLevel.NS1, NonstatLevel.NS2, NonstatLevel.NS3):
        structure = ModelStructure(level, CovariateKind.TIME)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = mle_fit(structure, record, cov, rng=np.random.default_rng(0))
        assert math.isfinite(make_loglik(structure, record, cov)(row))
        assert (row[0] + row[1] * cov.values).min() < 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_priors_json_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    table = {
        "ST": np.column_stack(
            [rng.uniform(0.005, 0.02, 10), rng.uniform(0.05, 0.2, 10), rng.normal(0.1, 0.1, 10)]
        )
    }
    priors = fit_all_priors(table)
    path = tmp_path / "priors.json"
    save_priors(priors, path, meta={})
    back = load_priors(path)
    assert set(back) == {"ST"}
    for name, spec in priors["ST"].specs.items():
        assert back["ST"].specs[name] == spec
