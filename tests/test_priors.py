import math

import numpy as np
import pytest
from scipy.integrate import quad

from surgebma.covariates import CovariateKind
from surgebma.models import ModelStructure, NonstatLevel, ParameterVector, make_loglik
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
    theta = ParameterVector(lam0=0.02, sig0=0.15, xi0=0.3)
    spec = SimulationSpec(theta, ST, None, 1814, 2013, 1.0, seed=0)
    return theta, simulate_record(spec)


def test_mle_recovers_truth_within_ten_percent(st_record_200yr):
    theta, record = st_record_200yr
    lam0, sig0, xi0 = mle_fit(ST, record, None, rng=np.random.default_rng(0))
    assert lam0 == pytest.approx(theta.lam0, rel=0.10)
    assert sig0 == pytest.approx(theta.sig0, rel=0.10)
    assert xi0 == pytest.approx(theta.xi0, rel=0.10)


def test_mle_dominates_truth_in_sample(st_record_200yr):
    theta, record = st_record_200yr
    fit = mle_fit(ST, record, None, rng=np.random.default_rng(1))
    loglik = make_loglik(ST, record, None)
    assert loglik(fit) >= loglik(theta.active(ST.level)) - 1e-6


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
    truth = ParameterVector(lam0=0.02, sig0=math.log(0.15), xi0=0.1)
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


def test_mle_no_feasible_start():
    from surgebma.preprocess import ExceedanceSet

    with pytest.raises(ValueError, match="no exceedances"):
        mle_fit(ST, ExceedanceSet(1.0, ()), None)


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
    save_priors(priors, path)
    back = load_priors(path)
    assert set(back) == {"ST"}
    for name, spec in priors["ST"].specs.items():
        assert back["ST"].specs[name] == spec
