import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from oracles import gpd_logpdf, loglik_row_kernel, naive_loglik, poisson_logpmf
from surgebma.covariates import CovariateKind, CovariateSeries
from surgebma.models import (
    ACTIVE_PARAMS,
    XI_EPS,
    ModelStructure,
    NonstatLevel,
    ParameterVector,
    all_structures,
    effective_params,
    log_likelihood,
    log_posterior,
    log_prior,
    make_loglik,
    make_logpost,
    make_logpost_rows,
)
from surgebma.models import DIRECT_SCALE, LikelihoodData, _loglik_from_arrays, _loglik_rows
from surgebma.preprocess import ExceedanceRecord, ExceedanceSet, YearBlock
from surgebma.priors import PriorSet, PriorSpec

ST = ModelStructure(NonstatLevel.ST, None)
NS1 = ModelStructure(NonstatLevel.NS1, CovariateKind.TIME)
NS2 = ModelStructure(NonstatLevel.NS2, CovariateKind.TIME)
NS3 = ModelStructure(NonstatLevel.NS3, CovariateKind.TIME)


def make_cov(years, raw=None):
    years = np.asarray(years, dtype=np.int64)
    raw = np.linspace(0.0, 1.0, years.size) if raw is None else np.asarray(raw, float)
    raw = (raw - raw.min()) / (raw.max() - raw.min())  # container requires [0,1] span
    return CovariateSeries(CovariateKind.TIME, years, raw, (int(years[0]), int(years[-1])))


def make_data(threshold, year_events, durations=None):
    """year_events: dict year -> list of heights."""
    blocks = []
    for i, (year, heights) in enumerate(sorted(year_events.items())):
        recs = tuple(
            ExceedanceRecord(np.datetime64(f"{year}-01-01") + np.timedelta64(3 * j, "D"), h)
            for j, h in enumerate(heights)
        )
        dur = 365 if durations is None else durations[i]
        blocks.append(YearBlock(year, recs, dur))
    return ExceedanceSet(threshold, tuple(blocks))


# ---------------------------------------------------------------------------
# effective_params
# ---------------------------------------------------------------------------

# one active row per level; sig0 is a direct scale for ST/NS1, a log scale above
EFFECTIVE_ROWS = {
    "ST": [0.01, 0.2, 0.1],
    "NS1": [0.01, 0.005, 0.2, 0.1],
    "NS2": [0.01, 0.005, -1.5, 0.2, 0.1],
    "NS3": [0.01, 0.005, -1.5, 0.2, 0.1, -0.05],
}


def effective_by_hand(level, phi):
    """The (lam, sig, xi) rule of the module docstring, one level at a time."""
    if level == "ST":
        return 0.01, 0.2, 0.1
    lam = 0.01 + 0.005 * phi
    if level == "NS1":
        return lam, 0.2, 0.1
    sig = math.exp(-1.5 + 0.2 * phi)
    return lam, sig, (0.1 - 0.05 * phi if level == "NS3" else 0.1)


@pytest.mark.parametrize("phi", [0.0, 1.0, np.array([0.0, 0.5, 1.0, 1.61])], ids=["phi0", "phi1", "array"])
@pytest.mark.parametrize("level", list(EFFECTIVE_ROWS))
def test_effective_params_rule(level, phi):
    row = EFFECTIVE_ROWS[level]
    lam, sig, xi = effective_params(row, NonstatLevel(level), phi)
    assert lam.shape == sig.shape == xi.shape == np.shape(phi)
    for k, p in enumerate(np.atleast_1d(phi)):
        got = [float(np.atleast_1d(v)[k]) for v in (lam, sig, xi)]
        assert got == pytest.approx(effective_by_hand(level, float(p)), rel=1e-15)
    if level == "ST":  # the stationary structure ignores the covariate
        assert [v.tolist() for v in effective_params(row, NonstatLevel.ST, 1.0)] == [
            v.tolist() for v in effective_params(row, NonstatLevel.ST, 0.0)
        ]
    # a stack of rows resolves row by row, bit for bit
    stack = np.array([row, np.multiply(row, 1.1)])
    for v_stack, v_row in zip(
        effective_params(stack, NonstatLevel(level), 0.7),
        effective_params(stack[1], NonstatLevel(level), 0.7),
    ):
        assert v_stack.shape == (2,) and v_stack[1] == v_row


# ---------------------------------------------------------------------------
# gpd_logpdf
# ---------------------------------------------------------------------------


def test_gpd_density_at_threshold_is_inverse_scale():
    for xi in (-0.3, 0.0, 0.4):
        assert gpd_logpdf(1.0, 1.0, 0.5, xi) == pytest.approx(math.log(2.0))


def test_gpd_zero_beyond_upper_endpoint():
    # xi=-0.5, sigma=1: upper endpoint mu + 2
    assert gpd_logpdf(3.5, 0.5, 1.0, -0.5) == -math.inf


def test_gpd_outside_support_errors():
    with pytest.raises(ValueError, match="outside support"):
        gpd_logpdf(0.9, 1.0, 0.5, 0.1)
    with pytest.raises(ValueError, match="outside support"):
        gpd_logpdf(1.5, 1.0, -0.5, 0.1)


@pytest.mark.parametrize("xi", [-0.3, -1e-9, 0.0, 1e-9, 0.4])
@pytest.mark.parametrize("sig", [0.1, 1.0])
def test_gpd_density_integrates_to_one(xi, sig):
    mu = 1.0
    upper = mu - sig / xi if xi < -1e-12 else np.inf
    if np.isfinite(upper):
        # cap huge near-exponential endpoints; the truncated mass is ~e^-1000
        upper = min(upper, mu + 1000.0 * sig)
    val, err = quad(lambda x: math.exp(gpd_logpdf(x, mu, sig, xi)), mu, upper, limit=200)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_gpd_continuous_across_xi_zero():
    mu, sig = 1.0, 0.3
    for z in np.linspace(0.0, 10.0, 25):
        x = mu + z * sig
        f0 = gpd_logpdf(x, mu, sig, 0.0)
        assert abs(gpd_logpdf(x, mu, sig, 1e-8) - f0) < 1e-6
        assert abs(gpd_logpdf(x, mu, sig, -1e-8) - f0) < 1e-6


# ---------------------------------------------------------------------------
# poisson_logpmf
# ---------------------------------------------------------------------------


def test_poisson_zero_count():
    assert poisson_logpmf(0, 0.01, 200.0) == pytest.approx(-2.0)


def test_poisson_unit_mean_single_event():
    assert poisson_logpmf(1, 1.0 / 365.0, 365.0) == pytest.approx(-1.0)


def test_poisson_matches_extended_precision_formula():
    mpmath.mp.dps = 50
    lam, dt = 0.01, 365.0
    for n in (0, 1, 3, 10):
        mean = mpmath.mpf(lam) * dt
        direct = mpmath.log(mean**n / mpmath.factorial(n) * mpmath.e ** (-mean))
        assert poisson_logpmf(n, lam, dt) == pytest.approx(float(direct), rel=1e-12)


def test_poisson_pmf_sums_to_one():
    for mean in (0.5, 3.0, 20.0):
        lam, dt = mean / 365.0, 365.0
        total = sum(math.exp(poisson_logpmf(n, lam, dt)) for n in range(0, 200))
        assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# joint likelihood
# ---------------------------------------------------------------------------


def test_loglik_poisson_only_year():
    data = make_data(1.0, {2000: []}, durations=[200])
    theta = ParameterVector(lam0=0.01, sig0=0.1, xi0=0.0)
    assert log_likelihood(theta, ST, data, None) == pytest.approx(-2.0)


def test_loglik_year_order_invariance():
    rng = np.random.default_rng(3)
    events = {2000 + y: list(1.0 + rng.exponential(0.1, size=rng.integers(0, 5))) for y in range(6)}
    data = make_data(1.0, events)
    shuffled = ExceedanceSet(data.threshold, tuple(reversed(data.years)))
    theta = ParameterVector(lam0=0.008, sig0=0.12, xi0=0.05)
    assert log_likelihood(theta, ST, data, None) == pytest.approx(
        log_likelihood(theta, ST, shuffled, None), rel=1e-14
    )



@pytest.mark.parametrize("seed", range(8))
def test_loglik_matches_naive_double_loop(seed):
    rng = np.random.default_rng(200 + seed)
    years = np.arange(2000, 2003)
    cov = make_cov(years, rng.uniform(0, 1, size=3))
    events = {int(y): list(1.0 + rng.exponential(0.15, size=rng.integers(0, 6))) for y in years}
    data = make_data(1.0, events, durations=list(rng.integers(300, 366, size=3)))
    structure = rng.choice([ST, NS1, NS3])
    theta = ParameterVector(
        lam0=rng.uniform(0.005, 0.02),
        lam1=rng.normal(0, 0.002) if structure.level != NonstatLevel.ST else 0.0,
        sig0=rng.uniform(0.05, 0.3)
        if structure.level in (NonstatLevel.ST, NonstatLevel.NS1)
        else rng.normal(-2.0, 0.3),
        sig1=rng.normal(0, 0.1) if structure.level is NonstatLevel.NS3 else 0.0,
        xi0=rng.normal(0.1, 0.1),
        xi1=rng.normal(0, 0.05) if structure.level is NonstatLevel.NS3 else 0.0,
    )
    got = log_likelihood(theta, structure, data, cov)
    want = naive_loglik(theta, structure, data, cov)
    assert got == pytest.approx(want, rel=1e-10)


def test_loglik_st_invariant_to_covariate():
    data = make_data(1.0, {2000: [1.1], 2001: [1.3, 1.05]})
    theta = ParameterVector(lam0=0.01, sig0=0.15, xi0=0.1)
    covs = [None, make_cov([2000, 2001]), make_cov([2000, 2001], [0.3, 0.9])]
    vals = {log_likelihood(theta, ST, data, c) for c in covs}
    assert len(vals) == 1


def test_ns3_with_zero_slopes_reproduces_st():
    data = make_data(1.0, {2000: [1.1], 2001: [1.3, 1.05], 2002: []})
    cov = make_cov([2000, 2001, 2002])
    sig = 0.15
    theta_st = ParameterVector(lam0=0.01, sig0=sig, xi0=0.1)
    theta_ns3 = ParameterVector(lam0=0.01, lam1=0.0, sig0=math.log(sig), sig1=0.0, xi0=0.1, xi1=0.0)
    assert log_likelihood(theta_ns3, NS3, data, cov) == pytest.approx(
        log_likelihood(theta_st, ST, data, None), rel=1e-12
    )


def test_loglik_rejects_bad_params_with_minus_inf():
    data = make_data(1.0, {2000: [1.5], 2001: []})
    cov = make_cov([2000, 2001], [1.0, 0.0])
    assert log_likelihood(ParameterVector(lam0=0.01, lam1=-0.02, sig0=0.1), NS1, data, cov) == -math.inf
    assert log_likelihood(ParameterVector(lam0=0.01, sig0=-0.1), ST, data, None) == -math.inf
    # exceedance above a bounded upper endpoint
    assert log_likelihood(ParameterVector(lam0=0.01, sig0=0.1, xi0=-0.5), ST, data, None) == -math.inf


def test_loglik_requires_covariate_coverage():
    data = make_data(1.0, {2000: [1.1], 2001: [], 2002: []})
    cov = make_cov([2000, 2001])  # 2002 missing
    with pytest.raises(ValueError, match="not covered"):
        log_likelihood(ParameterVector(lam0=0.01, sig0=0.1), NS1, data, cov)


# ---------------------------------------------------------------------------
# prior and posterior
# ---------------------------------------------------------------------------


def make_priorset(structure):
    specs = {}
    for name in structure.active_params:
        if name == "lam0":
            specs[name] = PriorSpec("gamma", 4.0, 400.0)
        elif name == "sig0" and structure.level in (NonstatLevel.ST, NonstatLevel.NS1):
            specs[name] = PriorSpec("gamma", 3.0, 20.0)
        else:
            specs[name] = PriorSpec("normal", 0.0, 0.5)
    return PriorSet(structure, specs)


def test_log_prior_at_componentwise_modes():
    priors = make_priorset(ST)
    # gamma mode = (shape-1)/rate, normal mode = mean
    theta = ParameterVector(lam0=3.0 / 400.0, sig0=2.0 / 20.0, xi0=0.0)
    want = (
        priors.specs["lam0"].logpdf(3.0 / 400.0)
        + priors.specs["sig0"].logpdf(0.1)
        + priors.specs["xi0"].logpdf(0.0)
    )
    assert log_prior(theta, ST, priors) == pytest.approx(want)


def test_log_prior_gamma_support():
    priors = make_priorset(ST)
    assert log_prior(ParameterVector(lam0=-0.01, sig0=0.1, xi0=0.0), ST, priors) == -math.inf


def test_log_prior_matches_componentwise_sum():
    rng = np.random.default_rng(4)
    priors = make_priorset(NS3)
    from scipy import stats

    for _ in range(10):
        theta = ParameterVector(
            lam0=rng.uniform(0.001, 0.05),
            lam1=rng.normal(),
            sig0=rng.normal(),
            sig1=rng.normal(),
            xi0=rng.normal(),
            xi1=rng.normal(),
        )
        want = 0.0
        for name in NS3.active_params:
            spec = priors.specs[name]
            x = getattr(theta, name)
            if spec.family == "normal":
                want += stats.norm.logpdf(x, spec.p1, spec.p2)
            else:
                want += stats.gamma.logpdf(x, spec.p1, scale=1.0 / spec.p2)
        assert log_prior(theta, NS3, priors) == pytest.approx(want, rel=1e-12)


def test_log_prior_missing_parameter_errors():
    with pytest.raises(ValueError, match="missing prior"):
        PriorSet(ST, {"lam0": PriorSpec("gamma", 2.0, 100.0)})


def test_log_posterior_composition_and_inf_propagation():
    data = make_data(1.0, {2000: [1.2], 2001: []})
    priors = make_priorset(ST)
    theta = ParameterVector(lam0=0.01, sig0=0.12, xi0=0.05)
    want = log_likelihood(theta, ST, data, None) + log_prior(theta, ST, priors)
    assert log_posterior(theta, ST, data, None, priors) == pytest.approx(want, rel=1e-12)

    bad = ParameterVector(lam0=-0.1, sig0=0.12, xi0=0.05)
    assert log_posterior(bad, ST, data, None, priors) == -math.inf


def test_structure_catalogue():
    ids = [s.id for s in all_structures()]
    assert len(ids) == 13 and len(set(ids)) == 13
    assert ids[0] == "ST"
    with pytest.raises(ValueError):
        ModelStructure(NonstatLevel.ST, CovariateKind.TIME)
    with pytest.raises(ValueError):
        ModelStructure(NonstatLevel.NS1, None)
    assert ModelStructure.parse("NS2-sealevel").covariate is CovariateKind.SEALEVEL


def test_make_loglik_closure_matches_public_function():
    data = make_data(1.0, {2000: [1.2, 1.4], 2001: [1.1]})
    cov = make_cov([2000, 2001])
    theta = ParameterVector(lam0=0.012, lam1=0.003, sig0=0.1, xi0=0.02)
    fast = make_loglik(NS1, data, cov)
    assert fast(theta.active(NS1.level)) == log_likelihood(theta, NS1, data, cov)


# ---------------------------------------------------------------------------
# stacked log-likelihood and log-posterior
# ---------------------------------------------------------------------------

# rows that each take one branch of the row kernel, by level; the random rows
# added in the test take the ordinary path
BRANCH_ROWS = {
    "ST": [
        [0.01, -0.1, 0.1],  # direct-scale sig0 <= 0
        [0.01, 0.0, 0.1],  # sig0 == 0
        [0.01, 0.1, -0.5],  # 1 + xi z <= 0 for the largest excess
        [0.01, 0.1, 0.0],  # |xi0| < XI_EPS
        [0.01, 0.1, 5e-9],
        [-0.01, 0.1, 0.1],  # nonpositive rate in every year, gamma prior -inf
    ],
    "NS1": [
        [0.01, -0.02, 0.1, 0.1],  # lam <= 0 in the last year only
        [0.01, 0.005, -0.1, 0.1],
        [0.01, 0.005, 0.1, -0.6],
        [0.01, 0.005, 0.1, -1e-9],
    ],
    "NS2": [
        [0.01, -0.011, -2.0, 0.2, 0.1],
        [0.01, 0.005, -2.0, 0.3, -0.5],
        [0.01, 0.005, -2.0, 0.3, 0.0],
        [0.0, 0.005, -2.0, 0.3, 0.1],  # gamma-prior lam0 at 0
    ],
    "NS3": [
        [0.01, 0.005, -2.0, 0.3, 0.1, 0.0],  # xi1 == 0.0: the row kernel's scalar shape
        [0.01, 0.005, -2.0, 0.3, 0.0, 0.0],
        [0.01, 0.005, -2.0, 0.3, 0.1, -0.0],
        [0.01, 0.005, -2.0, 0.3, 5e-9, -1e-8],  # |xi| < XI_EPS for some events only
        [0.01, 0.005, -2.0, 0.3, 0.0, 1e-9],  # ... for every event
        [0.01, 0.005, -2.0, 0.3, 0.1, -0.9],  # 1 + xi z <= 0 in late years
        [0.01, -0.02, -2.0, 0.3, 0.1, 0.05],
        [-0.01, 0.005, -2.0, 0.3, 0.1, 0.05],
    ],
}
LEVEL_STRUCTURES = {"ST": ST, "NS1": NS1, "NS2": NS2, "NS3": NS3}


def stack_fixture(level):
    rng = np.random.default_rng(17)
    years = list(range(2000, 2008))
    cov = make_cov(years, rng.uniform(0, 1, size=len(years)))
    events = {y: list(1.0 + rng.exponential(0.15, size=rng.integers(0, 5))) for y in years}
    events[2007] = [1.9]  # a large excess late in the record
    data = make_data(1.0, events, durations=list(rng.integers(300, 366, size=len(years))))
    center = np.array(EFFECTIVE_ROWS[level])
    random_rows = center + rng.normal(size=(12, center.size)) * np.maximum(np.abs(center), 0.01) * 0.3
    rows = np.vstack([random_rows, BRANCH_ROWS[level]])
    return LEVEL_STRUCTURES[level], data, cov, rows


@pytest.mark.parametrize("level", list(BRANCH_ROWS))
def test_stacked_loglik_equals_row_kernel_bit_for_bit(level):
    structure, data, cov, rows = stack_fixture(level)
    arrays = LikelihoodData.build(data, cov, structure)
    want = [_loglik_from_arrays(r, structure.level, arrays) for r in rows]
    assert _loglik_rows(rows, structure.level, arrays).tolist() == want
    assert -math.inf in want and any(math.isfinite(v) for v in want)
    # one-row stacks, including each branch row on its own
    for row, value in zip(rows, want):
        assert _loglik_rows(row[None], structure.level, arrays).tolist() == [value]


def kernel_edge_rows(level, arrays, center):
    """Rows on the row kernel's exact edges, built from the data arrays."""
    name = dict(zip(ACTIVE_PARAMS[level], range(center.size)))
    rows = []

    def row(**values):
        r = center.copy()
        for key, v in values.items():
            r[name[key]] = v
        rows.append(r)
        return r

    if level is NonstatLevel.ST:
        row(lam0=-0.0)  # a signed zero rate
        row(lam0=0.0)
        return np.array(rows)
    # lam == 0 exactly in the year where phi == 0, positive in every other year
    r = row(lam0=-(0.01 * 0.0), lam1=0.01)
    lam = r[0] + r[1] * arrays.phi
    assert (lam == 0.0).sum() >= 1 and (lam >= 0.0).all()
    if level is NonstatLevel.NS1:
        return np.array(rows)
    # 1 + t == 0 exactly at the largest excess: z is the excess itself when the
    # log scale is 0, and xi * max(excess) == -1.0 for this xi
    emax = arrays.excess.max()
    xi = -1.0 / emax
    while xi * emax != -1.0:
        xi = np.nextafter(xi, 0.0)
    # xi1 = 1e-300 keeps NS3 on its per-event shape path with the same t
    slope = {"xi1": 1e-300} if level is NonstatLevel.NS3 else {}
    t_row = row(sig0=0.0, sig1=0.0, xi0=xi, **slope)
    assert (t_row[name["xi0"]] * arrays.excess == -1.0).sum() == 1
    if level is NonstatLevel.NS3:
        # |xi| < XI_EPS only at the events of one year: xi0 + xi1 phi is 0 exactly there
        k = int(np.argmax(arrays.phi_event))
        r = row(xi1=0.2, xi0=-(0.2 * arrays.phi_event[k]))
        small = np.abs(r[name["xi0"]] + r[name["xi1"]] * arrays.phi_event) < XI_EPS
        assert 0 < small.sum() < small.size
        # |xi| = 7e-9 only at the phi == 0 events: small, and near XI_EPS
        r = row(xi0=7e-9, xi1=0.2)
        small = np.abs(r[name["xi0"]] + r[name["xi1"]] * arrays.phi_event) < XI_EPS
        assert 0 < small.sum() < small.size
        # a NaN shape at the phi == 0 events beside t == -inf elsewhere: -inf
        assert (arrays.phi_event == 0.0).any()
        row(xi1=-np.inf)
    return np.array(rows)


@pytest.mark.parametrize("level", list(BRANCH_ROWS))
def test_row_kernel_equals_numpy_scalar_oracle_bit_for_bit(level):
    structure, data, cov, rows = stack_fixture(level)
    arrays = LikelihoodData.build(data, cov, structure)
    rng = np.random.default_rng(23)
    odd = np.repeat(rows[:6], 4, axis=0)
    odd[np.arange(odd.shape[0]), rng.integers(rows.shape[1], size=odd.shape[0])] = rng.choice(
        [np.inf, -np.inf, np.nan], size=odd.shape[0]
    )
    if structure.level in DIRECT_SCALE:  # 1 + xi z == 0 exactly at the largest excess
        edge = rows[:1].copy()
        edge[0, -2:] = arrays.excess.max(), -1.0
        odd = np.vstack([odd, edge])
    odd = np.vstack([odd, kernel_edge_rows(structure.level, arrays, rows[0])])
    with np.errstate(all="ignore"):
        for row in np.vstack([rows, odd]):
            got = _loglik_from_arrays(row, structure.level, arrays)
            want = loglik_row_kernel(row, structure.level, arrays)
            # a NaN's sign bit follows CPython's float specialization, not the data
            assert math.isnan(got) == math.isnan(want)
            if not math.isnan(want):
                assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


@pytest.mark.parametrize("level", list(BRANCH_ROWS))
def test_row_kernel_on_a_record_without_events(level):
    structure = LEVEL_STRUCTURES[level]
    data = make_data(1.0, {2000: [], 2001: []}, durations=[300, 365])
    arrays = LikelihoodData.build(data, make_cov([2000, 2001]), structure)
    for row in (EFFECTIVE_ROWS[level], BRANCH_ROWS[level][0]):
        row = np.array(row)
        want = loglik_row_kernel(row, structure.level, arrays)
        assert _loglik_from_arrays(row, structure.level, arrays) == want


@pytest.mark.parametrize("level", list(BRANCH_ROWS))
def test_stacked_logpost_equals_row_closure_bit_for_bit(level):
    structure, data, cov, rows = stack_fixture(level)
    priors = make_priorset(structure)
    row_closure = make_logpost(structure, data, cov, priors)
    want = [row_closure(r) for r in rows]
    logpost_rows = make_logpost_rows(structure, data, cov, priors)
    assert logpost_rows(rows).tolist() == want
    assert logpost_rows(rows[:1]).tolist() == want[:1]
    if level != "NS1":  # a gamma-prior parameter <= 0: -inf whatever the likelihood
        assert any(r[0] <= 0 and v == -math.inf for r, v in zip(rows, want))
    with pytest.raises(ValueError, match="prior set fitted for"):
        make_logpost_rows(structure, data, cov, make_priorset(ST if level != "ST" else NS1))
