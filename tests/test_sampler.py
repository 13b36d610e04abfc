import math

import numpy as np
import pytest
from scipy import stats

from oracles import run_chains_one_by_one
from surgebma.covariates import CovariateKind
from surgebma.models import ModelStructure, NonstatLevel, ParameterVector, make_logpost_rows
from surgebma.priors import PriorSet, PriorSpec, mle_fit
from surgebma.sampler import (
    ChainConfig,
    PosteriorEnsemble,
    check_proposal_factor,
    gelman_rubin,
    initial_proposal_factor,
    pool_and_thin,
    ram_step,
    run_chains,
)
from surgebma.simulate import SimulationSpec, simulate_record
from surgebma.utils import format_float, write_csv

ST = ModelStructure(NonstatLevel.ST, None)


class StubRng:
    """Fixed draws, for exercising single deterministic steps."""

    def __init__(self, normals, uniforms):
        self._normals = list(normals)
        self._uniforms = list(uniforms)

    def standard_normal(self, d):
        return np.array(self._normals.pop(0), dtype=float)

    def random(self):
        return self._uniforms.pop(0)


def stacked(logpost):
    """A (K, d) -> (K,) density from a row density, one row at a time."""
    return lambda rows: np.array([logpost(r) for r in rows])


def step_one(theta, lp, S, n, logpost, rng, **kw):
    """ram_step on a single chain; returns row, scalar log p, factor, accepted, alpha."""
    theta, lp, S, accepted, alpha = ram_step(
        theta[None], np.array([lp]), S[None], n, stacked(logpost), [rng], **kw
    )
    return theta[0], lp[0], S[0], accepted[0], alpha[0]


# ---------------------------------------------------------------------------
# ram_step
# ---------------------------------------------------------------------------


def test_ram_step_always_accepts_uphill():
    def logpost(x):
        return float(x[0])  # proposal with positive u is always uphill

    rng = StubRng([[1.0]], [0.999999])
    theta, lp, S, accepted, alpha = step_one(np.zeros(1), 0.0, np.eye(1), 1, logpost, rng)
    assert accepted and alpha == 1.0
    assert theta[0] == pytest.approx(1.0)


def test_ram_step_no_update_at_target_acceptance():
    target = 0.234
    c = math.log(target)

    def logpost(x):
        return c * float(x[0])  # step of +1 gives alpha exactly = target

    rng = StubRng([[1.0]], [0.5])
    _, _, S_new, _, alpha = step_one(
        np.zeros(1), 0.0, np.eye(1), 3, logpost, rng, target_acceptance=target
    )
    assert alpha == pytest.approx(target, abs=1e-15)
    assert np.allclose(S_new, np.eye(1), atol=1e-12)


def test_ram_step_nonfinite_proposal_is_rejection():
    def logpost(x):
        return -math.inf if x[0] > 0 else 0.0

    rng = StubRng([[1.0]], [0.0])
    theta, lp, S, accepted, alpha = step_one(np.zeros(1), 0.0, np.eye(1), 1, logpost, rng)
    assert not accepted and alpha == 0.0 and theta[0] == 0.0
    assert S[0, 0] < 1.0  # rejection shrinks the factor


def test_ram_step_steps_chains_independently():
    # chain 0 goes uphill and is accepted, chain 1 hits -inf and draws no uniform
    def logpost(x):
        return -math.inf if x[0] < 0 else float(x[0])

    rngs = [StubRng([[1.0]], [0.5]), StubRng([[-1.0]], [])]
    theta, lp, S, accepted, alpha = ram_step(
        np.zeros((2, 1)), np.zeros(2), np.stack([np.eye(1)] * 2), 1, stacked(logpost), rngs
    )
    assert accepted.tolist() == [True, False] and alpha.tolist() == [1.0, 0.0]
    assert theta.tolist() == [[1.0], [0.0]] and lp.tolist() == [1.0, 0.0]
    assert S[0, 0, 0] > 1.0 > S[1, 0, 0]
    assert rngs[0]._uniforms == [] and rngs[0]._normals == rngs[1]._normals == []


def test_check_proposal_factor():
    check_proposal_factor(np.stack([np.eye(2), np.array([[1.0, 0.0], [0.5, 2.0]])]))
    for bad in (np.array([[1.0, 0.5], [0.0, 1.0]]), np.diag([1.0, 0.0]), np.diag([1.0, np.nan])):
        with pytest.raises(ValueError, match="lower-triangular"):
            check_proposal_factor(bad)


def test_ram_acceptance_coerced_on_gaussian():
    def logpost(x):
        return -0.5 * float(x @ x)

    rng = np.random.default_rng(0)
    theta, lp = np.zeros(2), 0.0
    S = np.eye(2) * 0.1
    accepted = 0
    n_steps = 50_000
    for n in range(1, n_steps + 1):
        theta, lp, S, a, _ = step_one(theta, lp, S, n, logpost, rng)
        accepted += a
    assert abs(accepted / n_steps - 0.234) < 0.05


@pytest.mark.parametrize("d", [3, 6])
def test_ram_acceptance_coercion_other_dimensions(d):
    rng = np.random.default_rng(d)
    cov = np.eye(d) + 0.4 * (np.ones((d, d)) - np.eye(d))
    prec = np.linalg.inv(cov)

    def logpost(x):
        return -0.5 * float(x @ prec @ x)

    theta, lp = np.zeros(d), 0.0
    S = np.eye(d) * 0.1
    accepted = 0
    n_steps = 50_000
    for n in range(1, n_steps + 1):
        theta, lp, S, a, _ = step_one(theta, lp, S, n, logpost, rng)
        accepted += a
    assert abs(accepted / n_steps - 0.234) < 0.05


def test_ram_detailed_balance_frozen_adaptation():
    # 1-D standard normal; adapt 10k steps, then sample 100k frozen
    def logpost(x):
        return -0.5 * float(x @ x)

    rng = np.random.default_rng(1)
    theta, lp = np.zeros(1), 0.0
    S = np.eye(1)
    for n in range(1, 10_001):
        theta, lp, S, _, _ = step_one(theta, lp, S, n, logpost, rng)
    draws = np.empty(100_000)
    for i in range(draws.size):
        theta, lp, S, _, _ = step_one(theta, lp, S, 10_001 + i, logpost, rng, adapt=False)
        draws[i] = theta[0]
    stat, _ = stats.kstest(draws, stats.norm.cdf)
    assert stat < 0.02


# ---------------------------------------------------------------------------
# run_chains
# ---------------------------------------------------------------------------


def toy_logpost(row: np.ndarray) -> float:
    lam0, sig0, xi0 = row
    if lam0 <= 0 or sig0 <= 0:
        return -math.inf
    return (
        -0.5 * ((lam0 - 0.01) / 0.002) ** 2
        - 0.5 * ((sig0 - 0.1) / 0.02) ** 2
        - 0.5 * (xi0 / 0.1) ** 2
    )


def test_run_chains_deterministic_given_seed():
    start = np.array([0.01, 0.1, 0.0])
    config = ChainConfig(n_iterations=500, n_chains=2, seed=7, burn_in=100, thinned_size=100)
    a = run_chains(ST, stacked(toy_logpost), start, config)
    b = run_chains(ST, stacked(toy_logpost), start, config)
    assert np.array_equal(a.chains, b.chains)

    c = run_chains(ST, stacked(toy_logpost), start, ChainConfig(
        n_iterations=500, n_chains=2, seed=8, burn_in=100, thinned_size=100))
    assert not np.array_equal(a.chains, c.chains)


def test_run_chains_requires_finite_start():
    start = np.array([-1.0, 0.1, 0.0])
    config = ChainConfig(n_iterations=100, burn_in=10, thinned_size=10)
    with pytest.raises(ValueError, match="non-finite"):
        run_chains(ST, stacked(toy_logpost), start, config)
    with pytest.raises(ValueError, match="expected 3 start values"):
        run_chains(ST, stacked(toy_logpost), start[:2], config)


@pytest.mark.parametrize("n_chains", [1, 3])
def test_lockstep_chains_equal_one_chain_at_a_time(n_chains):
    # the initial factor steps lam0 by its own size, so early proposals often
    # land where the density is -inf and get alpha = 0 (no uniform drawn)
    calls = []

    def density(rows):
        values = stacked(toy_logpost)(rows)
        calls.append((rows.shape[0], int(np.sum(values == -math.inf))))
        return values

    start = np.array([0.01, 0.1, 0.0])
    config = ChainConfig(n_iterations=400, n_chains=n_chains, seed=21, burn_in=100, thinned_size=100)
    raw = run_chains(ST, density, start, config)
    chains, acceptance = run_chains_one_by_one(toy_logpost, start, config)
    assert np.array_equal(raw.chains, chains)
    assert np.array_equal(raw.acceptance, acceptance)
    assert len(calls) == 1 + config.n_iterations  # the start, then one call per iteration
    assert {k for k, _ in calls} == {1} | {n_chains}
    assert sum(n for _, n in calls) > 0


# ---------------------------------------------------------------------------
# gelman_rubin
# ---------------------------------------------------------------------------


def test_psrf_near_one_for_identical_streams():
    rng = np.random.default_rng(2)
    stream = rng.standard_normal((1000, 2))
    chains = np.stack([stream] * 4)
    psrf = gelman_rubin(chains, burn_in=0)
    assert np.all(psrf < 1.01)


def test_psrf_large_for_disjoint_chains():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((1, 500, 1)) + 10.0
    b = rng.standard_normal((1, 500, 1)) - 10.0
    psrf = gelman_rubin(np.concatenate([a, b]), burn_in=0)
    assert psrf[0] > 1.1 * 5


def test_psrf_affine_invariance():
    rng = np.random.default_rng(4)
    chains = rng.standard_normal((4, 800, 3))
    base = gelman_rubin(chains, burn_in=100)
    transformed = chains * np.array([2.0, 0.5, 10.0]) + np.array([1.0, -3.0, 0.0])
    assert np.allclose(gelman_rubin(transformed, burn_in=100), base, rtol=1e-10)


def test_psrf_degenerate_chains_error():
    chains = np.zeros((2, 100, 1))
    with pytest.raises(ValueError, match="degenerate"):
        gelman_rubin(chains, burn_in=0)


def test_psrf_converged_ram_chains():
    def logpost(x):
        return -0.5 * float(x @ x)

    rngs = [np.random.default_rng(50 + c) for c in range(4)]
    theta, lp = np.zeros((4, 2)), np.zeros(4)
    S = np.stack([np.eye(2)] * 4)
    chains = np.empty((4, 4000, 2))
    for n in range(1, 4001):
        theta, lp, S, _, _ = ram_step(theta, lp, S, n, stacked(logpost), rngs)
        chains[:, n - 1] = theta
    psrf = gelman_rubin(chains, burn_in=400)
    assert np.all(psrf < 1.05)


# ---------------------------------------------------------------------------
# pool_and_thin
# ---------------------------------------------------------------------------


def make_raw(chains, config):
    return type(
        "Raw",
        (),
        {
            "structure": ST,
            "param_names": tuple(f"p{i}" for i in range(chains.shape[2])),
            "chains": chains,
            "acceptance": np.full(chains.shape[0], 0.3),
            "config": config,
        },
    )()


def test_pool_and_thin_sizes_and_membership():
    rng = np.random.default_rng(5)
    chains = rng.standard_normal((4, 1000, 2)) * 0.01 + 0.5
    config = ChainConfig(n_iterations=1000, n_chains=4, burn_in=100, thinned_size=500, seed=0)
    raw = make_raw(chains, config)
    ens = pool_and_thin(raw, np.random.default_rng(0))
    assert ens.draws.shape == (500, 2)
    pooled = chains[:, 100:, :].reshape(-1, 2)
    # every draw appears in the pool
    assert all(np.any(np.all(pooled == row, axis=1)) for row in ens.draws[:20])


def test_pool_and_thin_full_size_is_permutation():
    rng = np.random.default_rng(6)
    chains = rng.standard_normal((2, 200, 1)) * 0.01
    config = ChainConfig(n_iterations=200, n_chains=2, burn_in=0, thinned_size=400, seed=0)
    ens = pool_and_thin(make_raw(chains, config), np.random.default_rng(1))
    assert np.allclose(np.sort(ens.draws[:, 0]), np.sort(chains[:, :, 0].ravel()))


def test_pool_and_thin_mean_close_to_pool_mean():
    rng = np.random.default_rng(7)
    chains = rng.standard_normal((4, 5000, 1))
    config = ChainConfig(n_iterations=5000, n_chains=4, burn_in=500, thinned_size=1000, seed=0)
    ens = pool_and_thin(make_raw(chains, config), np.random.default_rng(2))
    pool = chains[:, 500:, :].reshape(-1)
    se = pool.std(ddof=1) / math.sqrt(1000)
    assert abs(ens.draws.mean() - pool.mean()) < 4.0 * se


def test_pool_and_thin_gate():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((1, 1000, 1)) + 5.0
    b = rng.standard_normal((1, 1000, 1)) - 5.0
    chains = np.concatenate([a, b])
    config = ChainConfig(n_iterations=1000, n_chains=2, burn_in=100, thinned_size=100, seed=0)
    raw = make_raw(chains, config)
    with pytest.raises(RuntimeError, match="p0"):
        pool_and_thin(raw, np.random.default_rng(3))
    ens = pool_and_thin(raw, np.random.default_rng(3), force=True)
    assert ens.diagnostics["forced"] and ens.diagnostics["psrf_gate_failed"] == ["p0"]


# ---------------------------------------------------------------------------
# end-to-end on synthetic data
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def st_calibration():
    truth = ParameterVector(lam0=0.012, sig0=0.12, xi0=0.1)
    record = simulate_record(SimulationSpec(truth, ST, None, 1814, 2013, 1.0, seed=3))
    priors = PriorSet(
        ST,
        {
            "lam0": PriorSpec("gamma", 4.0, 300.0),
            "sig0": PriorSpec("gamma", 3.0, 20.0),
            "xi0": PriorSpec("normal", 0.05, 0.2),
        },
    )
    logpost_rows = make_logpost_rows(ST, record, None, priors)
    mle = mle_fit(ST, record, None, rng=np.random.default_rng(0))
    config = ChainConfig(n_iterations=4000, n_chains=4, burn_in=400, thinned_size=1000, seed=11)
    raw = run_chains(ST, logpost_rows, mle, config)
    return truth, record, raw


def test_posterior_mean_near_truth(st_calibration):
    truth, record, raw = st_calibration
    ens = pool_and_thin(raw, np.random.default_rng(4))
    lam_draws = ens.draws[:, list(raw.param_names).index("lam0")]
    # Monte-Carlo SE of the posterior mean, inflated for autocorrelation
    se = lam_draws.std(ddof=1) / math.sqrt(200)
    n_years = len(record.years)
    sampling_se = truth.lam0 / math.sqrt(truth.lam0 * 365 * n_years)
    assert abs(lam_draws.mean() - truth.lam0) < 3.0 * (se + sampling_se)


def test_ensemble_csv_roundtrip(tmp_path, st_calibration):
    _, _, raw = st_calibration
    ens = pool_and_thin(raw, np.random.default_rng(5))
    csv_path = tmp_path / "ens.csv"
    diag_path = tmp_path / "ens.json"
    ens.save(csv_path, diag_path)
    back = PosteriorEnsemble.load(csv_path, ST, diag_path)
    assert back.param_names == ens.param_names
    assert np.array_equal(back.draws, ens.draws)
    assert back.diagnostics["seed"] == 11
    with pytest.raises(ValueError, match="not those of NS1-time"):
        PosteriorEnsemble.load(csv_path, ModelStructure(NonstatLevel.NS1, CovariateKind.TIME))


def test_ensemble_csv_text_is_format_float_of_each_value(tmp_path):
    draws = np.array([[0.1, -0.0, 1.0 / 3.0], [5e-324, 1e300, -2.5e-17], [np.inf, -np.inf, np.nan]])
    ens = PosteriorEnsemble(ST, ST.active_params, draws)
    ens.save(tmp_path / "ens.csv")
    write_csv(tmp_path / "want.csv", ST.active_params,
              ([format_float(v) for v in row] for row in draws))
    assert (tmp_path / "ens.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    back = PosteriorEnsemble.load(tmp_path / "ens.csv", ST).draws
    assert back.shape == draws.shape
    assert np.array_equal(back, draws, equal_nan=True)
    assert np.signbit(back[0, 1])


def test_initial_proposal_factor_scales_with_magnitude():
    S = initial_proposal_factor(np.array([0.01, 2.0]))
    assert S[0, 0] == pytest.approx(0.01)  # floor of 0.1 scaled by 0.1
    assert S[1, 1] == pytest.approx(0.2)


def test_chain_config_refuses_thinned_size_above_the_pool():
    # 2 chains x (400 - 50) post-burn-in iterations pool 700 draws
    ChainConfig(n_iterations=400, n_chains=2, burn_in=50, thinned_size=700)
    with pytest.raises(ValueError, match="thinned_size 701 exceeds the pooled sample"):
        ChainConfig(n_iterations=400, n_chains=2, burn_in=50, thinned_size=701)
