"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 7 (reproduction of the published Norfolk numbers) needs the real
Sewells Point hourly record and covariate files, which cannot ship with the
repository; it is skipped unless SURGEBMA_NORFOLK_CONFIG points at a run
configuration wired to that data.
"""

import math
import os
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from oracles import brute_force_decluster, empirical_return_level, gpd_logpdf, naive_loglik
from surgebma.cli import main
from surgebma.covariates import CovariateSeries
from surgebma.evidence import aggregate_by_covariate, bma_weights, bridge_evidence
from surgebma.hazard import ensemble_return_levels
from surgebma.models import (
    ModelStructure,
    NonstatLevel,
    all_structures,
    make_loglik,
    make_logpost,
    make_logpost_rows,
)
from surgebma.preprocess import DailySeries, ExceedanceSet, decluster
from surgebma.priors import fit_all_priors, load_mle_table, mle_fit
from surgebma.sampler import ChainConfig, PosteriorEnsemble, gelman_rubin, pool_and_thin, ram_step, run_chains
from surgebma.simulate import SimulationSpec, simulate_record, synthetic_covariates
from surgebma.utils import load_json

ST = ModelStructure(NonstatLevel.ST, None)


def report(number, name, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


# ---------------------------------------------------------------------------


def test_criterion_1_gpd_density_normalization():
    t0 = time.perf_counter()
    mu = 1.0
    for xi in (-0.3, -1e-9, 0.0, 1e-9, 0.4):
        for sig in (0.1, 1.0):
            upper = mu - sig / xi if xi < -1e-12 else np.inf
            if np.isfinite(upper):
                upper = min(upper, mu + 1000.0 * sig)
            val, _ = quad(lambda x: math.exp(gpd_logpdf(x, mu, sig, xi)), mu, upper, limit=200)
            assert abs(val - 1.0) < 1e-6, (xi, sig, val)
    report(1, "GPD density normalization", t0, 1.0)


def test_criterion_2_likelihood_matches_naive_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    structures = all_structures()
    for k in range(50):
        years = np.arange(1990, 1990 + rng.integers(3, 15))
        raw = rng.uniform(size=years.size)
        raw = (raw - raw.min()) / (raw.max() - raw.min())
        cov = CovariateSeries(int(years[0]), raw)
        structure = structures[rng.integers(0, len(structures))]

        counts, durations, dates, heights = [], [], [], []
        for y in years:
            n = int(rng.integers(0, 6))
            for j in range(n):
                dates.append(np.datetime64(f"{y}-01-01") + np.timedelta64(3 * j, "D"))
                heights.append(1.0 + float(rng.exponential(0.15)))
            counts.append(n)
            durations.append(int(rng.integers(250, 366)))
        data = ExceedanceSet(1.0, years, durations, counts, dates, heights)

        direct_scale = structure.level in (NonstatLevel.ST, NonstatLevel.NS1)
        named = dict(
            lam0=rng.uniform(0.005, 0.03),
            lam1=rng.normal(0, 0.003) if structure.level is not NonstatLevel.ST else 0.0,
            sig0=rng.uniform(0.08, 0.4) if direct_scale else rng.normal(-1.8, 0.4),
            sig1=rng.normal(0, 0.2) if structure.level in (NonstatLevel.NS2, NonstatLevel.NS3) else 0.0,
            xi0=rng.normal(0.1, 0.15),
            xi1=rng.normal(0, 0.08) if structure.level is NonstatLevel.NS3 else 0.0,
        )
        row = np.array([named[name] for name in structure.active_params])
        got = make_loglik(structure, data, cov)(row)
        want = naive_loglik(row, structure, data, cov)
        if math.isinf(want):
            assert got == want
        else:
            assert abs(got - want) <= 1e-10 * abs(want), (k, structure.id)
    report(2, "likelihood equals naive double-loop oracle", t0, 5.0)


def test_criterion_3_sampler_on_correlated_gaussian():
    t0 = time.perf_counter()
    mean_true = np.array([1.0, 2.0, 3.0])
    cov_true = np.array([[1.0, 0.6, 0.3], [0.6, 2.0, 0.5], [0.3, 0.5, 0.5]])
    prec = np.linalg.inv(cov_true)
    sd_true = np.sqrt(np.diag(cov_true))

    def logpost(x):
        d = x - mean_true
        return -0.5 * float(d @ prec @ d)

    def logpost_rows(rows):
        return np.array([logpost(r) for r in rows])

    n_steps, burn = 50_000, 5_000
    rngs = [np.random.default_rng(300 + c) for c in range(4)]
    theta = np.zeros((4, 3))
    lp = logpost_rows(theta)
    S = np.stack([np.eye(3) * 0.5] * 4)
    chains = np.empty((4, n_steps, 3))
    accepted = np.zeros(4)
    for n in range(1, n_steps + 1):
        theta, lp, S, a, _ = ram_step(theta, lp, S, n, logpost_rows, rngs)
        chains[:, n - 1] = theta
        accepted += a
    acceptance = accepted / n_steps

    assert np.all(np.abs(acceptance - 0.234) < 0.05), acceptance
    psrf = gelman_rubin(chains, burn_in=burn)
    assert np.all(psrf < 1.05), psrf

    pooled = chains[:, burn:, :].reshape(-1, 3)
    mean_err = np.abs(pooled.mean(axis=0) - mean_true) / sd_true
    sd_err = np.abs(pooled.std(axis=0, ddof=1) / sd_true - 1.0)
    assert np.all(mean_err < 0.02), mean_err
    assert np.all(sd_err < 0.02), sd_err
    report(3, "RAM sampler moments/acceptance/PSRF", t0, 30.0)


def test_criterion_4_bridge_evidence_matches_closed_form():
    t0 = time.perf_counter()
    n, sigma, tau = 25, 1.0, 2.0
    rng = np.random.default_rng(99)
    x = rng.normal(0.7, sigma, size=n)
    cov = sigma**2 * np.eye(n) + tau**2 * np.ones((n, n))
    truth = float(stats.multivariate_normal.logpdf(x, np.zeros(n), cov))

    v_post = 1.0 / (n / sigma**2 + 1.0 / tau**2)
    m_post = v_post * x.sum() / sigma**2

    const = -0.5 * n * math.log(2 * math.pi * sigma**2)
    sumsq = float(np.sum(x * x))

    def log_density(row):
        theta = row[0]
        loglik = const - 0.5 * (sumsq - 2 * theta * x.sum() + n * theta * theta) / sigma**2
        return loglik - 0.5 * math.log(2 * math.pi * tau**2) - 0.5 * theta * theta / tau**2

    for repeat in range(10):
        draw_rng = np.random.default_rng(1000 + repeat)
        draws = draw_rng.normal(m_post, math.sqrt(v_post), size=(4000, 1))
        ens = PosteriorEnsemble(ST, draws, {})
        est = bridge_evidence(ens, log_density, np.random.default_rng(2000 + repeat))
        assert abs(est.log_evidence - truth) < 0.05, (repeat, est.log_evidence, truth)
    report(4, "bridge sampling matches conjugate evidence", t0, 30.0)


def test_criterion_5_return_level_matches_simulation():
    t0 = time.perf_counter()
    mu, lam0, sig0 = 1.0, 0.01, 0.2
    for i, xi in enumerate((-0.2, 0.0, 0.3)):
        theta = [lam0, sig0, xi]
        ensemble = PosteriorEnsemble(ST, np.array([theta]))
        for j, period in enumerate((20.0, 50.0, 100.0)):
            rng = np.random.default_rng(7000 + 10 * i + j)
            emp = empirical_return_level(theta, ST, 0.0, mu, period, 200_000, rng)
            # the projection's path: the one draw of a one-row ensemble
            levels = ensemble_return_levels(ensemble, None, 2065, mu, period)
            assert levels.samples.size == 1 and levels.n_flagged == levels.n_clamped == 0
            ana = float(levels.samples[0])
            assert abs(emp - ana) <= 0.03 * abs(ana), (xi, period, emp, ana)
    report(5, "analytic vs simulated return levels", t0, 60.0)


def test_criterion_6_identifiability_of_stationary_truth():
    t0 = time.perf_counter()
    from importlib import resources

    pack = load_mle_table(resources.files("surgebma").joinpath("data/mle_fixtures.json"))
    priors = fit_all_priors(pack)
    covs = synthetic_covariates(1864, 2013, (1864, 2013))
    truth = [0.008, 0.12, 0.1]  # ST: lam0, sig0, xi0

    def trial(seed):
        record = simulate_record(SimulationSpec(truth, ST, None, 1864, 2013, 1.0, seed=seed))
        estimates = []
        for k, s in enumerate(all_structures()):
            cov = None if s.level is NonstatLevel.ST else covs[s.covariate]
            mle = mle_fit(s, record, cov, rng=np.random.default_rng(seed * 1000 + k))
            config = ChainConfig(
                n_iterations=2500, n_chains=3, burn_in=500, thinned_size=1000, seed=seed * 100 + k
            )
            raw = run_chains(s, make_logpost_rows(s, record, cov, priors[s.id]), mle, config)
            ens = pool_and_thin(raw, np.random.default_rng(seed * 7 + k), force=True)
            estimates.append(
                bridge_evidence(
                    ens,
                    make_logpost(s, record, cov, priors[s.id]),
                    np.random.default_rng(seed * 13 + k),
                )
            )
        return aggregate_by_covariate(bma_weights(estimates))

    wins = 0
    for seed in range(10):
        aggregated = trial(seed)
        best = max(aggregated, key=aggregated.get)
        wins += best == "ST"
        print(f"  trial {seed}: best={best} ST={aggregated['ST']:.3f}")
    assert wins >= 8, f"stationary truth recovered in only {wins}/10 trials"
    report(6, "BMA identifies stationary truth", t0, 1200.0)


def test_criterion_7_published_norfolk_numbers():
    config_path = os.environ.get("SURGEBMA_NORFOLK_CONFIG")
    if not config_path:
        pytest.skip(
            "criterion 7 skipped: set SURGEBMA_NORFOLK_CONFIG to a run config wired "
            "to the real Sewells Point record and covariate files (not redistributable)"
        )
    t0 = time.perf_counter()
    out_dir = Path(config_path).parent / "norfolk_out"
    code = main(["run-all", "--config", config_path, "--output-dir", str(out_dir)])
    assert code == 0

    table1 = {
        line.split(",")[0]: float(line.split(",")[1])
        for line in (out_dir / "table1.csv").read_text().splitlines()[1:]
    }
    published = {"time": 0.210, "temperature": 0.187, "sealevel": 0.187, "nao": 0.188, "ST": 0.228}
    for key, value in published.items():
        assert abs(table1[key] - value) <= 0.05, (key, table1[key])

    per_cov = (out_dir / "weights_by_covariate.csv").read_text().splitlines()[1:]
    pattern = {"ST": 0.55, "NS1": 0.25, "NS2": 0.15, "NS3": 0.05}
    for line in per_cov:
        cells = line.split(",")
        for level, target in zip(("ST", "NS1", "NS2", "NS3"), cells[1:]):
            assert abs(float(target) - pattern[level]) <= 0.10, line

    rows = (out_dir / "table_s2.csv").read_text().splitlines()
    t100 = next(r for r in rows if r.startswith("100,")).split(",")
    median = float(t100[4])
    assert abs(median - 2.360) <= 0.15
    report(7, "published Norfolk weights and quantiles", t0, 86400.0)


def test_criterion_8_run_all_is_deterministic(tmp_path):
    t0 = time.perf_counter()
    assert main(
        ["simulate", "station", "--out", str(tmp_path / "station.csv"),
         "--first-year", "1974", "--last-year", "2013", "--seed", "33"]
    ) == 0
    assert main(
        ["simulate", "covariates", "--out", str(tmp_path / "cov"),
         "--first-year", "1974", "--last-year", "2013", "--projection-year", "2040",
         "--seed", "34"]
    ) == 0
    (tmp_path / "run.ini").write_text(
        """
[station]
hourly_csv = station.csv

[window]
calibration_start = 1974
calibration_end = 2013
projection_year = 2040

[covariates]
temperature_hist = cov/temperature_hist.csv
temperature_proj = cov/temperature_proj.csv
sealevel_hist = cov/sealevel_hist.csv
sealevel_proj = cov/sealevel_proj.csv
nao_hist = cov/nao_hist.csv
nao_proj = cov/nao_proj.csv

[sampler]
n_iterations = 1200
n_chains = 2
burn_in = 200
thinned_size = 1000
psrf_gate = 2.0

[projection]
return_periods = 10, 100
mixture_size = 20000

[run]
seed = 17
output_dir = out
"""
    )
    config = str(tmp_path / "run.ini")
    assert main(["run-all", "--config", config, "--output-dir", str(tmp_path / "out_a")]) == 0
    assert main(["run-all", "--config", config, "--output-dir", str(tmp_path / "out_b")]) == 0

    files_a = sorted(
        p.relative_to(tmp_path / "out_a")
        for p in (tmp_path / "out_a").rglob("*")
        if p.is_file()
    )
    files_b = sorted(
        p.relative_to(tmp_path / "out_b")
        for p in (tmp_path / "out_b").rglob("*")
        if p.is_file()
    )
    assert files_a == files_b
    for rel in files_a:
        if rel.name == "run_metadata.json":
            continue  # timestamps are confined to this metadata file
        a = (tmp_path / "out_a" / rel).read_bytes()
        b = (tmp_path / "out_b" / rel).read_bytes()
        assert a == b, f"artifact differs between runs: {rel}"
    report(8, "run-all reruns are byte-identical", t0, 300.0)


def test_criterion_9_declustering_invariants_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    sep = 3
    for trial in range(1000):
        n_days = int(rng.integers(30, 250))
        vals = rng.normal(0.3, 0.5, size=n_days)
        start = np.datetime64("2000-01-01", "D") + np.timedelta64(int(rng.integers(0, 3000)), "D")
        dates = np.arange(start, start + n_days)
        daily = DailySeries(dates[0], vals)
        threshold = 0.8
        out = decluster(daily, threshold, sep)

        day_ints = out.dates.astype(np.int64)
        heights = out.heights
        # pairwise separation and threshold
        assert np.all(np.diff(day_ints) >= sep)
        assert np.all(heights >= threshold)

        # cluster-max retention against the independent O(n^2) oracle
        exc = [(int(d), float(v)) for d, v in zip(dates.astype(np.int64), vals) if v >= threshold]
        expected = brute_force_decluster([d for d, _ in exc], [v for _, v in exc], sep)
        got = sorted(zip(day_ints.tolist(), heights.tolist()))
        assert got == expected

        # idempotence: redecluster the retained records
        if out.n_events:
            span = int(day_ints.max() - day_ints.min()) + 1
            vals2 = np.full(span, threshold - 1.0)
            vals2[day_ints - day_ints.min()] = heights
            daily2 = DailySeries(out.dates[0], vals2)
            out2 = decluster(daily2, threshold, sep)
            got2 = list(zip(out2.dates.astype(np.int64).tolist(), out2.heights.tolist()))
            assert got2 == list(zip(day_ints.tolist(), heights.tolist()))
    report(9, "declustering invariants on 1000 random series", t0, 10.0)
