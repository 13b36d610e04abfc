import math

import numpy as np
import pytest

from surgebma.covariates import CovariateKind, CovariateSeries
from surgebma.evidence import BmaWeights
from surgebma.hazard import (
    DEFAULT_QUANTILE_LEVELS,
    DEFAULT_RETURN_PERIODS,
    HazardReport,
    ReturnLevelEnsemble,
    bma_mixture,
    ensemble_return_levels,
    hazard_report,
    load_return_levels,
    return_level,
    save_return_levels,
    write_curve_json,
    write_quantile_table_csv,
)
from surgebma.models import ModelStructure, NonstatLevel
from surgebma.sampler import PosteriorEnsemble
from surgebma.simulate import synthetic_covariates
from surgebma.utils import format_float, write_csv

ST = ModelStructure(NonstatLevel.ST, None)
NS1 = ModelStructure(NonstatLevel.NS1, CovariateKind.TIME)
NS3 = ModelStructure(NonstatLevel.NS3, CovariateKind.TIME)


# ---------------------------------------------------------------------------
# return_level
# ---------------------------------------------------------------------------


def test_return_level_exponential_branch():
    theta = [0.01, 0.2, 0.0]
    # lam_yr = 3.6525, T = 100 -> z = 1 + 0.2 ln(365.25)
    z = return_level(theta, ST, 0.0, 1.0, 100.0)
    assert z == pytest.approx(1.0 + 0.2 * math.log(365.25), rel=1e-12)


def test_return_level_equals_threshold_at_unit_rate():
    lam0 = 0.01
    period = 1.0 / (lam0 * 365.25) * (1.0 + 1e-13)
    for xi in (0.3, 0.0, -0.2):
        theta = [lam0, 0.2, xi]
        assert return_level(theta, ST, 0.0, 1.0, period) == pytest.approx(1.0, abs=1e-9)


def test_return_level_below_threshold_regime_errors():
    theta = [0.001, 0.2, 0.1]
    with pytest.raises(ValueError, match="below threshold regime"):
        return_level(theta, ST, 0.0, 1.0, 2.0)  # T*lam_yr = 0.73 < 1


def test_return_level_monotonicity():
    theta = [0.01, 0.2, 0.1]
    levels = [return_level(theta, ST, 0.0, 1.0, t) for t in DEFAULT_RETURN_PERIODS]
    assert np.all(np.diff(levels) > 0)
    # increasing in scale and rate
    up_sig = return_level([0.01, 0.3, 0.1], ST, 0.0, 1.0, 100)
    up_lam = return_level([0.02, 0.2, 0.1], ST, 0.0, 1.0, 100)
    base = return_level(theta, ST, 0.0, 1.0, 100)
    assert up_sig > base and up_lam > base


def test_return_level_bounded_for_negative_shape():
    theta = [0.01, 0.2, -0.25]
    bound = 1.0 + 0.2 / 0.25
    for t in (10, 100, 1000, 100000):
        assert return_level(theta, ST, 0.0, 1.0, t) < bound


def test_return_level_continuous_across_xi_branch():
    theta_pos = [0.01, 0.2, 5e-9]
    theta_zero = [0.01, 0.2, 0.0]
    a = return_level(theta_pos, ST, 0.0, 1.0, 100)
    b = return_level(theta_zero, ST, 0.0, 1.0, 100)
    assert a == pytest.approx(b, abs=1e-6)


# ---------------------------------------------------------------------------
# ensemble_return_levels
# ---------------------------------------------------------------------------


def make_ensemble(structure, rows):
    rows = np.asarray(rows, dtype=float)
    return PosteriorEnsemble(structure, structure.active_params, rows, {})


def test_st_ensemble_year_invariant():
    ens = make_ensemble(ST, [[0.01, 0.2, 0.1], [0.012, 0.15, 0.0]])
    cov = synthetic_covariates(2000, 2070, (2000, 2065))[CovariateKind.TIME]
    a = ensemble_return_levels(ens, cov, 2020, 1.0, 100)
    b = ensemble_return_levels(ens, cov, 2065, 1.0, 100)
    assert np.allclose(a.samples, b.samples)


def test_single_draw_ensemble_matches_scalar():
    ens = make_ensemble(ST, [[0.01, 0.2, 0.1]])
    out = ensemble_return_levels(ens, None, 2065, 1.0, 100)
    want = return_level([0.01, 0.2, 0.1], ST, 0.0, 1.0, 100)
    assert out.samples.size == 1
    assert out.samples[0] == pytest.approx(want, rel=1e-12)


def test_ensemble_flags_and_clamps_bad_rates():
    # second draw's rate turns negative at phi=1, third is barely positive
    rows = [[0.01, 0.001, 0.2, 0.1], [0.005, -0.02, 0.2, 0.1], [0.004, -0.0039, 0.2, 0.1]]
    ens = make_ensemble(NS1, rows)
    cov = synthetic_covariates(2000, 2065, (2000, 2065))[CovariateKind.TIME]
    out = ensemble_return_levels(ens, cov, 2065, 1.0, 100)
    assert out.n_clamped == 1
    assert out.n_flagged == 1
    assert out.samples.size == 2

    all_bad = make_ensemble(NS1, [[0.005, -0.02, 0.2, 0.1]])
    with pytest.raises(ValueError, match="all draws flagged"):
        ensemble_return_levels(all_bad, cov, 2065, 1.0, 100)


def test_ns3_ensemble_equals_per_draw_return_level_bit_for_bit():
    # both routes resolve (rate, scale, shape) through the same rule
    rng = np.random.default_rng(8)
    n = 1000
    rows = np.column_stack(
        [
            rng.uniform(0.008, 0.012, n),
            rng.normal(0.0, 0.001, n),
            rng.normal(np.log(0.12), 0.3, n),
            rng.normal(0.0, 0.4, n),
            rng.normal(0.1, 0.1, n),
            rng.normal(0.0, 0.1, n),
        ]
    )
    years = np.array([2000, 2001, 2002])
    cov = CovariateSeries(CovariateKind.TIME, years, np.array([0.0, 1.0, 1.61]), (2000, 2001))
    out = ensemble_return_levels(make_ensemble(NS3, rows), cov, 2002, 1.0, 100)
    assert out.n_flagged == 0 and out.n_clamped == 0
    want = np.array([return_level(row, NS3, 1.61, 1.0, 100) for row in rows])
    assert out.samples.tobytes() == want.tobytes()


def test_ensemble_median_nondecreasing_in_period():
    rng = np.random.default_rng(0)
    rows = np.column_stack(
        [rng.uniform(0.008, 0.012, 200), rng.uniform(0.1, 0.25, 200), rng.normal(0.1, 0.05, 200)]
    )
    ens = make_ensemble(ST, rows)
    medians = [
        float(np.median(ensemble_return_levels(ens, None, 2065, 1.0, t).samples))
        for t in DEFAULT_RETURN_PERIODS
    ]
    assert np.all(np.diff(medians) >= 0)


# ---------------------------------------------------------------------------
# mixture
# ---------------------------------------------------------------------------


def rl(samples, source="X", year=2065, period=100.0):
    return ReturnLevelEnsemble(year, period, np.asarray(samples, dtype=float), source)


def test_mixture_single_model_resamples_it():
    pool = np.linspace(1.0, 2.0, 50)
    weights = BmaWeights({"A": 1.0}, {"A": 1.0})
    out = bma_mixture({"A": rl(pool)}, weights, 5000, np.random.default_rng(1))
    assert set(np.unique(out.samples)).issubset(set(pool))
    assert out.source == "BMA"


def test_mixture_of_point_masses_has_weighted_mean():
    weights = BmaWeights({"A": 0.75, "B": 0.25}, {"A": 0.5, "B": 0.5})
    ensembles = {"A": rl([2.0]), "B": rl([3.0])}
    out = bma_mixture(ensembles, weights, 100_000, np.random.default_rng(2))
    se = math.sqrt(0.75 * 0.25) * 1.0 / math.sqrt(100_000)
    assert abs(out.samples.mean() - 2.25) < 3.0 * se


def test_mixture_uniform_weights_over_identical_ensembles():
    rng = np.random.default_rng(3)
    pool = rng.normal(2.0, 0.3, size=2000)
    ids = ["A", "B", "C"]
    weights = BmaWeights({i: 1 / 3 for i in ids}, {i: 1 / 3 for i in ids})
    out = bma_mixture({i: rl(pool) for i in ids}, weights, 50_000, rng)
    for q in (0.05, 0.5, 0.95):
        a = np.quantile(pool, q)
        b = np.quantile(out.samples, q)
        assert abs(a - b) < 0.03


def test_mixture_validates_coverage():
    weights = BmaWeights({"A": 0.5, "B": 0.5}, {"A": 0.5, "B": 0.5})
    with pytest.raises(ValueError, match="different structures"):
        bma_mixture({"A": rl([1.0])}, weights, 100, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_point_mass_quantiles_collapse():
    mixtures = {t: rl(np.full(100, 2.5), period=t) for t in (2.0, 100.0)}
    report = hazard_report(mixtures)
    assert np.allclose(report.table, 2.5)


def test_report_rows_nondecreasing_and_shape():
    rng = np.random.default_rng(4)
    mixtures = {
        float(t): rl(rng.normal(2 + math.log(t), 0.3, size=4000), period=float(t))
        for t in DEFAULT_RETURN_PERIODS
    }
    report = hazard_report(mixtures)
    assert report.table.shape == (9, 7)
    assert np.all(np.diff(report.table, axis=1) >= 0)  # across quantile levels
    assert report.levels == DEFAULT_QUANTILE_LEVELS
    assert np.all(np.diff(report.medians) > 0)  # across periods for this family
    lo_hi = report.credible_range_90()
    assert np.all(lo_hi[:, 0] <= report.medians) and np.all(report.medians <= lo_hi[:, 1])


def test_report_csv_and_curve_json(tmp_path):
    rng = np.random.default_rng(5)
    mixtures = {
        float(t): rl(rng.normal(2.0, 0.2, size=500), period=float(t))
        for t in DEFAULT_RETURN_PERIODS
    }
    report = hazard_report(mixtures)
    csv_path = tmp_path / "table_s2.csv"
    write_quantile_table_csv(report, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "return_period_years,q2.5,q5,q25,q50,q75,q95,q97.5"
    assert len(lines) == 10  # 9 period rows

    import json

    curve_path = tmp_path / "curve.json"
    write_curve_json(report, curve_path)
    curve = json.loads(curve_path.read_text())
    assert curve["year"] == 2065
    assert [row["T"] for row in curve["curve"]] == sorted(DEFAULT_RETURN_PERIODS)
    assert set(curve["curve"][0]) == {"T", "q2.5", "q5", "q25", "q50", "q75", "q95", "q97.5"}


def test_return_level_csv_text_is_format_float_of_each_value(tmp_path):
    samples = [np.array([1.0 / 3.0, -0.0, 5e-324, 1e300]), np.array([0.7]), np.array([2.5, np.inf])]
    columns = {t: ReturnLevelEnsemble(2065, t, v, "ST", 1, 2)
               for t, v in zip((2.0, 10.0, 500.0), samples)}
    save_return_levels(columns, tmp_path / "got.csv")
    rows = [[format_float(v[i]) if i < v.size else "" for v in samples] for i in range(4)]
    write_csv(tmp_path / "want.csv", ["T2", "T10", "T500"], [["flagged=2;clamped=1"] * 3, *rows])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    loaded = load_return_levels(tmp_path / "got.csv", "ST", 2065)
    for t, want in zip(sorted(columns), samples):
        assert loaded[t].samples.tobytes() == want.tobytes()


def test_return_levels_save_load_roundtrip(tmp_path):
    columns = {
        10.0: ReturnLevelEnsemble(2065, 10.0, np.array([1.25, 1.5, 1.0 / 3.0]), "NS1-time", 2, 4),
        100.0: ReturnLevelEnsemble(2065, 100.0, np.array([2.5, 0.1]), "NS1-time", 0, 5),
    }
    path = tmp_path / "NS1-time.csv"
    save_return_levels(columns, path)
    assert path.read_bytes().splitlines()[:2] == [
        b"T10,T100", b"flagged=4;clamped=2,flagged=5;clamped=0"
    ]
    assert path.read_bytes().endswith(b"0.3333333333333333,\r\n")  # the shorter column ends empty
    loaded = load_return_levels(path, "NS1-time", 2065)
    assert list(loaded) == [10.0, 100.0]
    for t, want in columns.items():
        got = loaded[t]
        assert (got.year, got.period_years, got.source) == (2065, t, "NS1-time")
        assert (got.n_clamped, got.n_flagged) == (want.n_clamped, want.n_flagged)
        assert np.array_equal(got.samples, want.samples)
