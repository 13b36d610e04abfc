import math

import numpy as np
import pytest

from oracles import closed_form_return_level, weighted_inverse_cdf
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
    save_return_levels,
    write_curve_json,
    write_quantile_table_csv,
)
from surgebma.models import ModelStructure, NonstatLevel
from surgebma.sampler import PosteriorEnsemble
from surgebma.simulate import synthetic_covariates
from surgebma.utils import GateError, format_float, write_csv

ST = ModelStructure(NonstatLevel.ST, None)
NS1 = ModelStructure(NonstatLevel.NS1, CovariateKind.TIME)
NS3 = ModelStructure(NonstatLevel.NS3, CovariateKind.TIME)


# ---------------------------------------------------------------------------
# one draw's return level
# ---------------------------------------------------------------------------


def make_ensemble(structure, rows):
    rows = np.asarray(rows, dtype=float)
    return PosteriorEnsemble(structure, rows, {})


def one_draw_level(row, period):
    """The ST return level of one draw above a threshold of 1, through the
    projection's ensemble path."""
    out = ensemble_return_levels(make_ensemble(ST, [row]), None, 2065, 1.0, period)
    assert out.samples.size == 1
    return float(out.samples[0])


def test_return_level_exponential_branch():
    theta = [0.01, 0.2, 0.0]
    # lam_yr = 3.6525, T = 100 -> z = 1 + 0.2 ln(365.25)
    z = one_draw_level(theta, 100.0)
    assert z == pytest.approx(1.0 + 0.2 * math.log(365.25), rel=1e-12)


def test_return_level_equals_threshold_at_unit_rate():
    lam0 = 0.01
    period = 1.0 / (lam0 * 365.25) * (1.0 + 1e-13)
    for xi in (0.3, 0.0, -0.2):
        theta = [lam0, 0.2, xi]
        assert one_draw_level(theta, period) == pytest.approx(1.0, abs=1e-9)


def test_return_level_below_threshold_regime_errors():
    theta = [0.001, 0.2, 0.1]
    with pytest.raises(GateError, match="all draws flagged for ST at T=2.0"):
        one_draw_level(theta, 2.0)  # T*lam_yr = 0.73 < 1


def test_return_level_monotonicity():
    theta = [0.01, 0.2, 0.1]
    levels = [one_draw_level(theta, t) for t in DEFAULT_RETURN_PERIODS]
    assert np.all(np.diff(levels) > 0)
    # increasing in scale and rate
    up_sig = one_draw_level([0.01, 0.3, 0.1], 100)
    up_lam = one_draw_level([0.02, 0.2, 0.1], 100)
    base = one_draw_level(theta, 100)
    assert up_sig > base and up_lam > base


def test_return_level_bounded_for_negative_shape():
    theta = [0.01, 0.2, -0.25]
    bound = 1.0 + 0.2 / 0.25
    for t in (10, 100, 1000, 100000):
        assert one_draw_level(theta, t) < bound


def test_return_level_continuous_across_xi_branch():
    theta_pos = [0.01, 0.2, 5e-9]
    theta_zero = [0.01, 0.2, 0.0]
    a = one_draw_level(theta_pos, 100)
    b = one_draw_level(theta_zero, 100)
    assert a == pytest.approx(b, abs=1e-6)


@pytest.mark.parametrize("period", [0.0, -5.0])
def test_ensemble_refuses_a_period_that_is_not_positive(period):
    # an input error, not the gate failure of a period every draw is flagged at
    ens = make_ensemble(ST, [[0.01, 0.2, 0.1]])
    with pytest.raises(ValueError, match="return period must be positive") as raised:
        ensemble_return_levels(ens, None, 2065, 1.0, period)
    assert not isinstance(raised.value, GateError)


# ---------------------------------------------------------------------------
# ensemble_return_levels
# ---------------------------------------------------------------------------


def test_st_ensemble_year_invariant():
    ens = make_ensemble(ST, [[0.01, 0.2, 0.1], [0.012, 0.15, 0.0]])
    cov = synthetic_covariates(2000, 2070, (2000, 2065))[CovariateKind.TIME]
    a = ensemble_return_levels(ens, cov, 2020, 1.0, 100)
    b = ensemble_return_levels(ens, cov, 2065, 1.0, 100)
    assert np.allclose(a.samples, b.samples)


def test_single_draw_ensemble_matches_scalar():
    ens = make_ensemble(ST, [[0.01, 0.2, 0.1]])
    out = ensemble_return_levels(ens, None, 2065, 1.0, 100)
    want = closed_form_return_level([0.01, 0.2, 0.1], ST, 0.0, 1.0, 100)
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
    # a period long enough for any positive rate leaves the negative one flagged
    far = ensemble_return_levels(ens, cov, 2065, 1.0, 1e6)
    assert (far.n_clamped, far.n_flagged) == (1, 1)
    assert far.samples.tobytes() == ensemble_return_levels(
        make_ensemble(NS1, [rows[0], rows[2]]), cov, 2065, 1.0, 1e6).samples.tobytes()

    all_bad = make_ensemble(NS1, [[0.005, -0.02, 0.2, 0.1]])
    with pytest.raises(ValueError, match="all draws flagged"):
        ensemble_return_levels(all_bad, cov, 2065, 1.0, 100)


def test_ns3_ensemble_equals_per_draw_return_level_bit_for_bit():
    # a stack of draws and one-draw ensembles give each draw the same bits
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
    cov = CovariateSeries(int(years[0]), np.array([0.0, 1.0, 1.61]))
    out = ensemble_return_levels(make_ensemble(NS3, rows), cov, 2002, 1.0, 100)
    assert out.n_flagged == 0 and out.n_clamped == 0
    want = np.concatenate(
        [ensemble_return_levels(make_ensemble(NS3, [row]), cov, 2002, 1.0, 100).samples
         for row in rows]
    )
    assert out.samples.tobytes() == want.tobytes()
    oracle = [closed_form_return_level(row, NS3, 1.61, 1.0, 100) for row in rows[:20]]
    assert out.samples[:20] == pytest.approx(oracle, rel=1e-9)


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


def rl(samples, year=2065, period=100.0):
    return ReturnLevelEnsemble(year, period, np.asarray(samples, dtype=float), 0, 0)


def mix(samples, period=100.0):
    """The mixture of one structure's samples."""
    return bma_mixture({"A": rl(samples, period=period)}, BmaWeights({"A": 1.0}))


# the reported levels, levels between them, and levels at a point mass's jump
MIXTURE_LEVELS = (0.001, 0.025, 0.05, 0.1, 0.25, 1 / 3, 0.5, 0.6, 0.75, 0.8, 0.95, 0.975, 0.999)


def assert_quantiles_match_the_oracle(components, weights, levels=MIXTURE_LEVELS):
    ensembles = {sid: rl(values) for sid, values in components.items()}
    report = hazard_report({100.0: bma_mixture(ensembles, BmaWeights(weights))}, levels)
    want = [weighted_inverse_cdf(components, weights, q) for q in levels]
    assert report.table[0].tolist() == want
    return want


def test_mixture_quantiles_of_ties_across_structures():
    components = {"A": [1.0, 2.0, 3.0, 3.0], "B": [2.0, 3.0, 4.0], "C": [3.0, 3.0]}
    want = assert_quantiles_match_the_oracle(components, {"A": 0.5, "B": 0.3, "C": 0.2})
    # cumulative mass: 1 -> 0.125, 2 -> 0.35, 3 -> 0.9, 4 -> 1
    assert want == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0]


def test_mixture_quantiles_take_nothing_from_a_structure_of_zero_weight():
    # the weightless structure holds the lowest value and one between the others
    components = {"A": [1.0, 2.0, 3.0], "B": [0.5, 2.5], "C": [7.0, 8.0, 9.0, 10.0]}
    levels = tuple(np.linspace(0.005, 0.995, 199))
    want = assert_quantiles_match_the_oracle(components, {"A": 0.5, "B": 0.0, "C": 0.5}, levels)
    assert not {0.5, 2.5} & set(want)
    assert set(want) == {1.0, 2.0, 3.0, 7.0, 8.0, 9.0, 10.0}


def test_mixture_quantiles_of_one_structure_are_its_inverse_cdf():
    pool = np.random.default_rng(1).normal(2.0, 0.3, size=50)
    levels = tuple((k + 0.5) / 50 for k in range(50))
    want = assert_quantiles_match_the_oracle({"A": pool.tolist()}, {"A": 1.0}, levels)
    # the ceil(50 q)-th smallest sample
    assert want == np.sort(pool).tolist()


def test_mixture_quantiles_of_point_masses():
    want = assert_quantiles_match_the_oracle({"A": [2.0], "B": [3.0]}, {"A": 0.75, "B": 0.25})
    # the first level above 0.75 is the first to reach B
    assert want == [2.0] * 9 + [3.0] * 4
    mixture = bma_mixture({"A": rl([2.0]), "B": rl([3.0])}, BmaWeights({"A": 0.75, "B": 0.25}))
    assert (mixture.samples.tolist(), mixture.cum_mass.tolist()) == ([2.0, 3.0], [0.75, 1.0])


def test_mixture_weighs_each_structure_by_its_retained_draws():
    # unequal ensembles whose flagged draws (a rate below one event in T
    # years) are dropped: each kept draw of a structure carries w / kept
    rng = np.random.default_rng(6)
    ensembles = {}
    for sid, (n, n_low) in {"A": (40, 0), "B": (25, 7), "C": (13, 12)}.items():
        rows = np.column_stack([rng.uniform(0.005, 0.02, n), rng.uniform(0.1, 0.2, n),
                                rng.uniform(-0.2, 0.2, n)])
        rows[:n_low, 0] = 1e-7  # 1e-7 * 365.25 * 100 < 1
        ensembles[sid] = ensemble_return_levels(make_ensemble(ST, rows), None, 2065, 1.0, 100.0)
    assert [e.samples.size for e in ensembles.values()] == [40, 18, 1]
    weights = {"A": 0.2, "B": 0.45, "C": 0.35}
    mixture = bma_mixture(ensembles, BmaWeights(weights))
    assert (mixture.n_flagged, mixture.n_clamped) == (19, 0)
    assert mixture.samples.size == 59 and np.all(np.diff(mixture.samples) >= 0)
    assert mixture.cum_mass[-1] == pytest.approx(1.0, abs=1e-12)
    levels = tuple(np.linspace(0.005, 0.995, 199))
    report = hazard_report({100.0: mixture}, levels)
    components = {sid: e.samples.tolist() for sid, e in ensembles.items()}
    assert report.table[0].tolist() == [weighted_inverse_cdf(components, weights, q)
                                        for q in levels]
    # C's one kept draw carries all of C's weight
    masses = np.diff(mixture.cum_mass, prepend=0.0)
    assert masses[mixture.samples == ensembles["C"].samples[0]] == pytest.approx([0.35])


def test_mixture_quantiles_of_many_unequal_structures_with_ties():
    rng = np.random.default_rng(7)
    # values on a 1 cm grid tie within and across structures
    components = {f"S{i}": np.round(rng.normal(2.0 + 0.1 * i, 0.2, rng.integers(1, 60)), 2).tolist()
                  for i in range(13)}
    weights = dict(zip(components, rng.dirichlet(np.ones(13)).tolist()))
    weights["S3"] = 0.0
    total = sum(weights.values())
    weights = {sid: w / total for sid, w in weights.items()}
    assert_quantiles_match_the_oracle(components, weights, tuple(np.linspace(0.001, 0.999, 999)))


def test_mixture_validates_coverage():
    weights = BmaWeights({"A": 0.5, "B": 0.5})
    with pytest.raises(ValueError, match="different structures"):
        bma_mixture({"A": rl([1.0])}, weights)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_point_mass_quantiles_collapse():
    mixtures = {t: mix(np.full(100, 2.5), period=t) for t in (2.0, 100.0)}
    report = hazard_report(mixtures, DEFAULT_QUANTILE_LEVELS)
    assert np.allclose(report.table, 2.5)


def test_report_rows_nondecreasing_and_shape():
    rng = np.random.default_rng(4)
    mixtures = {
        float(t): mix(rng.normal(2 + math.log(t), 0.3, size=4000), period=float(t))
        for t in DEFAULT_RETURN_PERIODS
    }
    report = hazard_report(mixtures, DEFAULT_QUANTILE_LEVELS)
    assert report.table.shape == (9, 7)
    assert np.all(np.diff(report.table, axis=1) >= 0)  # across quantile levels
    assert report.levels == DEFAULT_QUANTILE_LEVELS
    assert np.all(np.diff(report.medians) > 0)  # across periods for this family
    lo_hi = report.credible_range_90()
    assert np.all(lo_hi[:, 0] <= report.medians) and np.all(report.medians <= lo_hi[:, 1])


def test_report_csv_and_curve_json(tmp_path):
    rng = np.random.default_rng(5)
    mixtures = {
        float(t): mix(rng.normal(2.0, 0.2, size=500), period=float(t))
        for t in DEFAULT_RETURN_PERIODS
    }
    report = hazard_report(mixtures, DEFAULT_QUANTILE_LEVELS)
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
    columns = {t: ReturnLevelEnsemble(2065, t, v, 1, 2)
               for t, v in zip((2.0, 10.0, 500.0), samples)}
    save_return_levels(columns, tmp_path / "got.csv")
    rows = [[format_float(v[i]) if i < v.size else "" for v in samples] for i in range(4)]
    write_csv(tmp_path / "want.csv", ["T2", "T10", "T500"], [["flagged=2;clamped=1"] * 3, *rows])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    loaded = load_return_levels(tmp_path / "got.csv", 2065)
    for t, want in zip(sorted(columns), samples):
        assert loaded[t].samples.tobytes() == want.tobytes()


def test_return_levels_save_load_roundtrip(tmp_path):
    columns = {
        10.0: ReturnLevelEnsemble(2065, 10.0, np.array([1.25, 1.5, 1.0 / 3.0]), 2, 4),
        100.0: ReturnLevelEnsemble(2065, 100.0, np.array([2.5, 0.1]), 0, 5),
    }
    path = tmp_path / "NS1-time.csv"
    save_return_levels(columns, path)
    assert path.read_bytes().splitlines()[:2] == [
        b"T10,T100", b"flagged=4;clamped=2,flagged=5;clamped=0"
    ]
    assert path.read_bytes().endswith(b"0.3333333333333333,\r\n")  # the shorter column ends empty
    loaded = load_return_levels(path, 2065)
    assert list(loaded) == [10.0, 100.0]
    for t, want in columns.items():
        got = loaded[t]
        assert (got.year, got.period_years) == (2065, t)
        assert (got.n_clamped, got.n_flagged) == (want.n_clamped, want.n_flagged)
        assert np.array_equal(got.samples, want.samples)
