import csv
import re

import numpy as np
import pytest

from surgebma.covariates import (
    CovariateSeries,
    normalize_minmax,
    read_annual_csv,
    read_monthly_csv,
    splice,
    time_covariate,
    winter_mean_nao,
)


# ---------------------------------------------------------------------------
# winter mean NAO
# ---------------------------------------------------------------------------


def test_winter_mean_simple():
    monthly = [(1999, 12, 3.0), (2000, 1, 0.0), (2000, 2, 0.0)]
    out = winter_mean_nao(monthly)
    assert out == {2000: 1.0}


def test_winter_mean_constant_months():
    monthly = [(1999, 12, -0.7), (2000, 1, -0.7), (2000, 2, -0.7)]
    assert winter_mean_nao(monthly)[2000] == pytest.approx(-0.7)


def test_winter_mean_missing_month_omits_year(caplog):
    monthly = [(1999, 12, 1.0), (2000, 2, 1.0)]  # January missing
    with caplog.at_level("WARNING"):
        out = winter_mean_nao(monthly)
    assert out == {}
    assert "omitted" in caplog.text


def test_winter_mean_complete_record_logs_nothing(caplog):
    # the record's edge winters lack December before or Jan/Feb after; no warning
    monthly = [(y, m, 0.5) for y in range(1990, 1995) for m in range(1, 13)]
    with caplog.at_level("WARNING"):
        out = winter_mean_nao(monthly)
    assert sorted(out) == [1991, 1992, 1993, 1994]
    assert not caplog.records


def test_winter_mean_matches_scan_oracle():
    rng = np.random.default_rng(0)
    monthly = [(y, m, float(rng.normal())) for y in range(1990, 2000) for m in range(1, 13)]
    table = {(y, m): v for y, m, v in monthly}
    out = winter_mean_nao(monthly)
    for y in range(1991, 2000):
        want = (table[(y - 1, 12)] + table[(y, 1)] + table[(y, 2)]) / 3.0
        assert out[y] == pytest.approx(want)
    assert 1990 not in out  # December 1989 unavailable


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_affine_map():
    series = [2.0, 4.0, 6.0]
    cov = normalize_minmax(series, 2000, (2000, 2002))
    assert np.allclose(cov.values, [0.0, 0.5, 1.0])


def test_normalize_projection_extrapolates():
    series = [2.0, 6.0, 8.0]
    cov = normalize_minmax(series, 2000, (2000, 2001))
    assert cov.values_for_years([2002])[0] == pytest.approx(1.5)


def test_normalize_scale_offset_invariance():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=30)
    a = normalize_minmax(vals, 1980, (1980, 2009))
    b = normalize_minmax(3.7 * vals + 11.0, 1980, (1980, 2009))
    assert np.allclose(a.values, b.values, atol=1e-12)


def test_normalize_degenerate_covariate():
    with pytest.raises(ValueError, match="degenerate"):
        normalize_minmax([1.0, 1.0], 2000, (2000, 2001))


def test_time_covariate_endpoints_and_linspace():
    cov = time_covariate(1928, 2065, (1928, 2013))
    assert cov.values_for_years([1928, 2013]).tolist() == pytest.approx([0.0, 1.0])
    hist = cov.values[: 2013 - 1928 + 1]
    assert np.allclose(hist, np.linspace(0.0, 1.0, 86), atol=1e-12)
    assert cov.values_for_years([2065])[0] == pytest.approx((2065 - 1928) / 85.0)


# ---------------------------------------------------------------------------
# splice
# ---------------------------------------------------------------------------


def test_splice_historical_precedence():
    out = splice({2012: 1.0, 2013: 2.0}, {2013: 9.0, 2014: 3.0}, 2013)
    assert out == {2012: 1.0, 2013: 2.0, 2014: 3.0}


def test_splice_gap_errors():
    with pytest.raises(ValueError, match="gap"):
        splice({2012: 1.0, 2013: 2.0}, {2015: 3.0}, 2013)


def test_splice_full_span_count():
    hist = {y: float(y) for y in range(1928, 2014)}
    proj = {y: float(y) for y in range(2014, 2066)}
    out = splice(hist, proj, 2013)
    years = sorted(out)
    assert len(years) == 138
    assert years[0] == 1928 and years[-1] == 2065
    assert np.all(np.diff(years) == 1)


def test_splice_restriction_to_history_is_identity():
    hist = {y: float(np.sin(y)) for y in range(2000, 2011)}
    proj = {y: 0.0 for y in range(2010, 2021)}
    out = splice(hist, proj, 2010)
    assert all(out[y] == hist[y] for y in hist)


# ---------------------------------------------------------------------------
# lookup
# ---------------------------------------------------------------------------


def test_values_for_years_exact_and_errors():
    years = np.arange(2060, 2066)
    vals = np.linspace(0, 1.31, years.size)
    vals = (vals - vals[:4].min()) / (vals[:4].max() - vals[:4].min())
    cov = CovariateSeries(2060, vals)
    assert cov.values_for_years([2065, 2060]).tolist() == [vals[-1], vals[0]]
    with pytest.raises(ValueError, match="years 2059-2059 not covered by covariate span 2060-2065"):
        cov.values_for_years([2059])


def test_calibration_years_resolvable_for_all_kinds():
    from surgebma.simulate import synthetic_covariates

    covs = synthetic_covariates(1928, 2065, (1928, 2013))
    for kind, cov in covs.items():
        v = cov.values_for_years(np.arange(1928, 2014))
        assert np.all((-1e-12 <= v) & (v <= 1.0 + 1e-12))


# ---------------------------------------------------------------------------
# csv readers
# ---------------------------------------------------------------------------


def test_read_annual_and_monthly_csv(tmp_path):
    p = tmp_path / "annual.csv"
    p.write_text("year,value\n2000,1.5\n2001,2.5\n")
    assert read_annual_csv(p) == {2000: 1.5, 2001: 2.5}

    m = tmp_path / "monthly.csv"
    m.write_text("year,month,value\n1999,12,0.3\n2000,1,0.6\n")
    assert read_monthly_csv(m) == [(1999, 12, 0.3), (2000, 1, 0.6)]

    bad = tmp_path / "bad.csv"
    bad.write_text("year,value\n2000,oops\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        read_annual_csv(bad)
    bad.write_text(f'year,value\n2000,"{"1" * (csv.field_size_limit() + 1)}"\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: field larger than"):
        read_annual_csv(bad)
    for text in ("", "year,value\n\n , \n"):  # no header, or no row after it
        bad.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: empty input$"):
            read_annual_csv(bad)


def test_read_annual_csv_names_the_line_a_bad_row_starts_on(tmp_path):
    # the first row's quoted value spans lines 2 and 3
    path = tmp_path / "annual.csv"
    path.write_text('year,value\n2000,"1.0\n"\n2001,2.0\nbad,3.0\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: bad row \\['bad', '3.0'\\]$"):
        read_annual_csv(path)
