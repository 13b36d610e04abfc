import codecs
import configparser
import dataclasses
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from surgebma.config import (
    _KNOWN_OPTIONS, _RUN_OPTIONS, SAMPLER_PROFILES, RunConfig, build_covariates, load_config,
)
from surgebma.covariates import CovariateKind
from surgebma.sampler import ChainConfig
from surgebma.simulate import write_covariate_fixtures

CONFIG_TEXT = """
[station]
hourly_csv = station.csv

[window]
calibration_start = 1990
calibration_end = 2013
projection_year = 2030

[preprocess]
min_valid_hours = 10
threshold_quantile = 0.98

[covariates]
temperature_hist = cov/temperature_hist.csv
temperature_proj = cov/temperature_proj.csv
sealevel_hist = cov/sealevel_hist.csv
sealevel_proj = cov/sealevel_proj.csv
nao_hist = cov/nao_hist.csv
nao_proj = cov/nao_proj.csv

[sampler]
profile = desk
n_iterations = 2000
n_chains = 2
burn_in = 200
thinned_size = 1000

[projection]
return_periods = 10, 50, 100

[run]
seed = 99
structures = ST, NS1-time
output_dir = results
"""


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def config_dir(tmp_path):
    (tmp_path / "station.csv").write_text("timestamp,level_m\n2000-01-01T00:00,0.0\n")
    write_covariate_fixtures(tmp_path / "cov", 1990, 2013, 2030, seed=1)
    (tmp_path / "run.ini").write_text(CONFIG_TEXT)
    return tmp_path


def test_load_config_fields(config_dir):
    config = load_config(config_dir / "run.ini")
    assert config.station_csv == config_dir / "station.csv"
    assert (config.calibration_start, config.calibration_end) == (1990, 2013)
    assert config.projection_year == 2030
    assert config.min_valid_hours == 10
    assert config.threshold_quantile == 0.98
    assert config.sampler.n_iterations == 2000
    assert config.sampler.n_chains == 2
    assert config.seed == 99
    assert config.return_periods == (10.0, 50.0, 100.0)
    assert config.structures == ("ST", "NS1-time")
    assert config.output_dir == config_dir / "results"
    assert len(config.config_hash) == 64
    assert [s.id for s in config.structure_list()] == ["ST", "NS1-time"]


def test_load_config_skips_a_byte_order_mark(config_dir):
    # Notepad saves a UTF-8 INI with one
    (config_dir / "marked.ini").write_bytes(codecs.BOM_UTF8 + CONFIG_TEXT.encode())
    want, got = load_config(config_dir / "run.ini"), load_config(config_dir / "marked.ini")
    assert got == want
    assert got.config_hash == want.config_hash == hashlib.sha256(CONFIG_TEXT.encode()).hexdigest()


def test_default_structures_are_all_13(config_dir):
    text = CONFIG_TEXT.replace("structures = ST, NS1-time", "structures = all")
    (config_dir / "run2.ini").write_text(text)
    config = load_config(config_dir / "run2.ini")
    assert len(config.structure_list()) == 13


def test_unknown_structure_rejected(config_dir):
    text = CONFIG_TEXT.replace("ST, NS1-time", "ST, NS9-time")
    (config_dir / "bad.ini").write_text(text)
    with pytest.raises(ValueError, match="unknown structure"):
        load_config(config_dir / "bad.ini")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("thinned_size = 1000", "thinned_size = 1000\npsrf_gate = nan", "psrf_gate must be finite"),
        ("thinned_size = 1000", "thinned_size = 1000\npsrf_gate = inf", "psrf_gate must be finite"),
        ("return_periods = 10, 50, 100", "return_periods = 10, inf", "positive finite periods"),
    ],
    ids=["nan_gate", "infinite_gate", "infinite_period"],
)
def test_values_that_are_not_finite_are_refused(config_dir, old, new, message):
    (config_dir / "bad.ini").write_text(CONFIG_TEXT.replace(old, new))
    with pytest.raises(ValueError, match=message):
        load_config(config_dir / "bad.ini")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("min_valid_hours = 10", "min_valid_hours = 10\ndetrend_window_days = 0.5",
         "detrend_window_days must be a finite number >= 1"),
        ("min_valid_hours = 10", "min_valid_hours = 10\ndetrend_window_days = nan",
         "detrend_window_days must be a finite number >= 1"),
        ("min_valid_hours = 10", "min_valid_hours = 0", "min_valid_hours must be in [1, 24]"),
        ("min_valid_hours = 10", "min_valid_hours = 25", "min_valid_hours must be in [1, 24]"),
        ("threshold_quantile = 0.98", "threshold_quantile = 1.5",
         "threshold_quantile must lie in (0, 1)"),
        ("min_valid_hours = 10", "min_valid_hours = 10\nseparation_days = 0",
         "separation_days must be at least 1"),
    ],
    ids=["short_window", "nan_window", "no_hours", "too_many_hours", "quantile", "separation"],
)
def test_preprocess_values_are_refused_at_load_by_their_key(config_dir, old, new, message):
    (config_dir / "bad.ini").write_text(CONFIG_TEXT.replace(old, new))
    with pytest.raises(ValueError, match=re.escape(f"[preprocess] {message}")):
        load_config(config_dir / "bad.ini")


def test_build_covariates_spans_and_normalization(config_dir):
    config = load_config(config_dir / "run.ini")
    # only the kinds of the run's structures (ST, NS1-time) are built
    assert set(build_covariates(config)) == {CovariateKind.TIME}
    covs = build_covariates(dataclasses.replace(config, structures=()))
    assert set(covs) == set(CovariateKind)
    for kind, cov in covs.items():
        assert cov.first_year == 1990 and cov.first_year + cov.values.size - 1 == 2030
        hist = cov.values[: 2013 - 1990 + 1]
        assert hist.min() == pytest.approx(0.0, abs=1e-12)
        assert hist.max() == pytest.approx(1.0, abs=1e-12)
    assert covs[CovariateKind.TIME].values_for_years([2030])[0] == pytest.approx(
        (2030 - 1990) / (2013 - 1990)
    )


def test_build_covariates_reports_gaps(config_dir):
    import csv

    # truncate the sealevel projection so 2030 is uncovered
    path = config_dir / "cov" / "sealevel_proj.csv"
    rows = list(csv.reader(path.open()))
    path.write_text("\n".join(",".join(r) for r in rows[:5]) + "\n")
    config = dataclasses.replace(load_config(config_dir / "run.ini"), structures=("NS2-sealevel",))
    with pytest.raises(ValueError, match="sealevel"):
        build_covariates(config)


def test_omitted_options_take_the_dataclass_defaults(tmp_path):
    text = "[station]\nhourly_csv = station.csv\n"
    (tmp_path / "run.ini").write_text(text)
    config = load_config(tmp_path / "run.ini")
    assert config.station_csv == tmp_path / "station.csv"
    assert config.raw_text == text
    # a relative output_dir resolves against the config's directory, the default too
    assert config.output_dir == tmp_path / RunConfig.output_dir
    for f in dataclasses.fields(RunConfig):
        if f.name in ("station_csv", "raw_text", "output_dir"):
            continue
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        assert getattr(config, f.name) == default, f.name
    assert config.sampler == ChainConfig()
    assert config.return_periods and all(type(t) is float for t in config.return_periods)


def test_readme_configuration_reference_shows_every_option_at_its_default(tmp_path):
    # the ini block under "## Configuration reference"; paths are placeholders
    text = README.read_text(encoding="utf-8").split("## Configuration reference", 1)[1]
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    (tmp_path / "run.ini").write_text(block)
    config = load_config(tmp_path / "run.ini")
    shown = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    shown.read_string(block)
    assert {name: set(shown[name]) for name in shown.sections()} == _KNOWN_OPTIONS
    default = RunConfig(station_csv=config.station_csv)
    for options in _RUN_OPTIONS.values():
        for key in options:
            assert getattr(config, key) == getattr(default, key), key
    assert config.output_dir == tmp_path / default.output_dir
    assert config.force == default.force
    assert config.sampler == ChainConfig()


def test_readme_library_use_block_runs(tmp_path, monkeypatch):
    # the python block under "## Library use", run as a reader would run it
    text = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert (tmp_path / "demo" / "curve.json").exists()


def test_sampler_profiles(tmp_path):
    def sampler(profile_lines):
        (tmp_path / "run.ini").write_text(
            "[station]\nhourly_csv = station.csv\n[sampler]\n" + profile_lines
        )
        return load_config(tmp_path / "run.ini").sampler

    assert sampler("profile = desk\n") == ChainConfig()
    assert sampler("profile = paper\n") == ChainConfig(**SAMPLER_PROFILES["paper"])
    assert sampler("profile = paper\nn_chains = 3\n").n_chains == 3
    with pytest.raises(ValueError, match="unknown sampler profile"):
        sampler("profile = laptop\n")


@pytest.mark.parametrize(
    "text, refused",
    [
        ("[sampler]\nn_iteration = 50\n", "option [sampler] n_iteration"),
        ("[sampler]\nthined_size = 3\n", "option [sampler] thined_size"),
        ("[preprocess]\nthreshold_quantil = 0.5\n", "option [preprocess] threshold_quantil"),
        ("[bogus]\n", "section [bogus]"),
        ("[sampler]\ntarget_acceptance = 0.234\n", "option [sampler] target_acceptance"),
        ("[sampler]\nadaptation_decay = 0.66\n", "option [sampler] adaptation_decay"),
        ("[covariates]\ntime_hist = time.csv\n", "option [covariates] time_hist"),
        ("[run]\nhourly_csv = other.csv\n", "option [run] hourly_csv"),
        # set in the section itself, not only inherited from [DEFAULT]
        ("[DEFAULT]\nn_iteration = 5\n[sampler]\nn_iteration = 50\n",
         "option [sampler] n_iteration"),
    ],
)
def test_unknown_sections_and_options_are_refused(tmp_path, text, refused):
    (tmp_path / "run.ini").write_text("[station]\nhourly_csv = station.csv\n" + text)
    with pytest.raises(ValueError, match=re.escape(f"unknown config {refused}")):
        load_config(tmp_path / "run.ini")


def test_options_from_the_default_section_are_not_checked(tmp_path):
    text = (
        "[DEFAULT]\nroot = data\n\n[station]\nhourly_csv = %(root)s/station.csv\n"
        "[sampler]\nn_chains = 3 ; inline comment\n"
    )
    (tmp_path / "run.ini").write_text(text)
    config = load_config(tmp_path / "run.ini")
    assert config.station_csv == tmp_path / "data" / "station.csv"
    assert config.sampler.n_chains == 3


def test_covariate_files_take_no_keys_from_the_default_section(tmp_path):
    text = (
        "[DEFAULT]\nroot = cov\n\n[station]\nhourly_csv = station.csv\n"
        "[covariates]\ntemperature_hist = %(root)s/temperature_hist.csv\n"
    )
    (tmp_path / "run.ini").write_text(text)
    config = load_config(tmp_path / "run.ini")
    assert config.covariate_files == {"temperature_hist": tmp_path / "cov" / "temperature_hist.csv"}
