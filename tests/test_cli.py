import contextlib
import io
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from oracles import read_hourly_csv_rows
from surgebma import cli, preprocess
from surgebma.cli import main
from surgebma.models import all_structures
from surgebma.sampler import PosteriorEnsemble, RawChains
from surgebma.utils import load_json

CONFIG_TEMPLATE = """
[station]
hourly_csv = station.csv

[window]
calibration_start = 1984
calibration_end = 2013
projection_year = 2030

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
psrf_gate = {gate}

[projection]
return_periods = 10, 100

[run]
seed = 5
structures = {structures}
output_dir = out
"""


def make_workspace(tmp_path, structures="ST, NS1-time", gate="1.5"):
    assert main(
        [
            "simulate",
            "station",
            "--out",
            str(tmp_path / "station.csv"),
            "--first-year",
            "1984",
            "--last-year",
            "2013",
            "--seed",
            "21",
        ]
    ) == 0
    assert main(
        [
            "simulate",
            "covariates",
            "--out",
            str(tmp_path / "cov"),
            "--first-year",
            "1984",
            "--last-year",
            "2013",
            "--projection-year",
            "2030",
            "--seed",
            "22",
        ]
    ) == 0
    (tmp_path / "run.ini").write_text(
        CONFIG_TEMPLATE.format(structures=structures, gate=gate)
    )
    return tmp_path / "run.ini"


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    config = make_workspace(tmp_path)
    code = main(["run-all", "--config", str(config)])
    assert code == 0
    return tmp_path


def test_preprocess_writes_threshold_near_fixture_target(pipeline_dir):
    payload = load_json(pipeline_dir / "out" / "exceedances.json")
    # the station fixture engineers its daily-maxima quantile at 1.0 m
    assert abs(payload["threshold_m"] - 1.0) < 0.05
    years = [b["year"] for b in payload["years"]]
    assert years == list(range(1984, 2014))
    assert "config_sha256" in payload


def test_preprocess_rerun_is_byte_identical(pipeline_dir):
    path = pipeline_dir / "out" / "exceedances.json"
    before = path.read_bytes()
    assert main(["preprocess", "--config", str(pipeline_dir / "run.ini")]) == 0
    assert path.read_bytes() == before


def test_empty_station_file_exits_2(tmp_path):
    config = make_workspace(tmp_path)
    (tmp_path / "station.csv").write_text("")
    code = main(["preprocess", "--config", str(config)])
    assert code == 2


def test_a_stamp_centuries_off_exits_2_before_preprocess_writes(tmp_path, capsys):
    # one mistyped year: the calibration window would hide the empty centuries
    config = make_workspace(tmp_path)
    with open(tmp_path / "station.csv", "a") as fh:
        fh.write("2900-01-01T00,0.5\n")
    assert main(["preprocess", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: \S+station\.csv: \d+ rows from 1984-01-01T00 to 2900-01-01T00 "
        r"leave more than a century of hours absent\n", err
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stamp", ["2014-01-01T05+0100", "2014-01-01T07-02:00", "2014-01-01T09 Z"])
def test_a_stamp_off_utc_exits_2_before_preprocess_writes(tmp_path, capsys, stamp):
    # numpy would apply the offset (or read the zone) with only a warning
    config = make_workspace(tmp_path)
    with open(tmp_path / "station.csv", "a", newline="") as fh:
        fh.write(f"{stamp},0.5\r\n")
    assert main(["preprocess", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: \S+station\.csv:\d+: bad timestamp {re.escape(repr(stamp))}\n", err)
    assert not (tmp_path / "out").exists()


def test_a_field_over_the_csv_size_limit_exits_2_before_preprocess_writes(tmp_path, capsys):
    config = make_workspace(tmp_path)
    with open(tmp_path / "station.csv", "a") as fh:
        fh.write(f'2014-01-01T00,"{"1" * 200_000}"\n')
    assert main(["preprocess", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: \S+station\.csv: field larger than field limit \(\d+\)\n", err)
    assert not (tmp_path / "out").exists()


def test_missing_inputs_exit_2(tmp_path):
    config = make_workspace(tmp_path)
    assert main(["calibrate", "--config", str(config)]) == 2
    assert main(["report", "--config", str(config)]) == 2


@pytest.mark.parametrize("stage", ["calibrate", "evidence", "project", "report"])
def test_a_stage_missing_its_inputs_creates_nothing(tmp_path, stage):
    config = tmp_path / "run.ini"
    config.write_text(CONFIG_TEMPLATE.format(structures="ST, NS1-time", gate="1.5"))
    assert main([stage, "--config", str(config)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "stage, removed",
    [("evidence", "ensembles"), ("project", "ensembles"), ("report", "return_levels")],
)
def test_a_stage_missing_an_earlier_artifact_leaves_its_directory_absent(
    pipeline_dir, tmp_path, stage, removed
):
    shutil.copytree(pipeline_dir, tmp_path, dirs_exist_ok=True)
    shutil.rmtree(tmp_path / "out" / removed)
    assert main([stage, "--config", str(tmp_path / "run.ini")]) == 2
    assert not (tmp_path / "out" / removed).exists()


def _drop_ns1_time_priors(out):
    payload = load_json(out / "priors.json")
    del payload["structures"]["NS1-time"]
    (out / "priors.json").write_text(json.dumps(payload))


def _overwrite(name, text):
    """A spoiler that replaces the output ``name`` with ``text``."""
    return lambda out: (out / name).write_text(text)


def _first_value_of_a_draw(text, row):
    """A spoiler that makes ``text`` the first value (``lam0``) of draw ``row``
    of the NS1-time ensemble."""
    def spoil(out):
        path = out / "ensembles" / "NS1-time.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[row] = text + lines[row][lines[row].index(","):]
        path.write_text("".join(lines))
    return spoil


def _add_a_return_period(out):
    """The config asks for a period that ``project`` did not write."""
    config = out.parent / "run.ini"
    config.write_text(config.read_text().replace("return_periods = 10, 100",
                                                 "return_periods = 10, 50, 100"))


def _evidence_of_st_alone(out):
    """``evidence --structures ST`` rewrites evidence.json for ST alone."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["evidence", "--config", str(out.parent / "run.ini"), "--structures", "ST"]) == 0


LOADERS = ("calibrate", "evidence", "project")  # the stages that read exceedances.json
PRIORS_READERS = ("calibrate", "evidence")
# how an earlier stage's output is spoiled (a file to remove, or a function),
# what the refusal names, and the stages that read that output; a malformed
# file is named whatever its parse raises (a missing key, a wrong type, too
# few rows, broken JSON, a value that is not a number)
SPOILED_OUTPUTS = {
    "no_exceedances": ("exceedances.json", "exceedances.json", LOADERS),
    "no_priors": ("priors.json", "priors.json", PRIORS_READERS),
    "no_ensemble": ("ensembles/NS1-time.csv", "NS1-time.csv", ("evidence", "project")),
    "no_evidence": ("evidence.json", "evidence.json", ("report",)),
    "no_return_levels": ("return_levels/NS1-time.csv", "NS1-time.csv", ("report",)),
    "priors_without_a_structure": (_drop_ns1_time_priors, "NS1-time", PRIORS_READERS),
    "exceedances_without_a_threshold": (
        _overwrite("exceedances.json", '{"years": []}'), "exceedances.json", LOADERS),
    "truncated_exceedances": (
        _overwrite("exceedances.json", '{"threshold_m": 1.0, "ye'), "exceedances.json", LOADERS),
    "priors_without_structures": (
        _overwrite("priors.json", '{"meta": {}}'), "priors.json", PRIORS_READERS),
    "empty_ensemble": (
        _overwrite("ensembles/NS1-time.csv", ""), "NS1-time.csv", ("evidence", "project")),
    "word_in_an_ensemble_draw": (
        _first_value_of_a_draw("abc", 1), "NS1-time.csv", ("evidence", "project")),
    # the last draw is one that the bridge iteration evaluates
    "negative_rate_in_an_ensemble_draw": (
        _first_value_of_a_draw("-0.001", -1), "non-finite posterior density on ensemble draws",
        ("evidence",)),
    "evidence_not_an_object": (_overwrite("evidence.json", "[]"), "evidence.json", ("report",)),
    "evidence_of_one_structure": (
        _evidence_of_st_alone, "evidence missing for structures: ['NS1-time']", ("report",)),
    "empty_return_levels": (
        _overwrite("return_levels/NS1-time.csv", ""), "NS1-time.csv", ("report",)),
    "return_levels_without_flags": (
        _overwrite("return_levels/NS1-time.csv", "T10,T100\r\n"), "NS1-time.csv", ("report",)),
    "return_levels_without_a_configured_period": (
        _add_a_return_period, "ST.csv: no return levels for T50 (run project first)", ("report",)),
}


def _files(out):
    """Each file under ``out``: its bytes and the time it was last written."""
    return {p.relative_to(out): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in out.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "spoil, stage",
    [(spoil, stage) for spoil, (*_, stages) in SPOILED_OUTPUTS.items() for stage in stages],
)
def test_a_refused_stage_leaves_the_output_directory_as_it_was(
    pipeline_dir, tmp_path, capsys, spoil, stage
):
    how, named, _ = SPOILED_OUTPUTS[spoil]
    shutil.copytree(pipeline_dir, tmp_path, dirs_exist_ok=True)
    out = tmp_path / "out"
    if callable(how):
        how(out)
    else:
        (out / how).unlink()
    before = _files(out)
    assert main([stage, "--config", str(tmp_path / "run.ini")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert _files(out) == before  # nothing written, added or removed


def test_priors_cover_requested_structures(pipeline_dir):
    payload = load_json(pipeline_dir / "out" / "priors.json")
    assert set(payload["structures"]) == {"ST", "NS1-time"}
    st = payload["structures"]["ST"]
    assert st["lam0"]["family"] == "gamma"
    assert st["xi0"]["family"] == "normal"


def test_calibration_artifacts_and_diagnostics(pipeline_dir):
    for sid in ("ST", "NS1-time"):
        ens = (pipeline_dir / "out" / "ensembles" / f"{sid}.csv").read_text().splitlines()
        assert len(ens) == 1001  # header + thinned draws
        diag = load_json(pipeline_dir / "out" / "diagnostics" / f"{sid}.json")
        assert diag["seed"] != 5  # per-structure derived seed, not the raw run seed
        assert "config_sha256" in diag and "psrf" in diag and "mle" in diag
        assert diag["param_names"] == ens[0].split(",")
    assert diag["param_names"] == ["lam0", "lam1", "sig0", "xi0"]


def _repeat_block(blocks, block):
    blocks.insert(blocks.index(block) + 1, dict(block))


def _predate_event(blocks, block):
    block["records"][0]["date"] = f"{block['year'] - 1}-12-31"


def _lower_event(blocks, block):
    block["records"][0]["height_m"] = 0.5


def _nan_event(blocks, block):
    block["records"][0]["height_m"] = math.nan


@pytest.mark.parametrize(
    "doctor, message",
    [
        (_repeat_block, r"year \d{4} is listed more than once"),
        (_predate_event, r"event dated \d{4}-12-31 lies outside its year \d{4}"),
        (_lower_event, r"event height 0\.5 lies below the threshold \d\.\d+"),
        (_nan_event, r"event height nan lies below the threshold \d\.\d+"),
    ],
    ids=["repeated_year", "event_outside_its_year", "height_below_threshold", "nan_height"],
)
def test_calibrate_refuses_a_malformed_exceedance_file(pipeline_dir, tmp_path, capsys, doctor,
                                                       message):
    (tmp_path / "out").mkdir()
    shutil.copy(pipeline_dir / "run.ini", tmp_path)
    shutil.copy(pipeline_dir / "out" / "priors.json", tmp_path / "out")
    payload = load_json(pipeline_dir / "out" / "exceedances.json")
    doctor(payload["years"], next(b for b in payload["years"] if b["records"]))
    (tmp_path / "out" / "exceedances.json").write_text(json.dumps(payload))
    assert main(["calibrate", "--config", str(tmp_path / "run.ini")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: \S+exceedances\.json: {message}\n", err), err
    assert not (tmp_path / "out" / "ensembles").exists()


def test_evidence_and_report_artifacts(pipeline_dir):
    evidence = load_json(pipeline_dir / "out" / "evidence.json")
    assert set(evidence["structures"]) == {"ST", "NS1-time"}
    weights = load_json(pipeline_dir / "out" / "weights.json")
    total = sum(v["weight"] for v in weights.values())
    assert total == pytest.approx(1.0, abs=1e-9)

    table = (pipeline_dir / "out" / "table_s2.csv").read_text().splitlines()
    assert table[0] == "return_period_years,q2.5,q5,q25,q50,q75,q95,q97.5"
    assert len(table) == 3  # two requested periods

    curve = load_json(pipeline_dir / "out" / "curve.json")
    assert [row["T"] for row in curve["curve"]] == [10.0, 100.0]

    rl = (pipeline_dir / "out" / "return_levels" / "ST.csv").read_text().splitlines()
    assert rl[0] == "T10,T100"


def test_report_prints_flagged_and_clamped_draws(pipeline_dir, capsys):
    assert main(["report", "--config", str(pipeline_dir / "run.ini")]) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("T=100 draws:")]
    flagged = clamped = 0
    for sid in ("ST", "NS1-time"):
        rows = (pipeline_dir / "out" / "return_levels" / f"{sid}.csv").read_text().splitlines()
        counts = dict(kv.split("=") for kv in rows[1].split(",")[1].split(";"))
        flagged += int(counts["flagged"])
        clamped += int(counts["clamped"])
    assert line == [
        f"T=100 draws: {flagged} flagged and dropped ({clamped} with a non-positive rate), "
        "of 2000 across 2 structures"
    ]


def test_report_writes_the_same_tables_at_any_seed(pipeline_dir, tmp_path):
    # the mixture quantiles are read off the weighted components: nothing is drawn
    shutil.copytree(pipeline_dir, tmp_path, dirs_exist_ok=True)
    written = []
    for seed in ("1", "2"):
        assert main(["report", "--config", str(tmp_path / "run.ini"), "--seed", seed]) == 0
        written.append([(tmp_path / "out" / name).read_bytes()
                        for name in ("table_s2.csv", "curve.json")])
    assert written[0] == written[1]


def test_project_reads_no_priors(pipeline_dir, tmp_path):
    shutil.copytree(pipeline_dir, tmp_path, dirs_exist_ok=True)
    out = tmp_path / "out"
    (out / "priors.json").unlink()
    shutil.rmtree(out / "return_levels")
    assert main(["project", "--config", str(tmp_path / "run.ini")]) == 0
    want = pipeline_dir / "out" / "return_levels"
    assert sorted(p.name for p in (out / "return_levels").iterdir()) == ["NS1-time.csv", "ST.csv"]
    for path in (out / "return_levels").iterdir():
        assert path.read_bytes() == (want / path.name).read_bytes()


def test_all_draws_flagged_exits_1(pipeline_dir, tmp_path, capsys):
    work = tmp_path / "pipeline"
    shutil.copytree(pipeline_dir, work)
    ens = work / "out" / "ensembles" / "ST.csv"
    header, *rows = ens.read_text().splitlines()
    assert header.split(",")[0] == "lam0"
    # a rate of one event per million years cannot reach the T=10 regime
    ens.write_text("\n".join([header] + ["1e-9," + r.split(",", 1)[1] for r in rows]) + "\n")
    assert main(["project", "--config", str(work / "run.ini"), "--structures", "ST"]) == 1
    assert "all draws flagged for ST" in capsys.readouterr().err


def test_a_collapsed_bridge_iteration_exits_1_before_evidence_writes(
    pipeline_dir, tmp_path, capsys, monkeypatch
):
    shutil.copytree(pipeline_dir, tmp_path, dirs_exist_ok=True)
    out = tmp_path / "out"

    def on_the_draws_alone(structure, *args):
        # finite on the ensemble's draws, -inf on every proposal draw
        path = out / "ensembles" / f"{structure.id}.csv"
        draws = {tuple(row) for row in PosteriorEnsemble.load(path, structure).draws.tolist()}
        return lambda row: 0.0 if tuple(row.tolist()) in draws else -math.inf

    monkeypatch.setattr(cli, "make_logpost_on_active", on_the_draws_alone)
    before = _files(out)
    assert main(["evidence", "--config", str(tmp_path / "run.ini")]) == 1
    assert capsys.readouterr().err == (
        "gate failure: bridge iteration collapsed; proposal does not overlap the posterior\n")
    assert _files(out) == before


def test_weights_csv_row_sums_to_one(pipeline_dir):
    lines = (pipeline_dir / "out" / "weights_all.csv").read_text().splitlines()[1:]
    total = sum(float(line.split(",")[1]) for line in lines)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_manifest_carries_config_hash(pipeline_dir):
    manifest = load_json(pipeline_dir / "out" / "manifest.json")
    config_text = (pipeline_dir / "run.ini").read_text()
    from surgebma.utils import sha256_of_text

    assert manifest["config_sha256"] == sha256_of_text(config_text)
    listed = set(manifest["artifacts"])
    assert {"exceedances.json", "priors.json", "evidence.json", "table_s2.csv"} <= listed


def test_run_metadata_written(pipeline_dir):
    meta = load_json(pipeline_dir / "out" / "run_metadata.json")
    assert meta["version"]
    assert "completed_utc" in meta
    assert meta["settings"] == {"seed": 5, "structures": ["ST", "NS1-time"], "force": False,
                                "workers": 1, "output_dir": str(pipeline_dir / "out")}


def test_run_metadata_records_what_the_command_line_overrode(tmp_path):
    config = make_workspace(tmp_path, structures="NS1-time")
    out = tmp_path / "elsewhere"
    assert main(["run-all", "--config", str(config), "--seed", "6", "--structures", "ST",
                 "--force", "--workers", "2", "--output-dir", str(out)]) == 0
    meta = load_json(out / "run_metadata.json")
    assert meta["config_text"] == config.read_text()  # which names none of them
    assert meta["settings"] == {"seed": 6, "structures": ["ST"], "force": True, "workers": 2,
                                "output_dir": str(out)}


def add_station_archive(tmp_path):
    """Two simulated archive stations in ``stations/``, named by the config."""
    stations = tmp_path / "stations"
    stations.mkdir()
    for i, seed in enumerate((41, 42)):
        main(
            ["simulate", "station", "--out", str(stations / f"s{i}.csv"),
             "--first-year", "1984", "--last-year", "2013", "--seed", str(seed)]
        )
    text = (tmp_path / "run.ini").read_text().replace(
        "[run]", "[priors]\nstations_dir = stations\n\n[run]"
    )
    (tmp_path / "run.ini").write_text(text)


def test_fit_priors_from_station_directory(tmp_path, monkeypatch):
    config = make_workspace(tmp_path)
    add_station_archive(tmp_path)
    # the target station's record comes from preprocess's exceedances.json
    assert main(["preprocess", "--config", str(config)]) == 0

    calls, reads = [], []
    build, read = cli.build_covariates, cli.read_hourly_csv
    monkeypatch.setattr(cli, "build_covariates", lambda c: calls.append(c) or build(c))
    monkeypatch.setattr(cli, "read_hourly_csv", lambda p: reads.append(p) or read(p))
    assert main(["fit-priors", "--config", str(config)]) == 0
    assert len(calls) == 1  # once for all three stations
    # the two archive CSVs; preprocess already read the target's
    assert sorted(p.name for p in reads) == ["s0.csv", "s1.csv"]
    mle_table = load_json(tmp_path / "out" / "mle_table.json")
    # two archive stations plus the target station itself
    assert len(mle_table["structures"]["ST"]["estimates"]) == 3
    priors = load_json(tmp_path / "out" / "priors.json")
    assert set(priors["structures"]) == {"ST", "NS1-time"}

    # worker pool must reproduce the serial table exactly
    serial = (tmp_path / "out" / "mle_table.json").read_bytes()
    assert main(["fit-priors", "--config", str(config), "--workers", "2"]) == 0
    assert (tmp_path / "out" / "mle_table.json").read_bytes() == serial


def test_station_priors_of_a_structure_do_not_depend_on_the_others_configured(tmp_path):
    config = make_workspace(tmp_path)
    add_station_archive(tmp_path)
    assert main(["preprocess", "--config", str(config)]) == 0

    def fitted(structures):
        assert main(["fit-priors", "--config", str(config), "--structures", structures]) == 0
        mles = load_json(tmp_path / "out" / "mle_table.json")["structures"]["NS1-time"]
        return mles, load_json(tmp_path / "out" / "priors.json")["structures"]["NS1-time"]

    assert fitted("NS1-time") == fitted("ST, NS1-time")


def test_fit_priors_from_station_directory_needs_preprocess_first(tmp_path, capsys):
    config = make_workspace(tmp_path)
    add_station_archive(tmp_path)
    assert main(["fit-priors", "--config", str(config)]) == 2
    missing = [str(tmp_path / "out" / "exceedances.json")]
    assert capsys.readouterr().err == f"error: missing inputs (run preprocess first): {missing}\n"
    assert not (tmp_path / "out").exists()


def test_stationary_only_run_needs_no_covariate_files(tmp_path):
    config = make_workspace(tmp_path, structures="ST")
    # drop the covariate files and section entirely
    import shutil as _shutil

    _shutil.rmtree(tmp_path / "cov")
    text = (tmp_path / "run.ini").read_text()
    head, _, tail = text.partition("[covariates]")
    tail = tail.partition("[sampler]")[2]
    (tmp_path / "run.ini").write_text(head + "[sampler]" + tail)

    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["fit-priors", "--config", str(config)]) == 0
    assert main(["calibrate", "--config", str(config)]) == 0
    assert main(["evidence", "--config", str(config)]) == 0
    assert main(["project", "--config", str(config)]) == 0


def test_simulate_record_roundtrips_through_ingest_format(tmp_path):
    from surgebma.preprocess import ExceedanceSet

    out = tmp_path / "record.json"
    code = main(
        [
            "simulate", "record", "--out", str(out), "--structure", "NS1-time",
            "--lam0", "0.01", "--lam1", "0.004", "--first-year", "1990",
            "--last-year", "2013", "--seed", "3",
        ]
    )
    assert code == 0
    record = ExceedanceSet.load(out)
    assert record.threshold == 1.0
    assert record.n_events > 0
    assert record.years.tolist() == list(range(1990, 2014))


@pytest.mark.parametrize(
    "structure, stray, message",
    [("ST", ["--lam1", "0.5"], "lam1 not active at level ST"),
     ("NS1-time", ["--sig1", "0.1", "--xi1", "-0.2"], "sig1, xi1 not active at level NS1")],
)
def test_simulate_record_refuses_a_stray_parameter(tmp_path, capsys, structure, stray, message):
    out = tmp_path / "new" / "record.json"
    code = main(["simulate", "record", "--out", str(out), "--structure", structure, *stray])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "new").exists()


SWAPPED_YEARS = ["--first-year", "2000", "--last-year", "1990"]


@pytest.mark.parametrize(
    "what, args, message",
    [("station", SWAPPED_YEARS, "--last-year 1990 is before --first-year 2000"),
     ("covariates", SWAPPED_YEARS, "--last-year 1990 is before --first-year 2000"),
     ("record", SWAPPED_YEARS, "--last-year 1990 is before --first-year 2000"),
     ("covariates", ["--projection-year", "2013", "--last-year", "2013"],
      "--projection-year 2013 is not after --last-year 2013"),
     ("mle-pack", ["--stations", "0"], "--stations must be at least 3 for fit-priors"),
     ("mle-pack", ["--stations", "2"], "--stations must be at least 3 for fit-priors")],
)
def test_simulate_refuses_an_input_it_cannot_use(tmp_path, capsys, what, args, message):
    out = tmp_path / "new" / "out"
    assert main(["simulate", what, "--out", str(out), *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize(
    "what, stray",
    [("station", ["--projection-year", "2050"]),
     ("covariates", ["--stations", "2", "--lam0", "9", "--structure", "NS3-nao",
                     "--threshold", "7"]),
     ("mle-pack", ["--first-year", "2020", "--last-year", "1900"]),
     ("record", ["--stations", "3"])],
)
def test_simulate_refuses_an_option_its_kind_does_not_read(tmp_path, capsys, what, stray):
    out = tmp_path / "new" / "out"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", what, "--out", str(out), *stray])
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(stray)}\n" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize(
    "what, args, written",
    [("station", ["--first-year", "2010", "--last-year", "2013"], "out"),
     ("covariates", ["--first-year", "2010", "--last-year", "2013"], "out/nao_proj.csv"),
     ("mle-pack", ["--stations", "3"], "out"),
     ("record", [], "out")],
)
def test_simulate_writes_into_a_directory_it_makes(tmp_path, capsys, what, args, written):
    assert main(["simulate", what, "--out", str(tmp_path / "new" / "dir" / "out"), *args]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "new" / "dir" / written).is_file()


def test_simulate_mle_pack_of_the_fewest_stations_fits_priors(tmp_path):
    from surgebma.priors import MIN_PRIOR_SAMPLES, fit_all_priors, load_mle_table

    out = tmp_path / "pack.json"
    assert main(["simulate", "mle-pack", "--out", str(out), "--stations", str(MIN_PRIOR_SAMPLES)]) == 0
    assert len(fit_all_priors(load_mle_table(out))) == len(all_structures())


def test_simulate_mle_pack_rebuilds_the_packaged_table_from_its_meta(tmp_path):
    from importlib import resources

    packaged = load_json(resources.files("surgebma").joinpath(cli.PACKAGED_MLE_PACK))
    meta = packaged["meta"]
    out = tmp_path / "pack.json"
    argv = ["simulate", "mle-pack", "--out", str(out),
            "--seed", str(meta["seed"]), "--stations", str(meta["stations"])]
    assert main(argv) == 0
    rebuilt = load_json(out)
    assert rebuilt["meta"] == meta
    assert rebuilt["structures"].keys() == packaged["structures"].keys()
    for sid, entry in packaged["structures"].items():
        assert rebuilt["structures"][sid]["param_names"] == entry["param_names"]
        np.testing.assert_allclose(
            rebuilt["structures"][sid]["estimates"], entry["estimates"], rtol=0, atol=1e-6,
            err_msg=sid)


def test_calibrate_structure_spellings_write_only_that_structure(tmp_path):
    config = make_workspace(tmp_path, structures="ST, NS1-time")
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["fit-priors", "--config", str(config)]) == 0
    ensembles = []
    # "--structure" is argparse's unambiguous prefix of "--structures"
    for option in ("--structures", "--structure"):
        for sub in ("ensembles", "diagnostics"):
            shutil.rmtree(tmp_path / "out" / sub, ignore_errors=True)
        assert main(["calibrate", "--config", str(config), option, "NS1-time"]) == 0
        assert os.listdir(tmp_path / "out" / "ensembles") == ["NS1-time.csv"]
        assert os.listdir(tmp_path / "out" / "diagnostics") == ["NS1-time.json"]
        ensembles.append((tmp_path / "out" / "ensembles" / "NS1-time.csv").read_bytes())
    assert ensembles[0] == ensembles[1]


@pytest.mark.parametrize(
    "option, fitted", [("all", {s.id for s in all_structures()}), ("ST,", {"ST"})]
)
def test_structures_option_reads_as_the_config_key_does(tmp_path, option, fitted):
    config = make_workspace(tmp_path, structures="ST, NS1-time")
    assert main(["fit-priors", "--config", str(config), "--structures", option]) == 0
    assert set(load_json(tmp_path / "out" / "priors.json")["structures"]) == fitted


def child_env():
    """The environment for a child interpreter that imports this ``surgebma``:
    its source directory first on ``PYTHONPATH``, however pytest was started."""
    source = str(Path(cli.__file__).resolve().parents[1])
    path = [source, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def test_console_entrypoint_runs():
    out = subprocess.run(
        [sys.executable, "-m", "surgebma.cli", "--version"],
        capture_output=True, text=True, env=child_env(),
    )
    assert out.returncode == 0
    assert "surgebma" in out.stdout


SCIPY_GUARD = """
import json, sys
from surgebma.cli import main

years = ["--first-year", "1984", "--last-year", "2013"]
commands = [
    ["simulate", "station", "--out", "station.csv", *years, "--seed", "21"],
    ["simulate", "covariates", "--out", "cov", *years, "--projection-year", "2030", "--seed", "22"],
    *([stage, "--config", "run.ini"]
      for stage in ("preprocess", "fit-priors", "calibrate", "evidence", "project", "report")),
]
loaded = {}
for argv in commands:
    assert main(argv) == 0, argv
    command = " ".join(argv[:2]) if argv[0] == "simulate" else argv[0]
    loaded[command] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(loaded))
"""


def test_simulate_and_every_stage_never_load_scipy(tmp_path):
    # a fresh interpreter, since this one has long since imported scipy; the
    # workspace and config of pipeline_dir, which run-all runs end to end
    (tmp_path / "run.ini").write_text(CONFIG_TEMPLATE.format(structures="ST, NS1-time", gate="1.5"))
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_GUARD],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
    )
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert list(loaded) == ["simulate station", "simulate covariates", "preprocess",
                            "fit-priors", "calibrate", "evidence", "project", "report"]
    # scipy modules loaded by the end of each command: the first listed here loaded them
    assert [command for command, modules in loaded.items() if modules] == []


def test_a_malformed_mle_pack_exits_2_before_fit_priors_writes(tmp_path, capsys):
    config = make_workspace(tmp_path, structures="ST")
    (tmp_path / "pack.json").write_text('{"meta": {}}')
    with open(config, "a") as fh:
        fh.write("\n[priors]\nmle_pack = pack.json\n")
    assert main(["fit-priors", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: \S+pack\.json: missing key 'structures'\n", err)
    assert not (tmp_path / "out").exists()


def _pack_without_st(tmp_path):
    packaged = load_json(resources.files("surgebma").joinpath(cli.PACKAGED_MLE_PACK))
    del packaged["structures"]["ST"]
    (tmp_path / "pack.json").write_text(json.dumps(packaged))
    return "[priors]\nmle_pack = pack.json\n"


def _pack_with_permuted_ns2_columns(tmp_path):
    """NS2-time's sig1 and xi0 columns swapped, and its param_names with them."""
    packaged = load_json(resources.files("surgebma").joinpath(cli.PACKAGED_MLE_PACK))
    entry = packaged["structures"]["NS2-time"]
    entry["param_names"] = ["lam0", "lam1", "sig0", "xi0", "sig1"]
    entry["estimates"] = [row[:3] + [row[4], row[3]] for row in entry["estimates"]]
    (tmp_path / "pack.json").write_text(json.dumps(packaged))
    return "[priors]\nmle_pack = pack.json\n"


def _empty_stations_dir(tmp_path):
    (tmp_path / "stations").mkdir()
    return "[priors]\nstations_dir = stations\n"


@pytest.mark.parametrize(
    "priors, message",
    [(_pack_without_st, r"MLE pack \S+pack\.json lacks structures: \['ST'\]"),
     (_pack_with_permuted_ns2_columns,
      r"\S+pack\.json: NS2-time lists param_names \['lam0', 'lam1', 'sig0', 'xi0', 'sig1'\], "
      r"not \['lam0', 'lam1', 'sig0', 'sig1', 'xi0'\]"),
     (_empty_stations_dir, r"no station CSVs in \S+stations")],
)
def test_fit_priors_refuses_a_source_without_the_estimates_it_needs(
    tmp_path, capsys, priors, message
):
    config = make_workspace(tmp_path, structures="ST")
    with open(config, "a") as fh:
        fh.write("\n" + priors(tmp_path))
    assert main(["preprocess", "--config", str(config)]) == 0
    before = _files(tmp_path / "out")
    capsys.readouterr()
    assert main(["fit-priors", "--config", str(config)]) == 2
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
    assert _files(tmp_path / "out") == before


READ_IN_A_CHILD = """
import sys
from surgebma.preprocess import read_hourly_csv

try:
    read_hourly_csv(sys.argv[1])
except ValueError as exc:
    print(exc)
"""


def write_plain_hourly_csv(path, n, bad_row, stamp):
    """``n`` plain rows of hourly levels, the stamp of row ``bad_row`` (from 0)
    replaced by ``stamp``."""
    stamps = np.datetime_as_string(np.datetime64("2000-01-01T00") + np.arange(n)).tolist()
    stamps[bad_row] = stamp
    path.write_text("timestamp,level_m\n" + "".join(f"{s},1.0\n" for s in stamps))


# in one numpy 2.4 cast of more than 500 byte stamps, each of the first four
# killed the process instead of raising: so each test reads in a child
# interpreter; numpy casts the last with a warning, which the cast raises
BAD_PLAIN_STAMPS = ["2000-02-30T00", "notatime", "2000-01-01T", "2000-01-01T05a",
                    "2000-01-01T05+0100"]


@pytest.mark.parametrize("stamp", BAD_PLAIN_STAMPS)
def test_hourly_csv_reader_refuses_a_bad_stamp_among_more_than_500(tmp_path, stamp):
    path = tmp_path / "station.csv"
    write_plain_hourly_csv(path, 2000, 1000, stamp)
    rows = path.read_text().split("\n", 1)[1]
    # one chunk at the default size, read the bytes way
    assert len(rows) < preprocess.READ_CHUNK_CHARS
    assert preprocess._bulk_columns(rows) is not None
    with pytest.raises(ValueError) as want:
        read_hourly_csv_rows(path)
    out = subprocess.run(
        [sys.executable, "-c", READ_IN_A_CHILD, str(path)],
        capture_output=True, text=True, env=child_env(),
    )
    assert out.returncode == 0, out.stderr  # a signal reads as a negative code
    assert out.stdout == f"{want.value}\n"


# a day out of range, a zone numpy warns of, an offset it would apply, and a
# stamp numpy reads as the clock: each is the one line on stderr
@pytest.mark.parametrize("stamp", ["2000-02-30T00", "2000-01-01T05a", "2000-01-01T05+0100", "now"])
def test_a_bad_stamp_among_more_than_500_exits_2_before_preprocess_writes(tmp_path, stamp):
    config = make_workspace(tmp_path, structures="ST")
    write_plain_hourly_csv(tmp_path / "station.csv", 5000, 2499, stamp)
    out = subprocess.run(
        [sys.executable, "-m", "surgebma.cli", "preprocess", "--config", str(config)],
        capture_output=True, text=True, env=child_env(),
    )
    assert out.returncode == 2, out.stderr
    want = rf"error: \S+station\.csv:2501: bad timestamp {re.escape(repr(stamp))}\n"
    assert re.fullmatch(want, out.stderr), out.stderr
    assert not (tmp_path / "out").exists()


def test_preprocess_names_the_line_a_bad_row_starts_on(tmp_path, capsys):
    # the first row's quoted level spans lines 2 and 3
    config = make_workspace(tmp_path, structures="ST")
    with open(tmp_path / "station.csv", "w", newline="") as fh:
        fh.write('timestamp,level_m\n2000-01-01T00,"1.0\n"\n2000-01-01T01,2.0\n'
                 '2000-01-01T02,3.0\nnotatime,4.0\n')
    assert main(["preprocess", "--config", str(config)]) == 2
    want = rf"error: \S+station\.csv:6: bad timestamp 'notatime'\n"
    assert re.fullmatch(want, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_st_desk_scale_calibration_under_budget(tmp_path):
    import time

    config = make_workspace(tmp_path, structures="ST")
    text = (tmp_path / "run.ini").read_text()
    text = text.replace("n_iterations = 1200", "n_iterations = 10000")
    text = text.replace("n_chains = 2", "n_chains = 4")
    text = text.replace("burn_in = 200", "burn_in = 1000")
    (tmp_path / "run.ini").write_text(text)
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["fit-priors", "--config", str(config)]) == 0
    t0 = time.perf_counter()
    assert main(["calibrate", "--config", str(config)]) == 0
    assert time.perf_counter() - t0 < 60.0


def test_psrf_gate_failure_exit_code_and_force(tmp_path):
    # a gate nobody can pass: any finite chain has PSRF above 1.0
    config = make_workspace(tmp_path, structures="ST", gate="1.0")
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["fit-priors", "--config", str(config)]) == 0
    assert main(["calibrate", "--config", str(config)]) == 1
    assert main(["calibrate", "--config", str(config), "--force"]) == 0
    diag = load_json(tmp_path / "out" / "diagnostics" / "ST.json")
    assert diag["forced"] is True
    assert diag["psrf_gate_failed"]


def test_chains_that_never_moved_exit_1_also_with_force(tmp_path, monkeypatch, capsys):
    config = make_workspace(tmp_path, structures="ST")
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["fit-priors", "--config", str(config)]) == 0

    def frozen_chains(structure, log_posterior, start, chain_config):
        chains = np.tile(start, (chain_config.n_chains, chain_config.n_iterations, 1))
        return RawChains(structure, chains, np.zeros(chain_config.n_chains), chain_config)

    monkeypatch.setattr(cli, "run_chains", frozen_chains)
    capsys.readouterr()
    # no PSRF to force past: zero within-chain variance is a failed computation
    for force in ([], ["--force"]):
        assert main(["calibrate", "--config", str(config), *force]) == 1
        assert "gate failure: degenerate chains" in capsys.readouterr().err
    assert not (tmp_path / "out" / "ensembles" / "ST.csv").exists()


def test_seed_override_changes_artifacts(tmp_path):
    config = make_workspace(tmp_path, structures="ST")
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["fit-priors", "--config", str(config)]) == 0
    assert main(["calibrate", "--config", str(config)]) == 0
    a = (tmp_path / "out" / "ensembles" / "ST.csv").read_bytes()
    assert main(["calibrate", "--config", str(config), "--seed", "6"]) == 0
    b = (tmp_path / "out" / "ensembles" / "ST.csv").read_bytes()
    assert a != b


def test_parallel_workers_reproduce_serial_artifacts(tmp_path):
    # a station archive, so that fit-priors runs its per-station pool too
    config = make_workspace(tmp_path, structures="ST, NS1-time")
    add_station_archive(tmp_path)

    def artifacts(out):
        # run_metadata.json alone holds a timestamp
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "run_metadata.json"}

    # three stations' priors leave the short chains above the PSRF gate; the
    # gate's outcome is not what this test checks, so both runs pool past it
    assert main(["run-all", "--config", str(config), "--force"]) == 0
    assert main(["run-all", "--config", str(config), "--force", "--workers", "2",
                 "--output-dir", str(tmp_path / "out2")]) == 0
    serial = artifacts(tmp_path / "out")
    assert {"mle_table.json", "ensembles/NS1-time.csv", "curve.json"} <= set(serial)
    assert artifacts(tmp_path / "out2") == serial


QUANTILE_LEVELS_REFUSED = "quantile_levels must lie in (0, 1) and include 0.05, 0.5, 0.95"
PERIODS_REFUSED = "return_periods must list one or more positive finite periods"
WINDOW_DAYS_REFUSED = "[preprocess] detrend_window_days must be a finite number >= 1"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("return_periods = 10, 100", "return_periods = 10, 100\nquantile_levels = 0.25, 0.75",
         QUANTILE_LEVELS_REFUSED),
        ("return_periods = 10, 100",
         "return_periods = 10, 100\nquantile_levels = 0.05, 0.5, 0.95, 1",
         QUANTILE_LEVELS_REFUSED),
        ("return_periods = 10, 100", "return_periods = 0, 100", PERIODS_REFUSED),
        ("return_periods = 10, 100", "return_periods = -5, 100", PERIODS_REFUSED),
        # report reads its quantiles off the weighted components and draws nothing
        ("return_periods = 10, 100", "return_periods = 10, 100\nmixture_size = 20000",
         "unknown config option [projection] mixture_size"),
        # 2 chains x (400 - 200) iterations cannot pool thinned_size = 1000 draws
        ("n_iterations = 1200", "n_iterations = 400",
         "thinned_size 1000 exceeds the pooled sample of "
         "n_chains x (n_iterations - burn_in) = 400"),
        # the PSRF needs two chains and 10 post-burn-in iterations of each
        ("n_chains = 2", "n_chains = 1", "n_chains must be at least 2 for the PSRF"),
        ("burn_in = 200\nthinned_size = 1000", "burn_in = 1195\nthinned_size = 10",
         "n_iterations - burn_in must be at least 10 for the PSRF"),
        # bridge sampling needs 1000 draws
        ("thinned_size = 1000", "thinned_size = 500",
         "thinned_size must be at least 1000 for bridge sampling"),
        # a key or section that no setting reads would leave the default in force
        ("n_iterations = 1200", "n_iteration = 1200", "unknown config option [sampler] n_iteration"),
        ("[run]", "[bogus]\nseed = 1\n\n[run]", "unknown config section [bogus]"),
        ("psrf_gate = ", "target_acceptance = 0.234\npsrf_gate = ",
         "unknown config option [sampler] target_acceptance"),
        # every stage would run ST twice, and report would then refuse the evidence
        ("structures = ST", "structures = ST, ST", "repeated structures in ST, ST"),
        # table_s2.csv would show a repeated level twice, and curve.json once
        ("return_periods = 10, 100",
         "return_periods = 10, 100\nquantile_levels = 0.05, 0.5, 0.95, 0.5",
         "repeated quantile_levels in 0.05, 0.5, 0.95, 0.5"),
        ("return_periods = 10, 100", "return_periods = 10, 100, 100.0",
         "repeated return_periods in 10.0, 100.0, 100.0"),
        # preprocess settings that its functions would refuse only after the
        # hourly record was read
        ("[run]", "[preprocess]\ndetrend_window_days = inf\n\n[run]", WINDOW_DAYS_REFUSED),
        ("[run]", "[preprocess]\ndetrend_window_days = nan\n\n[run]", WINDOW_DAYS_REFUSED),
        ("[run]", "[preprocess]\ndetrend_window_days = 0.5\n\n[run]", WINDOW_DAYS_REFUSED),
        ("[run]", "[preprocess]\nmin_valid_hours = 0\n\n[run]",
         "[preprocess] min_valid_hours must be in [1, 24]"),
        ("[run]", "[preprocess]\nthreshold_quantile = 1.5\n\n[run]",
         "[preprocess] threshold_quantile must lie in (0, 1)"),
        ("[run]", "[preprocess]\nseparation_days = 0\n\n[run]",
         "[preprocess] separation_days must be at least 1"),
        ("seed = 5", "seed = 5\nworkers = -3", "workers must be at least 1"),
        # no PSRF reaches a NaN or infinite gate; --force is the one way past it
        ("psrf_gate = 1.5", "psrf_gate = nan", "psrf_gate must be finite, got nan"),
        ("psrf_gate = 1.5", "psrf_gate = inf", "psrf_gate must be finite, got inf"),
        ("return_periods = 10, 100", "return_periods = 10, inf", PERIODS_REFUSED),
        # no chain keeps an iteration past its burn-in
        ("burn_in = 200", "burn_in = 1200", "burn_in must be smaller than n_iterations"),
        ("[station]\nhourly_csv = station.csv\n", "", "config needs [station] hourly_csv"),
        ("calibration_start = 1984", "calibration_start = 2013",
         "window years must satisfy start < end <= projection"),
    ],
    ids=["no_median", "level_1", "zero_period", "negative_period", "mixture_size", "thinned_size",
         "one_chain", "short_segment", "small_ensemble", "misspelled_key", "unknown_section",
         "target_acceptance", "repeated_structure", "repeated_level", "repeated_period",
         "infinite_window", "nan_window", "short_window", "no_valid_hours", "quantile_above_1",
         "zero_separation", "negative_workers", "nan_gate", "infinite_gate", "infinite_period",
         "burn_in_of_every_iteration", "no_station", "window_not_ordered"],
)
def test_bad_config_values_exit_2_before_any_stage(tmp_path, capsys, old, new, message):
    config = make_workspace(tmp_path, structures="ST")
    text = config.read_text()
    assert old in text
    config.write_text(text.replace(old, new))
    assert main(["run-all", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_repeated_structure_option_exits_2_before_any_stage(tmp_path, capsys):
    config = make_workspace(tmp_path, structures="ST")
    assert main(["run-all", "--config", str(config), "--structures", "ST,ST"]) == 2
    assert capsys.readouterr().err.startswith("error: repeated structures")
    assert not (tmp_path / "out").exists()


def test_zero_workers_option_exits_2_before_any_stage(tmp_path, capsys):
    config = make_workspace(tmp_path, structures="ST")
    assert main(["run-all", "--config", str(config), "--workers", "0"]) == 2
    assert capsys.readouterr().err == "error: workers must be at least 1\n"
    assert not (tmp_path / "out").exists()


def test_missing_inputs_exit_2_with_workers(tmp_path, capsys):
    config = make_workspace(tmp_path)
    errors = []
    for workers in ("1", "2"):
        assert main(["calibrate", "--config", str(config), "--workers", workers]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error: missing inputs (run preprocess/fit-priors first)")
    assert errors[1] == errors[0]


@pytest.mark.parametrize("kind", ["temperature", "sealevel", "nao"])
def test_missing_covariate_file_option_exits_2(tmp_path, capsys, kind):
    config = make_workspace(tmp_path, structures=f"NS1-{kind}")
    config.write_text(re.sub(f"^{kind}_hist = .*\n", "", config.read_text(), flags=re.M))
    assert main(["run-all", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: missing covariate file option {kind}_hist\n"


def test_serial_calibrate_loads_inputs_once(tmp_path, monkeypatch):
    config = make_workspace(tmp_path, structures="ST, NS1-time, NS1-sealevel")
    config.write_text(config.read_text().replace("n_iterations = 1200", "n_iterations = 700"))
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["fit-priors", "--config", str(config)]) == 0

    calls = []
    load = cli._load_inputs
    monkeypatch.setattr(cli, "_load_inputs", lambda c: calls.append(c) or load(c))
    assert main(["calibrate", "--config", str(config)]) == 0
    assert len(calls) == 1  # not one per structure


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="counts through a patched module global, which only forked workers inherit",
)
def test_calibrate_workers_load_inputs_once_per_process(tmp_path, monkeypatch):
    config = make_workspace(tmp_path, structures="ST, NS1-time, NS1-sealevel")
    config.write_text(config.read_text().replace("n_iterations = 1200", "n_iterations = 700"))
    assert main(["preprocess", "--config", str(config)]) == 0
    assert main(["fit-priors", "--config", str(config)]) == 0

    calls = tmp_path / "loads.txt"
    load = cli._load_inputs

    def counted(run_config):
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return load(run_config)

    monkeypatch.setattr(cli, "_load_inputs", counted)
    assert main(["calibrate", "--config", str(config), "--workers", "2"]) == 0
    pids = calls.read_text().split()
    # one load per worker process, not one per structure
    assert 1 <= len(pids) <= 2 and len(set(pids)) == len(pids)
    assert os.getpid() not in map(int, pids)


def test_main_runs_the_commands_and_density_factory_that_cli_holds_when_it_runs(
    tmp_path, monkeypatch
):
    # a tracer replaces cli's stage commands and density factories by name,
    # after the module is imported: main and the stages must find the
    # replacements, not what cli held at import
    config = make_workspace(tmp_path, structures="ST, NS1-time")
    config.write_text(config.read_text().replace("n_iterations = 1200", "n_iterations = 700"))
    reports = []
    monkeypatch.setattr(cli, "cmd_report", lambda c: reports.append(c) or 0)
    assert main(["report", "--config", str(config)]) == 0
    assert len(reports) == 1
    monkeypatch.setattr(cli, "cmd_preprocess", lambda c: 1)
    assert main(["run-all", "--config", str(config)]) == 1  # stopped at its first stage
    monkeypatch.undo()

    for stage in ("preprocess", "fit-priors", "calibrate"):
        assert main([stage, "--config", str(config)]) == 0
    factories = []
    factory = cli.make_logpost_on_active
    monkeypatch.setattr(
        cli, "make_logpost_on_active", lambda s, *a: factories.append(s.id) or factory(s, *a)
    )
    assert main(["evidence", "--config", str(config)]) == 0
    assert factories == ["ST", "NS1-time"]
