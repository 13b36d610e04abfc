"""Self-tests of the benchmark: tiny-size runs of the real pipeline, the output
checks against damaged repeats, and the tracer.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# about a second per repeat, same code paths as the full size
TINY = workloads.Size(
    first_year=1994,
    last_year=2013,
    archive_first_year=1994,
    n_stations=2,
    structures=("ST", "NS1-nao"),
    desk_chains=dict(n_chains=4, n_iterations=300, burn_in=50),
)


@pytest.fixture
def bench(monkeypatch, capsys):
    """Run one tiny-size workload in this process; (human-readable lines, final JSON)."""
    monkeypatch.setattr(workloads, "SIZE", TINY)

    def go(workload: str, trace: int) -> tuple[str, dict]:
        rc = run.run(argparse.Namespace(workload=workload, seed=5, seconds=1, trace=trace))
        stdout = capsys.readouterr().out
        assert rc == 0
        *human, last = stdout.strip().splitlines()
        final = json.loads(last)
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["attempted"] >= 1
        return "\n".join(human), final

    return go


def units(entries) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert units(SPEC["end_to_end"]) == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in PER_LAYER]


def test_untraced_run_emits_every_end_to_end_metric(bench):
    human, final = bench("desk", 0)
    assert final["correct"] and final["failed"] == 0
    assert {k: m["unit"] for k, m in final["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in final["metrics"].values())
    for stage in workloads.make_workload("desk", TINY).stages:
        assert f"#   {stage.replace('-', '_')}_s " in human
    for line in ("chain_iters_per_s", "failed_frac", "artifacts_sha256", "provenance"):
        assert line in human


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(bench, workload):
    human, final = bench(workload, 1)
    assert final["correct"] and final["failed"] == 0
    assert {k: m["unit"] for k, m in final["metrics"].items()} == units(SPEC["per_layer"])
    value = {k: m["value"] for k, m in final["metrics"].items()}
    exercised = {
        "desk": ["preprocess.read_hourly_csv_s", "priors.mle_fit_s.NS1", "sampler.step_self_us",
                 "models.logpost_us.NS1.p50", "evidence.bridge_self_s", "evidence.logq_evals",
                 "evidence.bridge_iterations", "hazard.ensemble_return_levels_s",
                 "hazard.bma_mixture_s", "cli.ensemble_load_s", "cli.project_self_s",
                 "cli.calibrate_attributed_frac"],
        "archive": ["preprocess.rows_per_s", "config.build_covariates_calls",
                    "priors.mle_objective_evals", "priors.loglik_us.ST.p50"],
    }[workload]
    assert all(value[name] > 0 for name in exercised), {n: value[n] for n in exercised}
    if workload == "archive":
        assert value["sampler.run_chains_s"] == 0
        assert value["models.logpost_evals"] == 0  # MLE evals are counted under priors
    assert "spans written to" in human


@pytest.fixture(scope="module")
def archive_repeat(tmp_path_factory):
    """The tiny archive workload's inputs and one clean timed repeat."""
    from surgebma import cli

    work = tmp_path_factory.mktemp("archive")
    wl = workloads.make_workload("archive", TINY)
    config = run.set_up(wl, TINY, 5, work / "inputs")
    return cli, wl, config, run.timed_call(cli, wl.stages, config, work / "rep0")


def evaluate(wl, first: dict, second: dict) -> tuple[int, int, list[str]]:
    return checks.evaluate([first, second], wl.stages, wl.structure_ids(TINY))


def test_corrupted_artifact_fails_the_output_check(archive_repeat, tmp_path):
    _, wl, _, first = archive_repeat
    out = tmp_path / "out"
    shutil.copytree(first["out"], out)
    clean = {**first, "out": out, "digests": checks.artifact_digests(out)}
    assert evaluate(wl, first, clean) == (2 * len(wl.stages), 0, [])

    victim = out / "exceedances.json"
    data = victim.read_bytes()
    i = next(i for i, byte in enumerate(data) if chr(byte).isdigit())
    victim.write_bytes(data[:i] + str((int(chr(data[i])) + 1) % 10).encode() + data[i + 1:])
    corrupted = {**clean, "digests": checks.artifact_digests(out)}
    attempted, failed, problems = evaluate(wl, first, corrupted)
    assert (attempted, failed) == (2 * len(wl.stages), 1)
    assert problems == ["repeat 1 preprocess: exceedances.json differs from repeat 0"]


def test_reseeded_repeat_fails_the_output_check(archive_repeat, tmp_path):
    cli, wl, config, first = archive_repeat
    reseeded = config.with_name("reseeded.ini")
    reseeded.write_text(wl.config_text(6, TINY))  # same inputs, another [run] seed
    second = run.timed_call(cli, wl.stages, reseeded, tmp_path / "out")
    assert second["rc"] == {stage: 0 for stage in wl.stages}
    attempted, failed, problems = evaluate(wl, first, second)
    assert 1 <= failed <= attempted
    assert any("differs from repeat 0" in p for p in problems), problems


def test_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_excludes_child_spans_evals_and_their_bookkeeping():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        tracer.record_eval("sampler", "ST", 0.25, float("-inf"))
        tracer.cover(0.3)  # the eval plus the tracer's bookkeeping of it
    inner, outer = tracer.spans
    assert outer["parent"] is None and inner["parent"] == outer["id"]
    covered = inner["duration_s"] + 0.3
    assert outer["self_s"] == pytest.approx(outer["duration_s"] - covered)
    assert tracer.neginf["sampler"] == 1
    assert tracer.evals[("sampler", "ST")].quantile(0.5) == pytest.approx(0.25, rel=0.03)
