"""Output checks over the timed repeats of one run.

An operation is one stage invocation. It fails when it exits nonzero, when
an earlier stage of its repeat failed, or when a check below fails on an
artifact that the stage wrote:

- every artifact except ``run_metadata.json`` is byte-identical across the
  repeats of one seed (the pipeline's determinism contract);
- the BMA weights in ``weights.json`` sum to 1 within 1e-9;
- the T=100 median in ``table_s2.csv`` is finite and inside its own 90% range;
- ``priors.json`` gives every active parameter of every configured structure
  the family that ``prior_family_for`` requires.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

WEIGHT_TOL = 1e-9
NOT_COMPARED = {"run_metadata.json"}  # holds a wall-clock timestamp

# artifact path prefix -> stage that writes it; anything else is a report table
_WRITER = (
    ("exceedances.json", "preprocess"),
    ("priors.json", "fit-priors"),
    ("mle_table.json", "fit-priors"),
    ("ensembles/", "calibrate"),
    ("diagnostics/", "calibrate"),
    ("evidence.json", "evidence"),
    ("return_levels/", "project"),
)


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every artifact under ``out_dir``, keyed by relative path."""
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name not in NOT_COMPARED
    }


def combined_digest(digests: dict[str, str]) -> str:
    text = "".join(f"{path}:{sha}\n" for path, sha in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def writer_stage(path: str, stages: tuple) -> str:
    """Timed stage to blame for a bad artifact (the last one for shared files)."""
    stage = next((s for prefix, s in _WRITER if path.startswith(prefix)), "report")
    if path == "manifest.json" or stage not in stages:
        return stages[-1]
    return stage


def check_weights(out_dir: Path, structures) -> str | None:
    weights = json.loads((out_dir / "weights.json").read_text())
    if set(weights) != set(structures):
        return f"weights.json covers {sorted(weights)}, expected {sorted(structures)}"
    total = math.fsum(entry["weight"] for entry in weights.values())
    if abs(total - 1.0) > WEIGHT_TOL:
        return f"BMA weights sum to {total!r}"
    return None


def check_t100(out_dir: Path) -> str | None:
    with open(out_dir / "table_s2.csv", newline="") as fh:
        rows = {row["return_period_years"]: row for row in csv.DictReader(fh)}
    if "100" not in rows:
        return "table_s2.csv has no T=100 row"
    med, lo, hi = (float(rows["100"][k]) for k in ("q50", "q5", "q95"))
    if not (math.isfinite(med) and lo <= med <= hi):
        return f"T=100 median {med!r} outside its 90% range [{lo!r}, {hi!r}]"
    return None


def check_priors(out_dir: Path, structures) -> str | None:
    from surgebma.models import ModelStructure
    from surgebma.priors import prior_family_for

    stored = json.loads((out_dir / "priors.json").read_text())["structures"]
    for sid in structures:
        structure = ModelStructure.parse(sid)
        for name in structure.active_params:
            spec = stored.get(sid, {}).get(name)
            want = prior_family_for(name, structure.level)
            if spec is None or spec["family"] != want:
                return f"priors.json: {sid}.{name} needs a {want} prior, got {spec}"
    return None


def evaluate(repeats: list[dict], stages: tuple, structures) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the timed repeats of one run.

    Each repeat is ``{"out": Path, "rc": {stage: exit code}, "digests": {...}}``;
    a stage missing from ``rc`` never ran because an earlier one failed.
    """
    failed: set[tuple[int, str]] = set()
    problems: list[str] = []

    def blame(i: int, stage: str, why: str) -> None:
        failed.add((i, stage))
        problems.append(f"repeat {i} {stage}: {why}")

    for i, rep in enumerate(repeats):
        for stage in stages:
            rc = rep["rc"].get(stage)
            if rc != 0:
                blame(i, stage, "not run" if rc is None else f"exit code {rc}")
        out = rep["out"]
        content_checks = []
        if "report" in stages:
            content_checks += [("report", lambda: check_weights(out, structures)),
                               ("report", lambda: check_t100(out))]
        content_checks.append((writer_stage("priors.json", stages),
                               lambda: check_priors(out, structures)))
        for stage, check in content_checks:
            try:
                why = check()
            except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
                why = f"unreadable artifact: {exc!r}"
            if why:
                blame(i, stage, why)

    first = repeats[0]["digests"]
    for i, rep in enumerate(repeats[1:], start=1):
        for path in sorted(set(first) | set(rep["digests"])):
            if first.get(path) != rep["digests"].get(path):
                blame(i, writer_stage(path, stages), f"{path} differs from repeat 0")
    return len(repeats) * len(stages), len(failed), problems
