"""Command-line pipeline: preprocess, fit-priors, calibrate, evidence,
project, report, plus synthetic-fixture generation and a run-all driver.

Exit codes: 0 success, 1 computation gate failure (unconverged chains without
--force, every draw flagged, a collapsed bridge iteration), 2 input or
configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import datetime
import hashlib
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, build_covariates, load_config, needed_covariate_kinds
from .covariates import CovariateKind
from .evidence import (
    EvidenceEstimate,
    bma_weights,
    aggregate_by_covariate,
    bridge_evidence,
    save_evidence_report,
    weights_by_level_within_covariate,
    write_aggregated_weights_csv,
)
from .hazard import (
    ReturnLevelEnsemble,
    bma_mixture,
    ensemble_return_levels,
    hazard_report,
    write_curve_json,
    write_quantile_table_csv,
)
# make_logpost is not called in this module; bench/tracing.py wraps the density
# factories under their names here, so both row factories stay importable from it
from .models import (
    ModelStructure,
    NonstatLevel,
    ParameterVector,
    make_logpost,
    make_logpost_on_active,
    make_logpost_rows,
)
from .preprocess import ExceedanceSet, preprocess_station, read_hourly_csv
from .priors import (
    fit_all_priors,
    load_mle_table,
    load_priors,
    mle_fit,
    save_mle_table,
    save_priors,
)
from .sampler import PosteriorEnsemble, pool_and_thin, run_chains
from .utils import GateError, dump_json, format_float, load_json

log = logging.getLogger("surgebma")

EXIT_OK, EXIT_GATE, EXIT_INPUT = 0, 1, 2

PACKAGED_MLE_PACK = "data/mle_fixtures.json"


def stage_seed(seed: int, *tags) -> int:
    """Stable per-stage RNG seed derived from the run seed and stage tags."""
    text = ":".join([str(seed), *map(str, tags)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def _note_artifacts(config: RunConfig, *paths: Path) -> None:
    """Record each artifact against the config hash in the output manifest."""
    manifest_path = config.out("manifest.json")
    manifest = load_json(manifest_path) if manifest_path.exists() else None
    if manifest is None or manifest.get("config_sha256") != config.config_hash:
        # a changed config starts a fresh manifest; stale entries would lie
        manifest = {"config_sha256": config.config_hash, "artifacts": []}
    names = {str(p.relative_to(config.output_dir)) for p in paths}
    manifest["artifacts"] = sorted(set(manifest["artifacts"]) | names)
    dump_json(manifest, manifest_path)


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


def cmd_preprocess(config: RunConfig) -> int:
    series = read_hourly_csv(config.station_csv)
    data = preprocess_station(
        series,
        config.calibration_start,
        config.calibration_end,
        window_days=config.detrend_window_days,
        min_valid_hours=config.min_valid_hours,
        threshold_quantile=config.threshold_quantile,
        separation_days=config.separation_days,
    )
    path = config.out("exceedances.json")
    dump_json({"config_sha256": config.config_hash, **data.to_dict()}, path)
    _note_artifacts(config, path)

    counts = ", ".join(f"{b.year}:{b.count}" for b in data.years if b.count)
    print(f"threshold: {data.threshold:.4f} m")
    print(f"events: {data.n_events} over {len(data.years)} years")
    print(f"counts per year (nonzero): {counts}")
    return EXIT_OK


def _mle_pack_path(config: RunConfig) -> Path:
    if config.mle_pack is not None:
        return config.mle_pack
    return Path(resources.files("surgebma").joinpath(PACKAGED_MLE_PACK))


def _station_mles(config: RunConfig, path: Path, index: int) -> dict[str, list]:
    """All-structure MLE fits for one station record; order-independent."""
    structures = config.structure_list()
    covs = build_covariates(config, needed_covariate_kinds(config))
    series = read_hourly_csv(path)
    record = preprocess_station(
        series,
        config.calibration_start,
        config.calibration_end,
        window_days=config.detrend_window_days,
        min_valid_hours=config.min_valid_hours,
        threshold_quantile=config.threshold_quantile,
        separation_days=config.separation_days,
    )
    rng = np.random.default_rng(stage_seed(config.seed, "station-mle", index))
    out = {}
    for s in structures:
        cov = None if s.level is NonstatLevel.ST else covs[s.covariate]
        out[s.id] = mle_fit(s, record, cov, rng=rng).tolist()
    log.info("fitted %s (%d structures)", path.name, len(structures))
    return out


def cmd_fit_priors(config: RunConfig) -> int:
    structures = config.structure_list()
    if config.stations_dir is not None:
        station_files = sorted(Path(config.stations_dir).glob("*.csv"))
        if not station_files:
            raise ValueError(f"no station CSVs in {config.stations_dir}")
        # the target station contributes its own estimate alongside the archive
        all_files = [*station_files, config.station_csv]
        if config.workers > 1 and len(all_files) > 1:
            with ProcessPoolExecutor(max_workers=config.workers) as pool:
                futures = [
                    pool.submit(_station_mles, config, path, i)
                    for i, path in enumerate(all_files)
                ]
                per_station = [f.result() for f in futures]
        else:
            per_station = [_station_mles(config, path, i) for i, path in enumerate(all_files)]
        table = {
            s.id: np.array([row[s.id] for row in per_station]) for s in structures
        }
        mle_path = config.out("mle_table.json")
        save_mle_table(table, mle_path, meta={"config_sha256": config.config_hash})
    else:
        pack = _mle_pack_path(config)
        table = load_mle_table(pack)
        missing = [s.id for s in structures if s.id not in table]
        if missing:
            raise ValueError(f"MLE pack {pack} lacks structures: {missing}")
        table = {s.id: table[s.id] for s in structures}
        mle_path = None

    priors = fit_all_priors(table)
    priors_path = config.out("priors.json")
    save_priors(priors, priors_path, meta={"config_sha256": config.config_hash})
    _note_artifacts(config, *(p for p in (priors_path, mle_path) if p))
    print(f"priors fitted for {len(priors)} structures from {len(next(iter(table.values())))} stations")
    return EXIT_OK


def _load_inputs(config: RunConfig):
    exc_path = config.out("exceedances.json")
    priors_path = config.out("priors.json")
    missing = [str(p) for p in (exc_path, priors_path) if not p.exists()]
    if missing:
        raise ValueError(f"missing inputs (run preprocess/fit-priors first): {missing}")
    data = ExceedanceSet.from_dict(load_json(exc_path))
    priors = load_priors(priors_path)
    covs = build_covariates(config, needed_covariate_kinds(config))
    return data, priors, covs


def _calibrate_one(config: RunConfig, sid: str) -> dict:
    """One structure with its own input load: the unit of work of the worker pool."""
    return _calibrate_structure(config, sid, *_load_inputs(config))


def _calibrate_structure(config: RunConfig, sid: str, data, priors, covs) -> dict:
    structure = ModelStructure.parse(sid)
    if sid not in priors:
        raise ValueError(f"no priors for {sid}")
    cov = None if structure.level is NonstatLevel.ST else covs[structure.covariate]

    mle = mle_fit(
        structure, data, cov, rng=np.random.default_rng(stage_seed(config.seed, sid, "mle"))
    )
    chain_config = dataclasses.replace(config.sampler, seed=stage_seed(config.seed, sid, "chains"))
    logpost_rows = make_logpost_rows(structure, data, cov, priors[sid])
    raw = run_chains(structure, logpost_rows, mle, chain_config)
    try:
        ensemble = pool_and_thin(
            raw, np.random.default_rng(stage_seed(config.seed, sid, "thin")), force=config.force
        )
    except RuntimeError as exc:
        raise GateError(str(exc)) from exc
    ensemble.diagnostics["config_sha256"] = config.config_hash
    ensemble.diagnostics["mle"] = dict(zip(raw.param_names, mle.tolist()))

    ens_path = config.out("ensembles", f"{sid}.csv")
    diag_path = config.out("diagnostics", f"{sid}.json")
    ensemble.save(ens_path, diag_path)
    return ensemble.diagnostics


def cmd_calibrate(config: RunConfig, only: str | None = None) -> int:
    sids = [only] if only else [s.id for s in config.structure_list()]
    results: dict[str, dict] = {}
    if config.workers > 1 and len(sids) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = {sid: pool.submit(_calibrate_one, config, sid) for sid in sids}
            for sid, future in futures.items():
                results[sid] = future.result()
    else:
        inputs = _load_inputs(config)
        for sid in sids:
            results[sid] = _calibrate_structure(config, sid, *inputs)
            log.info("calibrated %s", sid)

    paths = []
    for sid in sids:
        paths += [config.out("ensembles", f"{sid}.csv"), config.out("diagnostics", f"{sid}.json")]
    _note_artifacts(config, *paths)
    for sid in sids:
        d = results[sid]
        worst = max(d["psrf"].values())
        forced = " (forced past gate)" if d["forced"] else ""
        print(f"{sid}: acceptance {np.mean(d['acceptance']):.3f}, max PSRF {worst:.4f}{forced}")
    return EXIT_OK


def cmd_evidence(config: RunConfig) -> int:
    data, priors, covs = _load_inputs(config)
    payload = {}
    for structure in config.structure_list():
        sid = structure.id
        ens_path = config.out("ensembles", f"{sid}.csv")
        if not ens_path.exists():
            raise ValueError(f"missing ensemble for {sid}; run calibrate first")
        ensemble = PosteriorEnsemble.load(ens_path, structure)
        cov = None if structure.level is NonstatLevel.ST else covs[structure.covariate]
        log_density = make_logpost_on_active(structure, data, cov, priors[sid])
        est = bridge_evidence(
            ensemble, log_density, np.random.default_rng(stage_seed(config.seed, sid, "bridge"))
        )
        payload[sid] = {
            "log_evidence": est.log_evidence,
            "iterations_used": est.iterations_used,
            "relative_change_at_stop": est.relative_change_at_stop,
        }
        log.info("evidence %s: %.3f", sid, est.log_evidence)
    path = config.out("evidence.json")
    dump_json({"config_sha256": config.config_hash, "structures": payload}, path)
    _note_artifacts(config, path)
    print(f"log evidence estimated for {len(payload)} structures")
    return EXIT_OK


def cmd_project(config: RunConfig) -> int:
    data, _, covs = _load_inputs(config)
    mu = data.threshold
    paths = []
    for structure in config.structure_list():
        sid = structure.id
        ens_path = config.out("ensembles", f"{sid}.csv")
        if not ens_path.exists():
            raise ValueError(f"missing ensemble for {sid}; run calibrate first")
        ensemble = PosteriorEnsemble.load(ens_path, structure)
        cov = None if structure.level is NonstatLevel.ST else covs[structure.covariate]
        columns = {}
        for period in config.return_periods:
            rl = ensemble_return_levels(ensemble, cov, config.projection_year, mu, period)
            columns[period] = rl
        path = config.out("return_levels", f"{sid}.csv")
        _write_return_level_csv(columns, path)
        paths.append(path)
    _note_artifacts(config, *paths)
    print(f"return levels projected for year {config.projection_year}")
    return EXIT_OK


def _write_return_level_csv(columns: dict[float, ReturnLevelEnsemble], path: Path) -> None:
    periods = sorted(columns)
    n_rows = max(c.samples.size for c in columns.values())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"T{t:g}" for t in periods])
        writer.writerow([f"flagged={columns[t].n_flagged};clamped={columns[t].n_clamped}" for t in periods])
        for i in range(n_rows):
            writer.writerow(
                [
                    format_float(columns[t].samples[i]) if i < columns[t].samples.size else ""
                    for t in periods
                ]
            )


def _read_return_level_csv(path: Path, sid: str, year: int) -> dict[float, ReturnLevelEnsemble]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        periods = [float(h[1:]) for h in header]
        flags = next(reader)
        cols: list[list[float]] = [[] for _ in periods]
        for row in reader:
            for j, cell in enumerate(row):
                if cell:
                    cols[j].append(float(cell))
    out = {}
    for j, t in enumerate(periods):
        n_flagged = int(flags[j].split(";")[0].split("=")[1])
        n_clamped = int(flags[j].split(";")[1].split("=")[1])
        out[t] = ReturnLevelEnsemble(year, t, np.array(cols[j]), sid, n_clamped, n_flagged)
    return out


def cmd_report(config: RunConfig) -> int:
    evidence_path = config.out("evidence.json")
    if not evidence_path.exists():
        raise ValueError("missing evidence.json; run evidence first")
    stored = load_json(evidence_path)["structures"]

    structures = config.structure_list()
    missing = [s.id for s in structures if s.id not in stored]
    if missing:
        raise ValueError(f"evidence missing for structures: {missing}")
    estimates = [
        EvidenceEstimate(
            ModelStructure.parse(sid),
            stored[sid]["log_evidence"],
            stored[sid]["iterations_used"],
            stored[sid]["relative_change_at_stop"],
        )
        for sid in (s.id for s in structures)
    ]
    weights = bma_weights(estimates)

    paths = []
    report_path = config.out("weights.json")
    save_evidence_report(estimates, weights, report_path)
    paths.append(report_path)

    weights_csv = config.out("weights_all.csv")
    with open(weights_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["structure", "bma_weight"])
        for est in estimates:
            writer.writerow([est.structure.id, format_float(weights.weights[est.structure.id])])
    paths.append(weights_csv)

    full_set = len(structures) == 13
    if full_set:
        table1 = aggregate_by_covariate(weights)
        table1_path = config.out("table1.csv")
        write_aggregated_weights_csv(table1, table1_path)
        paths.append(table1_path)

        per_cov = weights_by_level_within_covariate(estimates)
        per_cov_path = config.out("weights_by_covariate.csv")
        with open(per_cov_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["covariate", "ST", "NS1", "NS2", "NS3"])
            for kind in CovariateKind:
                row = per_cov[kind.value]
                writer.writerow(
                    [kind.value] + [format_float(row[k]) for k in ("ST", "NS1", "NS2", "NS3")]
                )
        paths.append(per_cov_path)
    else:
        log.warning("aggregated weight tables need all 13 structures; skipping")

    # model-averaged return-level mixture per period
    per_structure: dict[str, dict[float, ReturnLevelEnsemble]] = {}
    for structure in structures:
        path = config.out("return_levels", f"{structure.id}.csv")
        if not path.exists():
            raise ValueError(f"missing return levels for {structure.id}; run project first")
        per_structure[structure.id] = _read_return_level_csv(
            path, structure.id, config.projection_year
        )

    mixtures = {}
    for period in config.return_periods:
        components = {sid: per_structure[sid][period] for sid in per_structure}
        rng = np.random.default_rng(stage_seed(config.seed, "mixture", period))
        mixtures[period] = bma_mixture(components, weights, config.mixture_size, rng)
    report = hazard_report(mixtures, tuple(config.quantile_levels))

    table_path = config.out("table_s2.csv")
    write_quantile_table_csv(report, table_path)
    curve_path = config.out("curve.json")
    write_curve_json(report, curve_path)
    paths += [table_path, curve_path]
    _note_artifacts(config, *paths)

    if full_set:
        print("aggregated BMA weights:")
        for key, value in table1.items():
            print(f"  {key}: {value:.3f}")
    i100 = report.periods.index(100.0) if 100.0 in report.periods else len(report.periods) - 1
    headline = report.periods[i100]
    med = report.medians[i100]
    lo, hi = report.credible_range_90()[i100]
    print(
        f"T={headline:g} return level in {config.projection_year}: "
        f"median {med:.3f} m, 90% range [{lo:.3f}, {hi:.3f}] m"
    )
    components = [per_structure[sid][headline] for sid in per_structure]
    n_flagged = sum(c.n_flagged for c in components)
    n_clamped = sum(c.n_clamped for c in components)
    n_draws = sum(c.samples.size + c.n_flagged for c in components)
    print(
        f"T={headline:g} draws: {n_flagged} flagged and dropped, {n_clamped} rate-clamped, "
        f"of {n_draws} across {len(components)} structures"
    )
    # diagnostic only: the mixture median normally falls inside the span of
    # the component medians; a value outside it flags a lopsided mixture
    comp_medians = [
        float(np.median(per_structure[sid][headline].samples)) for sid in per_structure
    ]
    print(
        f"component medians span [{min(comp_medians):.3f}, {max(comp_medians):.3f}] m "
        f"across {len(comp_medians)} structures"
    )
    return EXIT_OK


def cmd_run_all(config: RunConfig) -> int:
    for step in (cmd_preprocess, cmd_fit_priors, cmd_calibrate, cmd_evidence, cmd_project, cmd_report):
        code = step(config)
        if code != EXIT_OK:
            return code
    meta_path = config.out("run_metadata.json")
    dump_json(
        {
            "config_sha256": config.config_hash,
            "config_text": config.raw_text,
            "version": __version__,
            "completed_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
        meta_path,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# synthetic fixtures
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    from . import simulate as sim

    if args.what == "station":
        mu = sim.write_hourly_fixture(
            args.out, args.first_year, args.last_year, seed=args.seed
        )
        print(f"wrote {args.out} (target threshold {mu} m)")
    elif args.what == "covariates":
        paths = sim.write_covariate_fixtures(
            args.out, args.first_year, args.last_year, args.projection_year, seed=args.seed
        )
        print("wrote " + ", ".join(sorted(paths.values())))
    elif args.what == "mle-pack":
        table = sim.make_mle_fixture_pack(seed=args.seed, n_stations=args.stations)
        save_mle_table(table, args.out, meta={"seed": args.seed, "stations": args.stations})
        print(f"wrote {args.out} ({args.stations} stations x {len(table)} structures)")
    elif args.what == "record":
        structure = ModelStructure.parse(args.structure)
        cov = None
        if structure.level is not NonstatLevel.ST:
            covs = sim.synthetic_covariates(
                args.first_year, args.last_year, (args.first_year, args.last_year)
            )
            cov = covs[structure.covariate]
        theta = ParameterVector(
            lam0=args.lam0, lam1=args.lam1, sig0=args.sig0, sig1=args.sig1,
            xi0=args.xi0, xi1=args.xi1,
        )
        spec = sim.SimulationSpec(
            theta, structure, cov, args.first_year, args.last_year, args.threshold, args.seed
        )
        sim.simulate_record(spec).save(args.out)
        print(f"wrote {args.out}")
    else:
        raise ValueError(f"unknown simulate target {args.what!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surgebma",
        description="Storm-surge return levels with Bayesian model averaging over PP/GPD structures",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def pipeline(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--output-dir", help="override [run] output_dir")
        p.add_argument("--seed", type=int, help="override [run] seed")
        p.add_argument("--workers", type=int, help="override [run] workers")
        p.add_argument("--force", action="store_true", help="pool past a failed PSRF gate")
        p.add_argument("--structures", help="comma-separated structure ids")
        return p

    pipeline("preprocess", "detrend, daily maxima, threshold, decluster")
    pipeline("fit-priors", "elicit per-structure priors from station MLE estimates")
    cal = pipeline("calibrate", "run adaptive MCMC per structure")
    cal.add_argument("--structure", help="calibrate a single structure id")
    pipeline("evidence", "bridge-sample marginal likelihoods")
    pipeline("project", "per-structure return levels at the projection year")
    pipeline("report", "BMA weights, quantile tables, curve data")
    pipeline("run-all", "full pipeline in one call")

    simp = sub.add_parser("simulate", help="generate synthetic fixtures")
    simp.add_argument("what", choices=["station", "covariates", "mle-pack", "record"])
    simp.add_argument("--out", required=True, help="output file (or directory for covariates)")
    simp.add_argument("--seed", type=int, default=0)
    simp.add_argument("--first-year", type=int, default=1928)
    simp.add_argument("--last-year", type=int, default=2013)
    simp.add_argument("--projection-year", type=int, default=2065)
    simp.add_argument("--stations", type=int, default=28)
    simp.add_argument("--structure", default="ST", help="record: structure id to simulate from")
    simp.add_argument("--lam0", type=float, default=0.008)
    simp.add_argument("--lam1", type=float, default=0.0)
    simp.add_argument("--sig0", type=float, default=0.12)
    simp.add_argument("--sig1", type=float, default=0.0)
    simp.add_argument("--xi0", type=float, default=0.1)
    simp.add_argument("--xi1", type=float, default=0.0)
    simp.add_argument("--threshold", type=float, default=1.0)
    return parser


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    updates = {}
    if args.output_dir:
        updates["output_dir"] = Path(args.output_dir)
    if args.seed is not None:
        updates["seed"] = args.seed
        updates["sampler"] = dataclasses.replace(config.sampler, seed=args.seed)
    if args.workers is not None:
        updates["workers"] = args.workers
    if args.force:
        updates["force"] = True
    if args.structures:
        updates["structures"] = tuple(args.structures.replace(" ", "").split(","))
    return dataclasses.replace(config, **updates) if updates else config


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)

    if args.command == "simulate":
        try:
            return cmd_simulate(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT

    try:
        config = _apply_overrides(load_config(args.config), args)
    except (ValueError, OSError, KeyError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    handlers = {
        "preprocess": cmd_preprocess,
        "fit-priors": cmd_fit_priors,
        "evidence": cmd_evidence,
        "project": cmd_project,
        "report": cmd_report,
        "run-all": cmd_run_all,
    }
    try:
        if args.command == "calibrate":
            return cmd_calibrate(config, only=getattr(args, "structure", None))
        return handlers[args.command](config)
    except GateError as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
