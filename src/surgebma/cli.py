"""Command-line pipeline: preprocess, fit-priors, calibrate, evidence,
project, report, plus synthetic-fixture generation and a run-all driver.

Exit codes: 0 success, 1 computation gate failure (unconverged chains without
--force, chains that never moved, every draw flagged, a collapsed bridge
iteration), 2 input or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
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
from . import simulate as sim
from .config import RunConfig, _parse_structures, build_covariates, load_config
from .evidence import (
    aggregate_by_covariate,
    bma_weights,
    bridge_evidence,
    load_evidence,
    save_evidence,
    save_evidence_report,
    weights_by_level_within_covariate,
    write_aggregated_weights_csv,
    write_level_weights_csv,
    write_weights_csv,
)
from .hazard import (
    bma_mixture,
    ensemble_return_levels,
    hazard_report,
    load_return_levels,
    save_return_levels,
    write_curve_json,
    write_quantile_table_csv,
)
# bench/tracing.py wraps the density factories by these names: make_logpost is not
# called here, and the evidence stage calls it by a second name to be wrapped apart
from .models import ACTIVE_PARAMS, ModelStructure, NonstatLevel, make_logpost, make_logpost_rows
from .models import make_logpost as make_logpost_on_active
from .preprocess import ExceedanceSet, preprocess_station, read_hourly_csv
from .priors import (
    MIN_PRIOR_SAMPLES,
    fit_all_priors,
    load_mle_table,
    load_priors,
    mle_fit,
    save_mle_table,
    save_priors,
)
from .sampler import PosteriorEnsemble, pool_and_thin, run_chains
from .utils import GateError, dump_json, load_json

log = logging.getLogger("surgebma")

EXIT_OK, EXIT_GATE, EXIT_INPUT = 0, 1, 2

PACKAGED_MLE_PACK = "data/mle_fixtures.json"


def stage_seed(seed: int, *tags) -> int:
    """Stable per-stage RNG seed derived from the run seed and stage tags."""
    text = ":".join([str(seed), *map(str, tags)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def _run_units(config: RunConfig, initializer, unit, arg_lists: list[tuple]) -> list:
    """``unit(*args)`` for each of ``arg_lists``, in order: in ``config.workers``
    processes when that is above 1 and there is more than one unit, otherwise in
    this one. Either way ``initializer(config)``, unless None, first runs once
    in each process that runs units."""
    if config.workers > 1 and len(arg_lists) > 1:
        with ProcessPoolExecutor(
            max_workers=config.workers, initializer=initializer, initargs=(config,)
        ) as pool:
            futures = [pool.submit(unit, *args) for args in arg_lists]
            return [future.result() for future in futures]
    if initializer is not None:
        initializer(config)
    return [unit(*args) for args in arg_lists]


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


def _inputs(config: RunConfig, earlier: str, *names) -> list[Path]:
    """The paths of a stage's inputs in the output directory, which the stages
    ``earlier`` write; refuses every missing one at once. Each stage calls it
    before it computes or writes anything."""
    paths = [config.output_dir / name for name in names]
    if missing := [str(p) for p in paths if not p.exists()]:
        raise ValueError(f"missing inputs (run {earlier} first): {missing}")
    return paths


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


def _preprocess(config: RunConfig, path: Path) -> ExceedanceSet:
    """One hourly station record through the configured preprocessing chain."""
    return preprocess_station(
        read_hourly_csv(path),
        config.calibration_start,
        config.calibration_end,
        window_days=config.detrend_window_days,
        min_valid_hours=config.min_valid_hours,
        threshold_quantile=config.threshold_quantile,
        separation_days=config.separation_days,
    )


def cmd_preprocess(config: RunConfig) -> int:
    data = _preprocess(config, config.station_csv)
    path = config.out("exceedances.json")
    dump_json({"config_sha256": config.config_hash, **data.to_dict()}, path)
    _note_artifacts(config, path)

    counts = ", ".join(
        f"{year}:{count}" for year, count in zip(data.years.tolist(), data.counts.tolist()) if count
    )
    print(f"threshold: {data.threshold:.4f} m")
    print(f"events: {data.n_events} over {data.years.size} years")
    print(f"counts per year (nonzero): {counts}")
    return EXIT_OK


def _mle_pack_path(config: RunConfig) -> Path:
    if config.mle_pack is not None:
        return config.mle_pack
    return Path(resources.files("surgebma").joinpath(PACKAGED_MLE_PACK))


def _station_mles(
    config: RunConfig, covs: dict, station: Path | ExceedanceSet, index: int
) -> dict[str, list]:
    """All-structure MLE fits for one station, given as an hourly CSV to
    preprocess or as an already preprocessed record; order-independent."""
    structures = config.structure_list()
    if isinstance(station, ExceedanceSet):
        record, name = station, "target station"
    else:
        record, name = _preprocess(config, station), station.name
    rng = np.random.default_rng(stage_seed(config.seed, "station-mle", index))
    out = {}
    for s in structures:
        out[s.id] = mle_fit(s, record, covs.get(s.covariate), rng=rng).tolist()
    log.info("fitted %s (%d structures)", name, len(structures))
    return out


def cmd_fit_priors(config: RunConfig) -> int:
    structures = config.structure_list()
    if config.stations_dir is not None:
        # the target station contributes its own estimate alongside the
        # archive, from the record preprocess wrote
        exc_path, = _inputs(config, "preprocess", "exceedances.json")
        target = ExceedanceSet.load(exc_path)
        station_files = sorted(Path(config.stations_dir).glob("*.csv"))
        if not station_files:
            raise ValueError(f"no station CSVs in {config.stations_dir}")
        covs = build_covariates(config)
        per_station = _run_units(
            config, None, _station_mles,
            [(config, covs, station, i) for i, station in enumerate([*station_files, target])],
        )
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
    """The target record, priors that cover every configured structure, and the
    covariates; the stage has already checked with ``_inputs`` that the files exist."""
    data = ExceedanceSet.load(config.output_dir / "exceedances.json")
    priors = load_priors(config.output_dir / "priors.json")
    if lacking := [s.id for s in config.structure_list() if s.id not in priors]:
        raise ValueError(f"priors.json has no priors for {lacking} (run fit-priors first)")
    return data, priors, build_covariates(config)


_worker_inputs: tuple | Exception | None = None  # set once per process that calibrates


def _load_worker_inputs(config: RunConfig) -> None:
    """Initializer of each process that calibrates: its inputs, or the error loading them."""
    global _worker_inputs
    try:
        _worker_inputs = _load_inputs(config)
    except Exception as exc:  # raised from a pool initializer, it would break the pool and get lost
        _worker_inputs = exc


def _calibrate_one(config: RunConfig, sid: str) -> dict:
    """One structure on its process's inputs: the unit of work of calibrate."""
    if isinstance(_worker_inputs, Exception):
        raise _worker_inputs
    data, priors, covs = _worker_inputs
    structure = ModelStructure.parse(sid)
    cov = covs.get(structure.covariate)

    mle = mle_fit(
        structure, data, cov, rng=np.random.default_rng(stage_seed(config.seed, sid, "mle"))
    )
    chain_config = dataclasses.replace(config.sampler, seed=stage_seed(config.seed, sid, "chains"))
    logpost_rows = make_logpost_rows(structure, data, cov, priors[sid])
    raw = run_chains(structure, logpost_rows, mle, chain_config)
    ensemble = pool_and_thin(
        raw, np.random.default_rng(stage_seed(config.seed, sid, "thin")), force=config.force
    )
    ensemble.diagnostics["config_sha256"] = config.config_hash
    ensemble.diagnostics["mle"] = dict(zip(structure.active_params, mle.tolist()))

    ens_path = config.out("ensembles", f"{sid}.csv")
    diag_path = config.out("diagnostics", f"{sid}.json")
    ensemble.save(ens_path, diag_path)
    log.info("calibrated %s", sid)
    return ensemble.diagnostics


def cmd_calibrate(config: RunConfig) -> int:
    _inputs(config, "preprocess/fit-priors", "exceedances.json", "priors.json")
    sids = [s.id for s in config.structure_list()]
    results = _run_units(
        config, _load_worker_inputs, _calibrate_one, [(config, sid) for sid in sids]
    )

    paths = []
    for sid in sids:
        paths += [config.out("ensembles", f"{sid}.csv"), config.out("diagnostics", f"{sid}.json")]
    _note_artifacts(config, *paths)
    for sid, d in zip(sids, results):
        worst = max(d["psrf"].values())
        forced = " (forced past gate)" if d["forced"] else ""
        print(f"{sid}: acceptance {np.mean(d['acceptance']):.3f}, max PSRF {worst:.4f}{forced}")
    return EXIT_OK


def _inputs_and_ensembles(config: RunConfig, earlier: str, *names) -> tuple[list, list]:
    """``_inputs`` of ``names`` and of every configured structure's ensemble:
    the paths of ``names``, and the ensembles, all loaded before the stage computes."""
    structures, k = config.structure_list(), len(names)
    paths = _inputs(config, earlier, *names, *(f"ensembles/{s.id}.csv" for s in structures))
    return paths[:k], [PosteriorEnsemble.load(p, s) for p, s in zip(paths[k:], structures)]


def cmd_evidence(config: RunConfig) -> int:
    _, ensembles = _inputs_and_ensembles(
        config, "preprocess/fit-priors/calibrate", "exceedances.json", "priors.json")
    data, priors, covs = _load_inputs(config)
    estimates = []
    for ensemble in ensembles:
        structure = ensemble.structure
        sid = structure.id
        cov = covs.get(structure.covariate)
        log_density = make_logpost_on_active(structure, data, cov, priors[sid])
        est = bridge_evidence(
            ensemble, log_density, np.random.default_rng(stage_seed(config.seed, sid, "bridge"))
        )
        estimates.append(est)
        log.info("evidence %s: %.3f", sid, est.log_evidence)
    path = config.out("evidence.json")
    save_evidence(estimates, path, config.config_hash)
    _note_artifacts(config, path)
    print(f"log evidence estimated for {len(estimates)} structures")
    return EXIT_OK


def cmd_project(config: RunConfig) -> int:
    (exceedances_path,), ensembles = _inputs_and_ensembles(
        config, "preprocess/calibrate", "exceedances.json")
    threshold = ExceedanceSet.load(exceedances_path).threshold
    covs = build_covariates(config)
    paths = []
    for ensemble in ensembles:
        cov = covs.get(ensemble.structure.covariate)
        columns = {
            period: ensemble_return_levels(ensemble, cov, config.projection_year, threshold, period)
            for period in config.return_periods
        }
        path = config.out("return_levels", f"{ensemble.structure.id}.csv")
        save_return_levels(columns, path)
        paths.append(path)
    _note_artifacts(config, *paths)
    print(f"return levels projected for year {config.projection_year}")
    return EXIT_OK


def cmd_report(config: RunConfig) -> int:
    structures = config.structure_list()
    evidence_path, *level_paths = _inputs(config, "evidence/project", "evidence.json",
                                          *(f"return_levels/{s.id}.csv" for s in structures))
    stored = load_evidence(evidence_path)
    if missing := [s.id for s in structures if s.id not in stored]:
        raise ValueError(f"evidence missing for structures: {missing}")
    per_structure = {s.id: load_return_levels(path, config.projection_year)
                     for s, path in zip(structures, level_paths)}
    estimates = [stored[s.id] for s in structures]
    weights = bma_weights(estimates)

    report_path, weights_path = config.out("weights.json"), config.out("weights_all.csv")
    save_evidence_report(estimates, weights, report_path)
    write_weights_csv(weights, weights_path)
    paths = [report_path, weights_path]

    full_set = len(structures) == 13
    if full_set:
        table1 = aggregate_by_covariate(weights)
        table1_path, per_cov_path = config.out("table1.csv"), config.out("weights_by_covariate.csv")
        write_aggregated_weights_csv(table1, table1_path)
        write_level_weights_csv(weights_by_level_within_covariate(estimates), per_cov_path)
        paths += [table1_path, per_cov_path]
    else:
        log.warning("aggregated weight tables need all 13 structures; skipping")

    # model-averaged return-level mixture per period
    mixtures = {
        period: bma_mixture({sid: levels[period] for sid, levels in per_structure.items()}, weights)
        for period in config.return_periods
    }
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
    mixture = mixtures[headline]  # its counts are the components' sums
    components = [per_structure[sid][headline] for sid in per_structure]
    n_draws = sum(c.samples.size + c.n_flagged for c in components)
    print(
        f"T={headline:g} draws: {mixture.n_flagged} flagged and dropped ({mixture.n_clamped} "
        f"with a non-positive rate), of {n_draws} across {len(components)} structures"
    )
    # diagnostic only: the mixture median normally falls inside the span of
    # the component medians; a value outside it flags a lopsided mixture
    comp_medians = [float(np.median(c.samples)) for c in components]
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
            # what the command line may override, which config_text does not show
            "settings": {
                "seed": config.seed,
                "structures": [s.id for s in config.structure_list()],
                "force": config.force,
                "workers": config.workers,
                "output_dir": str(config.output_dir),
            },
            "version": __version__,
            "completed_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
        meta_path,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# synthetic fixtures
# ---------------------------------------------------------------------------


def _check_years(args) -> None:
    if args.last_year < args.first_year:
        raise ValueError(f"--last-year {args.last_year} is before --first-year {args.first_year}")


def cmd_simulate_station(args) -> int:
    _check_years(args)
    mu = sim.write_hourly_fixture(args.out, args.first_year, args.last_year, seed=args.seed)
    print(f"wrote {args.out} (target threshold {mu} m)")
    return EXIT_OK


def cmd_simulate_covariates(args) -> int:
    _check_years(args)
    if args.projection_year <= args.last_year:  # the annual _proj files would hold no year
        raise ValueError(f"--projection-year {args.projection_year} "
                         f"is not after --last-year {args.last_year}")
    paths = sim.write_covariate_fixtures(
        args.out, args.first_year, args.last_year, args.projection_year, seed=args.seed
    )
    print("wrote " + ", ".join(sorted(paths.values())))
    return EXIT_OK


def cmd_simulate_mle_pack(args) -> int:
    if args.stations < MIN_PRIOR_SAMPLES:
        raise ValueError(f"--stations must be at least {MIN_PRIOR_SAMPLES} for fit-priors")
    table = sim.make_mle_fixture_pack(seed=args.seed, n_stations=args.stations)
    years = f"{sim.PACK_FIRST_YEAR}-{sim.PACK_LAST_YEAR}"
    meta = {"seed": args.seed, "stations": args.stations, "years": years}
    save_mle_table(table, args.out, meta=meta)
    print(f"wrote {args.out} ({args.stations} stations x {len(table)} structures)")
    return EXIT_OK


def cmd_simulate_record(args) -> int:
    _check_years(args)
    structure = ModelStructure.parse(args.structure)
    covs = {} if structure.covariate is None else sim.synthetic_covariates(
        args.first_year, args.last_year, (args.first_year, args.last_year)
    )
    # the one place where parameters arrive by name: refuse a nonzero
    # inactive one rather than drop it
    named = {name: getattr(args, name) for name in ACTIVE_PARAMS[NonstatLevel.NS3]}
    stray = [name for name, value in named.items()
             if value and name not in structure.active_params]
    if stray:
        raise ValueError(f"{', '.join(stray)} not active at level {structure.level.value}")
    row = np.array([named[name] for name in structure.active_params])
    spec = sim.SimulationSpec(
        row, structure, covs.get(structure.covariate), args.first_year, args.last_year,
        args.threshold, args.seed,
    )
    sim.simulate_record(spec).save(args.out)
    print(f"wrote {args.out}")
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

    # each cmd_* is looked up when main builds the parser, so a replaced one runs
    def pipeline(name, command, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=command)
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--output-dir", help="override [run] output_dir")
        p.add_argument("--seed", type=int, help="override [run] seed")
        p.add_argument("--workers", type=int, help="override [run] workers")
        p.add_argument("--force", action="store_true", help="pool past a failed PSRF gate")
        p.add_argument("--structures", help="comma-separated structure ids")

    pipeline("preprocess", cmd_preprocess, "detrend, daily maxima, threshold, decluster")
    pipeline("fit-priors", cmd_fit_priors, "elicit per-structure priors from station MLE estimates")
    pipeline("calibrate", cmd_calibrate, "run adaptive MCMC per structure")
    pipeline("evidence", cmd_evidence, "bridge-sample marginal likelihoods")
    pipeline("project", cmd_project, "per-structure return levels at the projection year")
    pipeline("report", cmd_report, "BMA weights, quantile tables, curve data")
    pipeline("run-all", cmd_run_all, "full pipeline in one call")

    # each simulate kind takes only the options it reads
    kinds = sub.add_parser("simulate", help="generate synthetic fixtures").add_subparsers(
        dest="kind", required=True)

    def simulate(name, command, help_text, out="output file", years=True):
        p = kinds.add_parser(name, help=help_text)
        p.set_defaults(run=command)
        p.add_argument("--out", required=True, help=out)
        p.add_argument("--seed", type=int, default=0)
        if years:
            p.add_argument("--first-year", type=int, default=1928)
            p.add_argument("--last-year", type=int, default=2013)
        return p

    simulate("station", cmd_simulate_station, "synthetic hourly tide-gauge CSV")
    covariates = simulate("covariates", cmd_simulate_covariates,
                          "annual and monthly covariate CSVs, history and projection",
                          out="output directory")
    covariates.add_argument("--projection-year", type=int, default=2065)
    pack = simulate("mle-pack", cmd_simulate_mle_pack, "station MLE table for fit-priors",
                    years=False)
    pack.add_argument("--stations", type=int, default=28)
    record = simulate("record", cmd_simulate_record, "exceedance-set JSON from known parameters")
    record.add_argument("--structure", default="ST", help="structure id to simulate from")
    for name, default in zip(ACTIVE_PARAMS[NonstatLevel.NS3], (0.008, 0.0, 0.12, 0.0, 0.1, 0.0)):
        record.add_argument(f"--{name}", type=float, default=default)
    record.add_argument("--threshold", type=float, default=1.0)
    return parser


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    updates = {}
    if args.output_dir:
        updates["output_dir"] = Path(args.output_dir)
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.workers is not None:
        updates["workers"] = args.workers
    if args.force:
        updates["force"] = True
    if args.structures:
        updates["structures"] = _parse_structures(args.structures)
    return dataclasses.replace(config, **updates) if updates else config


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)

    try:
        # simulate runs on its own arguments, every other command on the run configuration
        subject = args if args.command == "simulate" else _apply_overrides(
            load_config(args.config), args)
    except (ValueError, OSError, KeyError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        return args.run(subject)
    except GateError as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
