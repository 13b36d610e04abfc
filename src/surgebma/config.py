"""Run configuration: one INI file with sections drives the whole pipeline.

Paths inside the file resolve relative to the file's own directory. Every
artifact written by the pipeline records the SHA-256 of the config text, so
outputs are traceable to the exact configuration that produced them.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .covariates import (
    CovariateKind,
    CovariateSeries,
    normalize_minmax,
    read_annual_csv,
    read_monthly_csv,
    splice,
    time_covariate,
    winter_mean_nao,
)
from .evidence import MIN_ENSEMBLE_DRAWS
from .hazard import DEFAULT_QUANTILE_LEVELS, DEFAULT_RETURN_PERIODS, REPORTED_QUANTILE_LEVELS
from .models import ModelStructure, all_structures
from .sampler import MIN_CHAINS, MIN_SEGMENT, ChainConfig
from .utils import sha256_of_text

SAMPLER_PROFILES = {
    "desk": {},  # ChainConfig's defaults
    "paper": dict(n_iterations=100_000, n_chains=10, burn_in=10_000, thinned_size=10_000),
}


@dataclass
class RunConfig:
    station_csv: Path
    calibration_start: int = 1928
    calibration_end: int = 2013
    projection_year: int = 2065

    detrend_window_days: float = 365.25
    min_valid_hours: int = 12
    threshold_quantile: float = 0.99
    separation_days: int = 3

    covariate_files: dict = field(default_factory=dict)  # option name -> Path

    mle_pack: Path | None = None  # None -> packaged synthetic-station table
    stations_dir: Path | None = None

    sampler: ChainConfig = field(default_factory=ChainConfig)
    force: bool = False

    return_periods: tuple = DEFAULT_RETURN_PERIODS
    quantile_levels: tuple = DEFAULT_QUANTILE_LEVELS
    mixture_size: int = 100_000

    structures: tuple = ()  # empty -> all 13
    seed: int = 0
    output_dir: Path = Path("out")
    workers: int = 1

    raw_text: str = ""

    def __post_init__(self):
        if not self.calibration_start < self.calibration_end <= self.projection_year:
            raise ValueError("window years must satisfy start < end <= projection")
        known = {s.id for s in all_structures()}
        for sid in self.structures:
            if sid not in known:
                raise ValueError(f"unknown structure {sid!r}")
        if len(set(self.structures)) < len(self.structures):
            # every stage would run a repeat twice, and report would then refuse it
            raise ValueError(f"repeated structures in {', '.join(self.structures)}")
        # preprocess would refuse these only after reading the whole hourly record
        if not (math.isfinite(self.detrend_window_days) and self.detrend_window_days >= 1):
            raise ValueError("[preprocess] detrend_window_days must be a finite number >= 1")
        if not 1 <= self.min_valid_hours <= 24:
            raise ValueError("[preprocess] min_valid_hours must be in [1, 24]")
        if not 0 < self.threshold_quantile < 1:
            raise ValueError("[preprocess] threshold_quantile must lie in (0, 1)")
        if self.separation_days < 1:
            raise ValueError("[preprocess] separation_days must be at least 1")
        if not self.return_periods or not all(0 < t < math.inf for t in self.return_periods):
            raise ValueError("return_periods must list one or more positive finite periods")
        levels = self.quantile_levels
        if not all(0 < q < 1 for q in levels) or not set(REPORTED_QUANTILE_LEVELS) <= set(levels):
            raise ValueError(
                "quantile_levels must lie in (0, 1) and include "
                + ", ".join(f"{q:g}" for q in REPORTED_QUANTILE_LEVELS)
            )
        if self.mixture_size < 1:
            raise ValueError("mixture_size must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        # ChainConfig allows these (one chain runs fine), but the PSRF and the
        # bridge sampling of a pipeline run would refuse them after the chains
        chain = self.sampler
        if chain.n_chains < MIN_CHAINS:
            raise ValueError(f"n_chains must be at least {MIN_CHAINS} for the PSRF")
        if chain.n_iterations - chain.burn_in < MIN_SEGMENT:
            raise ValueError(f"n_iterations - burn_in must be at least {MIN_SEGMENT} for the PSRF")
        if chain.thinned_size < MIN_ENSEMBLE_DRAWS:
            raise ValueError(f"thinned_size must be at least {MIN_ENSEMBLE_DRAWS} for bridge sampling")

    @property
    def config_hash(self) -> str:
        return sha256_of_text(self.raw_text)

    def structure_list(self) -> list[ModelStructure]:
        if not self.structures:
            return all_structures()
        return [ModelStructure.parse(sid) for sid in self.structures]

    def out(self, *parts) -> Path:
        """The path of an artifact in the output directory; the writer makes its directory."""
        return self.output_dir.joinpath(*parts)


def _parse_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.replace(" ", "").split(",") if x)


def _parse_structures(text: str) -> tuple:
    sids = tuple(sid for sid in text.replace(" ", "").split(",") if sid)
    return () if sids == ("all",) else sids


# INI section -> option -> parser; each option sets the RunConfig field of its name
_RUN_OPTIONS = {
    "window": dict.fromkeys(("calibration_start", "calibration_end", "projection_year"), int),
    "preprocess": {"detrend_window_days": float, "min_valid_hours": int,
                   "threshold_quantile": float, "separation_days": int},
    "projection": {"return_periods": _parse_floats, "quantile_levels": _parse_floats,
                   "mixture_size": int},
    "run": {"seed": int, "workers": int, "structures": _parse_structures},
}
# [sampler] option -> parser; each option sets the ChainConfig field of its name
_SAMPLER_OPTIONS = {
    **dict.fromkeys(("n_iterations", "n_chains", "burn_in", "thinned_size"), int),
    "psrf_gate": float,
}

# each file-backed covariate's reader of its <kind>_hist and <kind>_proj files
_FILE_READERS = {
    CovariateKind.TEMPERATURE: read_annual_csv,
    CovariateKind.SEALEVEL: read_annual_csv,
    CovariateKind.NAO: lambda path: winter_mean_nao(read_monthly_csv(path)),
}

# every option load_config reads, by section; it refuses any other
_KNOWN_OPTIONS = {
    **{name: {*options} for name, options in _RUN_OPTIONS.items()},
    "run": {*_RUN_OPTIONS["run"], "output_dir"},
    "station": {"hourly_csv"},
    "priors": {"mle_pack", "stations_dir"},
    "covariates": {f"{kind.value}_{era}" for kind in _FILE_READERS for era in ("hist", "proj")},
    "sampler": {"profile", "force", *_SAMPLER_OPTIONS},
}


def load_config(path) -> RunConfig:
    """Parse an INI run configuration; an omitted option keeps the default of
    its ``RunConfig`` or ``ChainConfig`` field.

    A section or option that no field reads is refused, so a misspelled key
    fails loudly instead of leaving its default in force. Options that come
    only from ``[DEFAULT]`` are not checked.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig")  # a leading byte-order mark is skipped
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(text)
    base = path.parent

    # the keys each section sets itself: read again with [DEFAULT] as a plain
    # section (no header can be empty), so no section inherits its keys; the
    # first reading already refused duplicates, except a repeated [DEFAULT]
    own = configparser.ConfigParser(
        default_section="", interpolation=None, strict=False, inline_comment_prefixes=(";", "#")
    )
    own.read_string(text)
    for name in own.sections():
        if name == parser.default_section:
            continue
        if name not in _KNOWN_OPTIONS:
            raise ValueError(f"unknown config section [{name}]")
        for key in own.options(name):
            if key not in _KNOWN_OPTIONS[name]:
                raise ValueError(f"unknown config option [{name}] {key}")

    def resolve(p) -> Path:
        q = Path(p)
        return q if q.is_absolute() else base / q

    def section(name: str):
        return parser[name] if parser.has_section(name) else {}

    station = parser.get("station", "hourly_csv", fallback=None)
    if station is None:
        raise ValueError("config needs [station] hourly_csv")

    fields = {}
    for name, options in _RUN_OPTIONS.items():
        values = section(name)
        fields.update({key: parse(values[key]) for key, parse in options.items() if key in values})
    fields["output_dir"] = resolve(section("run").get("output_dir", RunConfig.output_dir))
    for key in ("mle_pack", "stations_dir"):
        value = section("priors").get(key, "").strip()
        if value:
            fields[key] = resolve(value)
    # the known options only: items() would also copy every [DEFAULT] key
    covariates = section("covariates")
    fields["covariate_files"] = {
        key: resolve(covariates[key].strip())
        for key in sorted(_KNOWN_OPTIONS["covariates"]) if covariates.get(key, "").strip()
    }

    sampler = section("sampler")
    profile = sampler.get("profile", "desk")
    if profile not in SAMPLER_PROFILES:
        raise ValueError(f"unknown sampler profile {profile!r}")
    chain = dict(SAMPLER_PROFILES[profile])
    chain.update({k: parse(sampler[k]) for k, parse in _SAMPLER_OPTIONS.items() if k in sampler})
    if "force" in sampler:
        fields["force"] = sampler.getboolean("force")

    return RunConfig(
        station_csv=resolve(station), sampler=ChainConfig(**chain), raw_text=text, **fields
    )


def build_covariates(config: RunConfig) -> dict[CovariateKind, CovariateSeries]:
    """Splice and normalize, over the run's full horizon, the covariates that
    the run's structures use.

    A stationary-only run therefore needs no covariate files at all; the time
    covariate never needs a file.
    """
    start, end = config.calibration_start, config.calibration_end
    horizon = config.projection_year
    files = config.covariate_files
    kinds = {s.covariate for s in config.structure_list() if s.covariate is not None}

    out = {}
    if CovariateKind.TIME in kinds:
        out[CovariateKind.TIME] = time_covariate(start, horizon, (start, end))

    for kind, read in _FILE_READERS.items():
        if kind not in kinds:
            continue
        hist_path, proj_path = files.get(f"{kind.value}_hist"), files.get(f"{kind.value}_proj")
        if hist_path is None:
            raise ValueError(f"missing covariate file option {kind.value}_hist")
        hist = read(hist_path)
        proj = read(proj_path) if proj_path else {}
        merged = splice(hist, proj, end) if proj else dict(hist)
        missing = [y for y in range(start, horizon + 1) if y not in merged]
        if missing:
            raise ValueError(f"{kind.value} covariate does not cover {missing[0]}-{missing[-1]}")
        trimmed = [merged[y] for y in range(start, horizon + 1)]
        out[kind] = normalize_minmax(trimmed, start, (start, end))
    return out
