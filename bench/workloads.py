"""The benchmark's workloads: seeded inputs, run configuration and stage lists.

Every input is generated from the workload seed by ``surgebma simulate``;
nothing generated is committed. Sizes are fixed here so that a run (three
set-ups plus three or four timed repeats) takes about 50 s on a 2-core
machine: 48 runs of the two workloads must fit in under an hour.

- ``desk``: the six stages of ``run-all`` on an 86-year hourly record and
  all 13 structures with the desk profile's 4 chains. Chains are cut to
  600 iterations (desk: 10000) to fit that time, so the PSRF gate, tuned
  for full-length chains, is passed with ``force``; the gate outcome stays
  in the byte-checked diagnostics. ``evidence``, ``project`` and ``report``
  run here on 13 ensembles of 1000 draws.
- ``archive``: ``preprocess`` + ``fit-priors`` over a 50-year target record
  and a two-station archive covering the same window, with one structure per
  nonstationarity level (one per file-backed covariate). CSV ingest and
  Nelder-Mead MLE; no sampler. Station records shorter than the window can
  yield a negative ``lam0`` MLE, which ``fit-priors`` rejects.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

ALL_STAGES = ("preprocess", "fit-priors", "calibrate", "evidence", "project", "report")
# one structure per level; the NS structures use every file-backed covariate
LEVEL_SPAN = ("ST", "NS1-temperature", "NS2-sealevel", "NS3-nao")


@dataclass(frozen=True)
class Size:
    first_year: int
    last_year: int
    archive_first_year: int
    n_stations: int
    structures: tuple  # () -> all 13; archive uses LEVEL_SPAN at full size
    desk_chains: dict
    projection_year: int = 2065


SIZE = Size(
    first_year=1928,
    last_year=2013,
    archive_first_year=1964,
    n_stations=2,
    structures=(),
    desk_chains=dict(n_chains=4, n_iterations=600, burn_in=60),
)


def sub_seed(seed: int, tag: str) -> int:
    """Stable per-input seed derived from the workload seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{tag}".encode()).digest()[:4], "big")


@dataclass(frozen=True)
class Workload:
    first_year: int
    stages: tuple  # the timed pipeline call, one CLI invocation per stage
    archive: bool = False
    chains: dict | None = None
    structures: tuple = ()

    def simulate_commands(self, seed: int, size: Size) -> list[list[str]]:
        """``surgebma simulate`` argument lists that write every input file."""
        window = ["--first-year", str(self.first_year), "--last-year", str(size.last_year)]
        cmds = [
            ["simulate", "station", "--out", "station.csv", *window,
             "--seed", str(sub_seed(seed, "station"))],
            ["simulate", "covariates", "--out", "cov", *window,
             "--projection-year", str(size.projection_year),
             "--seed", str(sub_seed(seed, "covariates"))],
        ]
        if self.archive:
            for i in range(size.n_stations):
                cmds.append(
                    ["simulate", "station", "--out", f"archive/station{i:02d}.csv", *window,
                     "--seed", str(sub_seed(seed, f"archive{i}"))])
        return cmds

    def config_text(self, seed: int, size: Size) -> str:
        lines = [
            "[station]", "hourly_csv = station.csv", "",
            "[window]",
            f"calibration_start = {self.first_year}",
            f"calibration_end = {size.last_year}",
            f"projection_year = {size.projection_year}", "",
            "[covariates]",
            *(f"{kind}_{era} = cov/{kind}_{era}.csv"
              for kind in ("temperature", "sealevel", "nao") for era in ("hist", "proj")),
            "",
        ]
        if self.archive:
            lines += ["[priors]", "stations_dir = archive", ""]
        if self.chains is not None:
            lines += ["[sampler]", "profile = desk", "force = true",
                      *(f"{k} = {v}" for k, v in self.chains.items()), ""]
        structures = self.structures or size.structures
        lines += ["[run]", f"seed = {sub_seed(seed, 'run')}", "output_dir = out"]
        if structures:
            lines.append("structures = " + ", ".join(structures))
        return "\n".join(lines) + "\n"

    def structure_ids(self, size: Size) -> tuple:
        from surgebma.models import all_structures

        return self.structures or size.structures or tuple(s.id for s in all_structures())


def make_workload(name: str, size: Size) -> Workload:
    if name == "desk":
        return Workload(size.first_year, ALL_STAGES, chains=size.desk_chains)
    if name == "archive":
        return Workload(size.archive_first_year, ("preprocess", "fit-priors"),
                        archive=True, structures=size.structures or LEVEL_SPAN)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("desk", "archive")
