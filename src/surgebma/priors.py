"""Prior elicitation: per-structure maximum-likelihood fits across stations,
distilled into independent normal or gamma priors per parameter.

The family follows each parameter's support: gamma for the half-infinite
ones (the Poisson rate intercept, and the GPD scale where it is a direct
scale), normal for everything with infinite support (slopes, shape, and the
log-scale intercept of the NS2/NS3 structures). Gamma parameters are set by
the method of moments, which is deterministic and robust for the small
sample of station estimates involved.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .covariates import CovariateSeries
from .models import ACTIVE_PARAMS, DIRECT_SCALE, ModelStructure, NonstatLevel, make_loglik
from .neldermead import SimplexResult, nelder_mead
from .preprocess import ExceedanceSet
from .utils import dump_json, load_json

log = logging.getLogger(__name__)

LOG_2PI = math.log(2.0 * math.pi)
MLE_RESTARTS = 5  # Nelder-Mead searches: the moment start, then perturbed starts
MLE_MAX_EVALS = 20000  # cap on each search's objective evals, and on its iterations


@dataclass(frozen=True)
class PriorSpec:
    """One marginal prior: normal(mean, sd) or gamma(shape, rate)."""

    family: str  # "normal" | "gamma"
    p1: float  # mean | shape
    p2: float  # sd | rate
    _log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in ("normal", "gamma"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.p2 <= 0 or (self.family == "gamma" and self.p1 <= 0):
            raise ValueError("family parameters must be positive")
        # the leading, x-free terms of logpdf, computed once in the same order
        if self.family == "normal":
            log_norm = math.log(self.p2)
        else:
            log_norm = self.p1 * math.log(self.p2) - float(gammaln(self.p1))
        object.__setattr__(self, "_log_norm", log_norm)

    def logpdf(self, x: float) -> float:
        if self.family == "normal":
            z = (x - self.p1) / self.p2
            return -0.5 * (LOG_2PI + z * z) - self._log_norm
        if x <= 0:
            return -math.inf
        return self._log_norm + (self.p1 - 1.0) * math.log(x) - self.p2 * x

    def to_dict(self) -> dict:
        return {"family": self.family, "p1": self.p1, "p2": self.p2}

    @classmethod
    def from_dict(cls, d: dict) -> "PriorSpec":
        return cls(d["family"], float(d["p1"]), float(d["p2"]))


def prior_family_for(param: str, level: NonstatLevel) -> str:
    """Support rule: gamma where the support is half-infinite, else normal."""
    if param == "lam0":
        return "gamma"
    if param == "sig0" and level in DIRECT_SCALE:
        return "gamma"
    return "normal"


@dataclass(frozen=True)
class PriorSet:
    """Per-parameter priors for the active parameters of one structure."""

    structure: ModelStructure
    specs: dict[str, PriorSpec]

    def __post_init__(self):
        missing = [p for p in self.structure.active_params if p not in self.specs]
        if missing:
            raise ValueError(f"missing prior for active parameter(s): {missing}")
        for name, spec in self.specs.items():
            want = prior_family_for(name, self.structure.level)
            if spec.family != want:
                raise ValueError(f"{name} requires a {want} prior, got {spec.family}")

    def logpdf(self, row) -> float:
        """Joint log density of an active-parameter row; stops at the first -inf."""
        total = 0.0
        for name, x in zip(self.structure.active_params, row):
            total += self.specs[name].logpdf(x)
            if total == -math.inf:
                return -math.inf
        return total


def fit_prior(samples, family: str) -> PriorSpec:
    """Fit one marginal prior to a set of station MLEs.

    Normal priors take the sample mean and standard deviation; gamma priors
    use method-of-moments (shape = m^2/v, rate = m/v).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size < 3:
        raise ValueError("need at least 3 samples to fit a prior")
    m = float(arr.mean())
    v = float(arr.var(ddof=1))
    if v <= 0:
        raise ValueError("degenerate prior: zero variance across samples")
    if family == "normal":
        return PriorSpec("normal", m, math.sqrt(v))
    if family == "gamma":
        if np.any(arr <= 0):
            raise ValueError("gamma prior requires strictly positive samples")
        return PriorSpec("gamma", m * m / v, m / v)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------


def _moment_start(
    structure: ModelStructure, data: ExceedanceSet
) -> np.ndarray:
    total_events = data.n_events
    total_days = sum(b.duration_days for b in data.years)
    lam0 = max(total_events / max(total_days, 1.0), 1e-4)
    excess = np.array([r.height - data.threshold for r in data.all_records()])
    spread = float(excess.std()) if excess.size > 1 else 0.1
    spread = max(spread, 1e-3)
    if structure.level in DIRECT_SCALE:
        sig0 = spread
    else:
        sig0 = math.log(spread)
    start = {"lam0": lam0, "lam1": 0.0, "sig0": sig0, "sig1": 0.0, "xi0": 0.05, "xi1": 0.0}
    return np.array([start[p] for p in structure.active_params])


def _search(loglik, x0: np.ndarray, xatol: float, fatol: float) -> SimplexResult:
    """One Nelder-Mead search of -loglik from ``x0``, fed one row at a time."""
    search = nelder_mead(x0, xatol, fatol, MLE_MAX_EVALS, MLE_MAX_EVALS)
    try:
        x = next(search)
        while True:
            x = search.send(-loglik(x))
    except StopIteration as stop:
        return stop.value


def mle_fit(
    structure: ModelStructure,
    data: ExceedanceSet,
    cov: CovariateSeries | None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Maximize the log-likelihood by Nelder-Mead simplex search with restarts.

    Each restart perturbs the moment-based start and runs two chained
    searches; the best optimum wins. The search is ``neldermead.nelder_mead``,
    a port of scipy's algorithm with the same iterates as
    ``scipy.optimize.minimize(method="Nelder-Mead")``, fed one row at a time
    through the ``make_loglik`` closure. (Stepping all restarts in lockstep,
    on one stacked likelihood call, waits for the benchmark tracer to count
    stacked rows.) A search converges when the simplex spread falls below its
    tolerances (1e-7 in x and 1e-8 in -log L, then 1e-9 and 1e-10), and stops
    at ``MLE_MAX_EVALS`` evaluations otherwise; a winner that stopped there is
    logged as a warning. Returns the active-parameter row of the optimum.
    """
    if data.n_events == 0:
        raise ValueError("no exceedances to fit")
    rng = rng or np.random.default_rng(0)
    loglik = make_loglik(structure, data, cov)
    level = structure.level

    base = _moment_start(structure, data)
    best, best_f = None, math.inf
    for k in range(MLE_RESTARTS):
        x0 = base.copy()
        if k > 0:
            scale = np.maximum(np.abs(base), 0.05)
            x0 = base + 0.3 * scale * rng.standard_normal(base.size)
            # keep the half-infinite (gamma-prior) parameters positive at the start
            for i, name in enumerate(structure.active_params):
                if prior_family_for(name, level) == "gamma":
                    x0[i] = abs(x0[i]) or base[i]
        if not math.isfinite(loglik(x0)):
            continue
        res = _search(loglik, x0, 1e-7, 1e-8)
        # one chained restart from the solution polishes flat directions
        res = _search(loglik, res.x, 1e-9, 1e-10)
        if res.fun < best_f:
            best, best_f = res, res.fun
    if best is None:
        raise ValueError("no feasible start")
    if not best.converged:
        log.warning(
            "%s: the best Nelder-Mead search stopped at %d evaluations before meeting "
            "its tolerance", structure.id, MLE_MAX_EVALS,
        )
    return best.x


# ---------------------------------------------------------------------------
# prior sets from MLE tables
# ---------------------------------------------------------------------------


def fit_prior_set(structure: ModelStructure, estimates: np.ndarray) -> PriorSet:
    """Fit the full per-parameter prior set from a (stations x params) table."""
    names = structure.active_params
    estimates = np.asarray(estimates, dtype=float)
    if estimates.ndim != 2 or estimates.shape[1] != len(names):
        raise ValueError(f"expected (n, {len(names)}) estimate table for {structure.id}")
    specs = {}
    for j, name in enumerate(names):
        specs[name] = fit_prior(estimates[:, j], prior_family_for(name, structure.level))
    return PriorSet(structure, specs)


def fit_all_priors(mle_table: dict[str, np.ndarray]) -> dict[str, PriorSet]:
    """Fit priors for every structure present in an MLE table keyed by id."""
    out = {}
    for sid, estimates in mle_table.items():
        structure = ModelStructure.parse(sid)
        out[sid] = fit_prior_set(structure, estimates)
    return out


def save_priors(priors: dict[str, PriorSet], path, meta: dict | None = None) -> None:
    payload = {
        "structures": {
            sid: {name: spec.to_dict() for name, spec in ps.specs.items()}
            for sid, ps in priors.items()
        },
        "meta": meta or {},
    }
    dump_json(payload, path)


def load_priors(path) -> dict[str, PriorSet]:
    payload = load_json(path)
    out = {}
    for sid, specs in payload["structures"].items():
        structure = ModelStructure.parse(sid)
        out[sid] = PriorSet(
            structure, {name: PriorSpec.from_dict(d) for name, d in specs.items()}
        )
    return out


def save_mle_table(table: dict[str, np.ndarray], path, meta: dict | None = None) -> None:
    payload = {
        "structures": {
            sid: {
                "param_names": list(ACTIVE_PARAMS[ModelStructure.parse(sid).level]),
                "estimates": np.asarray(est, dtype=float).tolist(),
            }
            for sid, est in table.items()
        },
        "meta": meta or {},
    }
    dump_json(payload, path)


def load_mle_table(path) -> dict[str, np.ndarray]:
    payload = load_json(path)
    return {
        sid: np.asarray(entry["estimates"], dtype=float)
        for sid, entry in payload["structures"].items()
    }
