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

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .covariates import CovariateSeries
from .models import (
    ACTIVE_PARAMS,
    DIRECT_SCALE,
    LikelihoodData,
    ModelStructure,
    NonstatLevel,
    _loglik_rows,
    effective_params,
    make_loglik,
)
from .preprocess import ExceedanceSet
from .utils import dump_json, load_json, parse_errors_named

log = logging.getLogger(__name__)

LOG_2PI = math.log(2.0 * math.pi)
MLE_RESTARTS = 5  # GPD-block ascents: the moment start, then perturbed starts
MLE_MAX_ITERATIONS = 100  # cap on the Newton iterations of each ascent
NEWTON_TOL = 1e-12  # an ascent ends once its Newton step promises less log L
ARMIJO = 1e-4  # the share of the promised increase a step must deliver
BACKTRACKING = tuple(0.5**k for k in range(31))  # a Newton step's fractions to try, in turn
BARRIER_WEIGHTS = tuple(10.0**-k for k in range(13))  # the NS rate block's, 1 down to 1e-12
STENCIL_STEP = 1e-4  # central-difference step, relative to max(|x|, 0.1)
STENCIL_SHRINKS = 4  # times a stencil step may shrink 16-fold off the support edge
EIGEN_FLOOR = 1e-8  # least eigenvalue magnitude of a Newton step, relative to the largest
MIN_PRIOR_SAMPLES = 3  # station estimates a prior is fitted from, at least


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
            log_norm = self.p1 * math.log(self.p2) - math.lgamma(self.p1)
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
    if arr.size < MIN_PRIOR_SAMPLES:
        raise ValueError(f"need at least {MIN_PRIOR_SAMPLES} samples to fit a prior")
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
#
# log L is a Poisson term in the rate parameters (lam0, lam1) plus a GPD term
# in the others, each with its own support conditions, so each block is
# maximized on its own and the MLE is the two optima side by side.


def _moment_start(
    structure: ModelStructure, data: ExceedanceSet
) -> np.ndarray:
    """The stationary rate MLE (events per observed day) and moment-based GPD
    parameters, with zero slopes, as an active row."""
    lam0 = data.n_events / float(data.durations.sum())
    excess = data.heights - data.threshold
    spread = float(excess.std()) if excess.size > 1 else 0.1
    spread = max(spread, 1e-3)
    if structure.level in DIRECT_SCALE:
        sig0 = spread
    else:
        sig0 = math.log(spread)
    start = {"lam0": lam0, "lam1": 0.0, "sig0": sig0, "sig1": 0.0, "xi0": 0.05, "xi1": 0.0}
    return np.array([start[p] for p in structure.active_params])


def _newton_ascent(x: np.ndarray, f: float, direction, value):
    """Damped Newton ascent of ``value`` from ``x``, where it is ``f``.

    ``direction(x)`` gives the gradient and an ascent step, or None. Armijo
    backtracking on ``value`` accepts each step; an infeasible trial point
    is -inf and backtracks like any other. The ascent ends when a step
    promises less than ``NEWTON_TOL``, when no backtracked step increases
    ``value`` enough, or at ``MLE_MAX_ITERATIONS``. Returns (x, f,
    converged), converged being False only at the cap.
    """
    for _ in range(MLE_MAX_ITERATIONS):
        found = direction(x)
        if found is None:
            return x, f, True
        grad, step = found
        slope = float(grad @ step)
        if not slope > NEWTON_TOL:
            return x, f, True
        for t in BACKTRACKING:
            trial = x + t * step
            trial_f = value(trial)
            if trial_f >= f + ARMIJO * t * slope:  # False for NaN
                break
        else:
            return x, f, True
        x, f = trial, trial_f
    return x, f, False


def _rate_block(weight: np.ndarray, phi: np.ndarray, days: np.ndarray):
    """Value and Newton direction of sum(weight * log lam - days * lam) over
    the years, lam = lam0 + lam1 * phi: the NS Poisson log-likelihood up to a
    constant, plus a log barrier of weight ``weight - counts`` on each lam.
    It is concave, so its Newton step needs no damping."""

    def value(x):
        lam = x[0] + x[1] * phi  # as the likelihood kernels form it
        return float(weight @ np.log(lam) - days @ lam) if lam.min() > 0 else -math.inf

    def direction(x):
        lam = x[0] + x[1] * phi
        r, c = weight / lam - days, weight / (lam * lam)
        minus_hess = np.array([[c.sum(), c @ phi], [c @ phi, (c * phi) @ phi]])
        grad = np.array([r.sum(), r @ phi])
        try:
            return grad, np.linalg.solve(minus_hess, grad)
        except np.linalg.LinAlgError:  # phi is the same in every year
            return None

    return value, direction


def _rate_mle(level: NonstatLevel, arrays: LikelihoodData, start: np.ndarray):
    """The rate block's MLE and whether its last ascent converged.

    ST's is the start, total events over total days. An NS block may peak on
    the boundary lam0 + lam1 * phi_t = 0 of a year without events, which an
    interior method does not reach, so a log barrier keeps each year's lam
    positive; one ascent per weight in ``BARRIER_WEIGHTS``, each from the
    last optimum, leaves it within about the last weight per year of the
    supremum.
    """
    if level is NonstatLevel.ST:
        return start, True
    x, converged = start, True
    for mu in BARRIER_WEIGHTS:
        value, direction = _rate_block(arrays.counts + mu, arrays.phi, arrays.durations)
        x, _, converged = _newton_ascent(x, value(x), direction, value)
    return x, converged


def _gpd_direction(rate: np.ndarray, level: NonstatLevel, arrays: LikelihoodData, d: int):
    """Newton direction of the d-parameter GPD block with ``rate`` held.

    The gradient and Hessian are central differences from one stacked
    ``_loglik_rows`` call on a stencil: the centre, +-e_i, and the corners
    ++, +-, -+, -- of each pair (e_i, e_j), 33 rows at d = 4. The steps
    shrink while a stencil point has no finite log L, as near the support
    edge. Where the block is not concave, each eigenvalue of minus the
    Hessian takes its magnitude, at least ``EIGEN_FLOOR`` times the largest,
    so the step still ascends.
    """
    eye = np.eye(d)
    pairs = list(itertools.combinations(range(d), 2))
    first, second = (np.array(ix) for ix in zip(*pairs))
    offsets = np.array([np.zeros(d), *(s * eye[i] for i in range(d) for s in (1, -1)),
                        *(a * eye[i] + b * eye[j] for i, j in pairs
                          for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)))])
    rows = np.empty((len(offsets), rate.size + d))
    rows[:, : rate.size] = rate

    def direction(x):
        h = STENCIL_STEP * np.maximum(np.abs(x), 0.1)
        for _ in range(STENCIL_SHRINKS):
            rows[:, rate.size :] = x + offsets * h
            v = _loglik_rows(rows, level, arrays)
            if np.isfinite(v).all():
                break
            h = h / 16
        else:
            return None
        plus, minus = v[1 : 2 * d + 1 : 2], v[2 : 2 * d + 1 : 2]
        hess = np.diag((plus - 2 * v[0] + minus) / (h * h))
        corners = v[2 * d + 1 :].reshape(-1, 4) @ [1.0, -1.0, -1.0, 1.0]
        hess[first, second] = hess[second, first] = corners / (4 * h[first] * h[second])
        grad = (plus - minus) / (2 * h)
        w, vec = np.linalg.eigh(-hess)
        w = np.maximum(np.abs(w), EIGEN_FLOOR * np.abs(w).max())
        return grad, vec @ ((vec.T @ grad) / w)

    return direction


def mle_fit(
    structure: ModelStructure,
    data: ExceedanceSet,
    cov: CovariateSeries | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Maximize the log-likelihood block by block; returns the active row.

    The rate block comes from ``_rate_mle``. The GPD block, with that rate
    held, runs a damped Newton ascent (``_gpd_direction``) from each of
    ``MLE_RESTARTS`` starts: the moment start, then that start perturbed with
    normal draws from ``rng``. Each start and each line-search trial point is
    evaluated through the ``make_loglik`` closure; a start with no finite
    log-likelihood ends its restart there. The restart with the highest
    log L wins, the first among equals. If the winning ascent, or the rate
    block's last one, stopped at ``MLE_MAX_ITERATIONS``, a warning names the
    structure. So does one if the winner has xi <= -1 at an event, or within
    a ``STENCIL_STEP`` of it, which the stencil cannot tell apart: the GPD
    likelihood is unbounded there, and the ascent ends on the support edge,
    not at a maximum.
    """
    if data.n_events == 0:
        raise ValueError("no exceedances to fit")
    loglik = make_loglik(structure, data, cov)
    arrays = LikelihoodData.build(data, cov, structure)
    level = structure.level
    n_rate = 1 if level is NonstatLevel.ST else 2

    base = _moment_start(structure, data)
    rate, rate_converged = _rate_mle(level, arrays, base[:n_rate])

    def value(x):
        with np.errstate(all="ignore"):  # a far trial point can overflow exp(-log sig)
            return loglik(np.concatenate((rate, x)))

    gpd_base = base[n_rate:]
    # the half-infinite (gamma-prior) parameters stay positive at the start
    positive = [prior_family_for(p, level) == "gamma" for p in structure.active_params[n_rate:]]
    direction = _gpd_direction(rate, level, arrays, gpd_base.size)
    best = None
    for k in range(MLE_RESTARTS):
        x0 = gpd_base.copy()
        if k > 0:
            scale = np.maximum(np.abs(gpd_base), 0.05)
            x0 = gpd_base + 0.3 * scale * rng.standard_normal(gpd_base.size)
            x0[positive] = np.abs(x0[positive])
        f0 = value(x0)
        if not math.isfinite(f0):
            continue
        found = _newton_ascent(x0, f0, direction, value)
        if best is None or found[1] > best[1]:
            best = found
    if best is None:
        raise ValueError("no feasible start")
    x, _, converged = best
    if not (converged and rate_converged):
        log.warning(
            "%s: the best Newton ascent stopped at %d iterations before converging",
            structure.id, MLE_MAX_ITERATIONS,
        )
    row = np.concatenate((rate, x))
    if (effective_params(row, level, arrays.phi_event)[2] <= STENCIL_STEP - 1).any():
        log.warning(
            "%s: the best fit has xi <= -1 at an event, where the GPD likelihood is "
            "unbounded; it lies on the support edge, not at a maximum", structure.id,
        )
    return row


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


def save_priors(priors: dict[str, PriorSet], path, meta: dict) -> None:
    payload = {
        "structures": {
            sid: {name: spec.to_dict() for name, spec in ps.specs.items()}
            for sid, ps in priors.items()
        },
        "meta": meta,
    }
    dump_json(payload, path)


def load_priors(path) -> dict[str, PriorSet]:
    out = {}
    with parse_errors_named(path):
        for sid, specs in load_json(path)["structures"].items():
            structure = ModelStructure.parse(sid)
            out[sid] = PriorSet(
                structure, {name: PriorSpec.from_dict(d) for name, d in specs.items()}
            )
    return out


def save_mle_table(table: dict[str, np.ndarray], path, meta: dict) -> None:
    payload = {
        "structures": {
            sid: {
                "param_names": list(ACTIVE_PARAMS[ModelStructure.parse(sid).level]),
                "estimates": np.asarray(est, dtype=float).tolist(),
            }
            for sid, est in table.items()
        },
        "meta": meta,
    }
    dump_json(payload, path)


def load_mle_table(path) -> dict[str, np.ndarray]:
    """The estimates of a table saved by ``save_mle_table``, keyed by structure
    id; refuses an entry whose columns are not its structure's active parameters."""
    table = {}
    with parse_errors_named(path):
        for sid, entry in load_json(path)["structures"].items():
            names = list(ACTIVE_PARAMS[ModelStructure.parse(sid).level])
            if entry["param_names"] != names:
                raise ValueError(f"{sid} lists param_names {entry['param_names']}, not {names}")
            table[sid] = np.asarray(entry["estimates"], dtype=float)
    return table
