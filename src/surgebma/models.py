"""Candidate PP/GPD model structures and their log-likelihood/posterior.

The event magnitudes above a fixed threshold follow a generalized Pareto
distribution while a Poisson process governs how many events occur per year.
Nonstationarity enters through a covariate phi(t) that shifts the Poisson
rate, the GPD scale (through its log), and the GPD shape linearly:

    lam(t) = lam0 + lam1 * phi(t)
    sig(t) = sig0                     (ST, NS1; direct positive scale)
    sig(t) = exp(sig0 + sig1*phi(t))  (NS2, NS3; sig0 is a log-scale intercept)
    xi(t)  = xi0 + xi1 * phi(t)

Thirteen candidate structures arise from four nonstationarity levels crossed
with four covariates (the fully stationary structure is shared). All
probability math is done in log space.

Parameters travel as active-parameter rows: float arrays in
``ACTIVE_PARAMS[level]`` order, the order of ensemble columns and MLE tables.
The MLE, the likelihood and posterior closures, the sampler, bridge sampling
and the return-level inversion all take rows, and ``effective_params`` is
the one place the rule above turns rows into (rate, scale, shape). The
sampler evaluates a (K, d) stack of rows per call (``make_logpost_rows``),
with values equal to the row closure's bit for bit.
``ParameterVector`` names the parameters for simulation specs and for the
public ``log_likelihood``/``log_posterior``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.special import gammaln

from .covariates import CovariateKind, CovariateSeries
from .preprocess import ExceedanceSet

if TYPE_CHECKING:
    from .priors import PriorSet

XI_EPS = 1e-8  # below this |xi| the exponential limit of the GPD is used
DAYS_PER_YEAR = 365.25


class NonstatLevel(str, enum.Enum):
    ST = "ST"  # fully stationary
    NS1 = "NS1"  # nonstationary Poisson rate
    NS2 = "NS2"  # nonstationary rate and scale
    NS3 = "NS3"  # nonstationary rate, scale and shape


ACTIVE_PARAMS: dict[NonstatLevel, tuple[str, ...]] = {
    NonstatLevel.ST: ("lam0", "sig0", "xi0"),
    NonstatLevel.NS1: ("lam0", "lam1", "sig0", "xi0"),
    NonstatLevel.NS2: ("lam0", "lam1", "sig0", "sig1", "xi0"),
    NonstatLevel.NS3: ("lam0", "lam1", "sig0", "sig1", "xi0", "xi1"),
}

# levels whose sig0 is the GPD scale itself rather than its log
DIRECT_SCALE = (NonstatLevel.ST, NonstatLevel.NS1)


@dataclass(frozen=True)
class ModelStructure:
    """Nonstationarity level plus covariate identity; covariate is None iff ST."""

    level: NonstatLevel
    covariate: CovariateKind | None

    def __post_init__(self):
        if (self.covariate is None) != (self.level is NonstatLevel.ST):
            raise ValueError("covariate must be absent exactly for the ST level")

    @property
    def id(self) -> str:
        if self.level is NonstatLevel.ST:
            return "ST"
        return f"{self.level.value}-{self.covariate.value}"

    @property
    def active_params(self) -> tuple[str, ...]:
        return ACTIVE_PARAMS[self.level]

    @classmethod
    def parse(cls, text: str) -> "ModelStructure":
        if text == "ST":
            return cls(NonstatLevel.ST, None)
        level, _, cov = text.partition("-")
        return cls(NonstatLevel(level), CovariateKind(cov))


def all_structures() -> list[ModelStructure]:
    """The 13 candidates in canonical order: ST, then NS1/NS2/NS3 per covariate."""
    out = [ModelStructure(NonstatLevel.ST, None)]
    for level in (NonstatLevel.NS1, NonstatLevel.NS2, NonstatLevel.NS3):
        for kind in CovariateKind:
            out.append(ModelStructure(level, kind))
    return out


@dataclass(frozen=True)
class ParameterVector:
    """Full parameter set; entries inactive for a given level stay at 0."""

    lam0: float = 0.0
    lam1: float = 0.0
    sig0: float = 0.0
    sig1: float = 0.0
    xi0: float = 0.0
    xi1: float = 0.0

    def active(self, level: NonstatLevel) -> np.ndarray:
        """The active row of ``level``; refuses a nonzero inactive entry."""
        names = ACTIVE_PARAMS[level]
        stray = [f.name for f in fields(self) if f.name not in names and getattr(self, f.name)]
        if stray:
            raise ValueError(f"{', '.join(stray)} not active at level {level.value}")
        return np.array([getattr(self, p) for p in names], dtype=float)


def effective_params(rows, level: NonstatLevel, phi):
    """Effective (rate, scale, shape) of active-parameter rows at covariate ``phi``.

    ``rows`` is one row or a stack of rows in ``ACTIVE_PARAMS[level]`` order;
    ``phi`` is a scalar or an array that broadcasts against the stack. A slope
    the level does not carry contributes nothing, so ST ignores ``phi``.
    Returns (lam per day, sig in meters, xi) as arrays of the broadcast shape.
    """
    rows = np.asarray(rows, dtype=float)
    p = dict(zip(ACTIVE_PARAMS[level], np.moveaxis(rows, -1, 0)))
    phi = np.asarray(phi, dtype=float)

    def linear(name):
        slope = p.get(name + "1")
        return p[name + "0"] if slope is None else p[name + "0"] + slope * phi

    lam, sig, xi = linear("lam"), linear("sig"), linear("xi")
    if level not in DIRECT_SCALE:
        sig = np.exp(sig)
    shape = np.broadcast_shapes(rows.shape[:-1], phi.shape)
    return tuple(np.broadcast_to(v, shape) for v in (lam, sig, xi))


# ---------------------------------------------------------------------------
# likelihood
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LikelihoodData:
    """Exceedance data flattened into arrays for fast repeated evaluation."""

    threshold: float
    counts: np.ndarray  # events per year block, as floats
    durations: np.ndarray  # observed days per year block
    phi: np.ndarray  # covariate value per year block
    excess: np.ndarray  # event height - threshold, flattened
    phi_event: np.ndarray  # covariate value per event
    lgamma_counts: float  # sum of log(n_i!), independent of parameters

    @classmethod
    def build(
        cls,
        data: ExceedanceSet,
        cov: CovariateSeries | None,
        structure: ModelStructure,
    ) -> "LikelihoodData":
        years = np.array([b.year for b in data.years], dtype=np.int64)
        counts = np.array([b.count for b in data.years], dtype=np.int64)
        durations = np.array([b.duration_days for b in data.years], dtype=float)
        if structure.level is NonstatLevel.ST:
            phi = np.zeros(years.size)
        else:
            if cov is None:
                raise ValueError("nonstationary structure requires a covariate series")
            phi = cov.values_for_years(years)  # raises on coverage gaps
        heights = np.array([r.height for b in data.years for r in b.records], dtype=float)
        phi_event = np.repeat(phi, counts)
        return cls(
            data.threshold,
            counts.astype(float),
            durations,
            phi,
            heights - data.threshold,
            phi_event,
            float(np.sum(gammaln(counts + 1))),
        )


def _any_at_most(a: np.ndarray, bound: float) -> bool:
    """``(a <= bound).any()`` in one reduction: the minimum decides it unless
    it is NaN, which hides whether another entry is at most ``bound``."""
    if not a.size:
        return False
    low = a.min()
    return low <= bound or (low != low and (a <= bound).any())


def _loglik_from_arrays(row, level: NonstatLevel, d: LikelihoodData) -> float:
    # Python floats and ndarray methods: the MLE objective calls this once per
    # Nelder-Mead step, where numpy's scalar and wrapper overheads dominate
    lam1 = sig1 = xi1 = 0.0
    if level is NonstatLevel.ST:
        lam0, sig0, xi0 = row.tolist()
    elif level is NonstatLevel.NS1:
        lam0, lam1, sig0, xi0 = row.tolist()
    elif level is NonstatLevel.NS2:
        lam0, lam1, sig0, sig1, xi0 = row.tolist()
    else:
        lam0, lam1, sig0, sig1, xi0, xi1 = row.tolist()

    if level is NonstatLevel.ST:  # phi is 0 in every year: the rate is lam0
        if lam0 <= 0:
            return -math.inf
        mean = lam0 * d.durations
    else:
        lam = lam0 + lam1 * d.phi
        if _any_at_most(lam, 0.0):
            return -math.inf
        mean = lam * d.durations
    pois = float((d.counts * np.log(mean) - mean).sum()) - d.lgamma_counts

    if level in DIRECT_SCALE:
        if sig0 <= 0:
            return -math.inf
        z = d.excess / sig0
        log_sig_sum = d.excess.size * math.log(sig0)
    else:
        log_sig = sig0 + sig1 * d.phi_event
        z = d.excess * np.exp(-log_sig)
        log_sig_sum = float(log_sig.sum())

    if xi1 == 0.0:
        if abs(xi0) < XI_EPS:
            gpd_sum = -float(z.sum())
        else:
            t = xi0 * z
            # 1 + t <= 0 is t <= -1: the sum is exact for t in [-2, -0.5]
            if _any_at_most(t, -1.0):
                return -math.inf
            gpd_sum = -(1.0 + 1.0 / xi0) * float(np.log1p(t).sum())
    else:
        xi_ev = xi0 + xi1 * d.phi_event
        t = xi_ev * z
        if _any_at_most(t, -1.0):
            return -math.inf
        abs_xi = np.abs(xi_ev)
        # a NaN shape makes its term NaN on either path, so the minimum decides
        if abs_xi.size and abs_xi.min() < XI_EPS:
            small = abs_xi < XI_EPS
            terms = np.where(
                small,
                -z,
                -(1.0 + 1.0 / np.where(small, 1.0, xi_ev)) * np.log1p(np.where(small, 0.0, t)),
            )
        else:
            terms = -(1.0 + 1.0 / xi_ev) * np.log1p(t)
        gpd_sum = float(terms.sum())
    return pois + gpd_sum - log_sig_sum


@np.errstate(all="ignore")
def _loglik_rows(rows: np.ndarray, level: NonstatLevel, d: LikelihoodData) -> np.ndarray:
    """Log-likelihood of each row of a (K, d) stack, as a (K,) array.

    Every term is a (K, n) array reduced along axis 1, in the operation order
    of ``_loglik_from_arrays``, so each value equals the row kernel's bit for
    bit. A row failing a support check is -inf; the other rows' terms are
    computed regardless, hence the silenced floating-point warnings. NS3 rows
    with ``xi1 == 0.0`` go through the row kernel, whose constant-shape branch
    sums the GPD terms in another order.
    """
    p = dict(zip(ACTIVE_PARAMS[level], rows.T[:, :, None]))  # (K, 1) columns
    lam0, sig0 = p["lam0"], p["sig0"]

    lam = lam0 + p.get("lam1", 0.0) * d.phi
    dead = (lam <= 0).any(axis=1)
    mean = lam * d.durations
    pois = (d.counts * np.log(mean) - mean).sum(axis=1) - d.lgamma_counts

    if level in DIRECT_SCALE:
        dead |= sig0[:, 0] <= 0
        z = d.excess / sig0
        # math.log, as in the row kernel: np.log can differ in the last bit
        log_sig_sum = np.array(
            [d.excess.size * math.log(s) if s > 0 else math.nan for s in sig0[:, 0].tolist()]
        )
    else:
        log_sig = sig0 + p["sig1"] * d.phi_event
        z = d.excess * np.exp(-log_sig)
        log_sig_sum = log_sig.sum(axis=1)

    # t <= -1 is the row kernel's 1 + t <= 0: that sum is exact for t in [-2, -0.5]
    if level is NonstatLevel.NS3:
        xi_ev = p["xi0"] + p["xi1"] * d.phi_event
        t = xi_ev * z
        dead |= (t <= -1.0).any(axis=1)
        terms = -(1.0 + 1.0 / xi_ev) * np.log1p(t)
        small = np.abs(xi_ev) < XI_EPS
        if small.any():
            terms = np.where(small, -z, terms)
        gpd_sum = terms.sum(axis=1)
    else:
        xi = p["xi0"][:, 0]
        t = p["xi0"] * z
        gpd_sum = -(1.0 + 1.0 / xi) * np.log1p(t).sum(axis=1)
        small = np.abs(xi) < XI_EPS
        dead |= ~small & (t <= -1.0).any(axis=1)
        if small.any():
            gpd_sum = np.where(small, -z.sum(axis=1), gpd_sum)

    out = np.where(dead, -math.inf, pois + gpd_sum - log_sig_sum)
    if level is NonstatLevel.NS3:
        for k in np.flatnonzero(p["xi1"][:, 0] == 0.0):
            out[k] = _loglik_from_arrays(rows[k], level, d)
    return out


def make_loglik(
    structure: ModelStructure, data: ExceedanceSet, cov: CovariateSeries | None
) -> Callable[[np.ndarray], float]:
    """Precompute the data arrays and return a fast row -> log L closure."""
    arrays = LikelihoodData.build(data, cov, structure)
    level = structure.level

    def loglik(row: np.ndarray) -> float:
        return _loglik_from_arrays(row, level, arrays)

    return loglik


def log_likelihood(
    theta: ParameterVector,
    structure: ModelStructure,
    data: ExceedanceSet,
    cov: CovariateSeries | None,
) -> float:
    """Joint log-likelihood: yearly Poisson counts plus per-event GPD terms.

    Years without events contribute only their Poisson factor. Returns -inf
    whenever any year has a nonpositive rate or scale, or an event falls
    outside the GPD support.
    """
    return make_loglik(structure, data, cov)(theta.active(structure.level))


def _check_priors(priors: "PriorSet", structure: ModelStructure) -> None:
    if priors.structure.id != structure.id:
        raise ValueError(f"prior set fitted for {priors.structure.id}, not {structure.id}")


def log_prior(theta: ParameterVector, structure: ModelStructure, priors: "PriorSet") -> float:
    """Sum of per-parameter prior log densities over the active parameters."""
    _check_priors(priors, structure)
    return priors.logpdf(theta.active(structure.level))


def make_logpost(
    structure: ModelStructure,
    data: ExceedanceSet,
    cov: CovariateSeries | None,
    priors: "PriorSet",
) -> Callable[[np.ndarray], float]:
    """Unnormalized log-posterior closure over active-parameter rows.

    -inf from either factor propagates; the likelihood is skipped when the
    prior is already -inf. Bridge sampling evaluates one row at a time, where
    this closure is faster than a one-row stack of ``make_logpost_rows``.
    """
    loglik = make_loglik(structure, data, cov)
    _check_priors(priors, structure)

    def logpost(row: np.ndarray) -> float:
        lp = priors.logpdf(row)
        if lp == -math.inf:
            return -math.inf
        return lp + loglik(row)

    return logpost


# a second name for the same factory: the evidence stage calls it by this
# name, so its density evals can be wrapped apart from other callers'
make_logpost_on_active = make_logpost


def make_logpost_rows(
    structure: ModelStructure,
    data: ExceedanceSet,
    cov: CovariateSeries | None,
    priors: "PriorSet",
) -> Callable[[np.ndarray], np.ndarray]:
    """Stacked log-posterior: a (K, d) stack of active rows -> (K,) values.

    Value k equals ``make_logpost(...)(rows[k])`` bit for bit, so the lockstep
    sampler draws the same chains as one row closure per chain. The prior is
    the scalar ``PriorSet.logpdf`` per row; a row whose prior is -inf is -inf
    whatever its likelihood.
    """
    arrays = LikelihoodData.build(data, cov, structure)
    _check_priors(priors, structure)
    level = structure.level

    def logpost_rows(rows: np.ndarray) -> np.ndarray:
        lp = np.array([priors.logpdf(row) for row in rows.tolist()])
        return np.where(lp == -math.inf, -math.inf, lp + _loglik_rows(rows, level, arrays))

    return logpost_rows


def log_posterior(
    theta: ParameterVector,
    structure: ModelStructure,
    data: ExceedanceSet,
    cov: CovariateSeries | None,
    priors: "PriorSet",
) -> float:
    return make_logpost(structure, data, cov, priors)(theta.active(structure.level))
