"""Marginal likelihood by bridge sampling, and Bayesian model averaging weights.

The optimal-bridge fixed point of Meng and Wong (1996) is iterated between
the posterior ensemble and a moment-matched multivariate normal proposal.
Half of the ensemble fits the proposal, the other half enters the iteration,
which avoids using the same draws twice. Model weights follow from the log
evidences under a uniform prior over the candidate structures.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .covariates import CovariateKind
from .models import ModelStructure, NonstatLevel, all_structures
from .sampler import PosteriorEnsemble
from .utils import GateError, dump_json, format_float, load_json, parse_errors_named, write_csv

log = logging.getLogger(__name__)

WEIGHT_SUM_TOL = 1e-9
BRIDGE_TOL = 1e-10  # relative change of the evidence that stops the fixed point
BRIDGE_MAX_ITER = 1000
PROPOSAL_JITTER = 1e-10  # added to the proposal covariance diagonal
MIN_ENSEMBLE_DRAWS = 1000  # least ensemble size bridge sampling accepts


@dataclass(frozen=True)
class EvidenceEstimate:
    structure: ModelStructure
    log_evidence: float
    iterations_used: int
    relative_change_at_stop: float

    def __post_init__(self):
        if not math.isfinite(self.log_evidence):
            raise ValueError(f"non-finite log evidence for {self.structure.id}")


@dataclass(frozen=True)
class BmaWeights:
    """Posterior model probabilities; they sum to one by construction."""

    weights: dict[str, float]

    def __post_init__(self):
        total = sum(self.weights.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL or any(w < 0 for w in self.weights.values()):
            raise ValueError("weights must be nonnegative and sum to 1")


def _mvn_logpdf(x: np.ndarray, mean: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Log density of N(mean, L L^T) for rows of x."""
    d = mean.size
    y = np.linalg.solve(chol, (x - mean).T)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (d * math.log(2.0 * math.pi) + logdet + np.sum(y * y, axis=0))


def bridge_evidence(
    posterior: PosteriorEnsemble,
    log_density: Callable[[np.ndarray], float],
    rng: np.random.Generator,
) -> EvidenceEstimate:
    """Estimate log p(x | M) from a posterior ensemble by bridge sampling.

    ``log_density`` evaluates the unnormalized posterior on one row of active
    parameters. The first half of the ensemble moment-matches the normal
    proposal; the second half and an equal number of proposal draws feed the
    fixed-point iteration, which stops once the relative change of the
    evidence estimate drops below ``BRIDGE_TOL``.
    """
    draws = np.asarray(posterior.draws, dtype=float)
    if draws.shape[0] < MIN_ENSEMBLE_DRAWS:
        raise ValueError(f"need an ensemble of at least {MIN_ENSEMBLE_DRAWS} draws")

    n_fit = draws.shape[0] // 2
    fit, it = draws[:n_fit], draws[n_fit:]
    mean = fit.mean(axis=0)
    cov = np.cov(fit, rowvar=False).reshape(fit.shape[1], fit.shape[1])
    cov = cov + PROPOSAL_JITTER * np.eye(cov.shape[0])
    if not np.all(np.isfinite(cov)):
        raise ValueError("non-finite proposal covariance")
    chol = np.linalg.cholesky(cov)

    # as many proposal draws as posterior ones, so each side's share n / (2n) is 0.5
    n = it.shape[0]
    proposal = mean + rng.standard_normal((n, mean.size)) @ chol.T

    def logq(rows: np.ndarray) -> np.ndarray:
        return np.array([log_density(r) for r in rows])

    l1 = logq(it) - _mvn_logpdf(it, mean, chol)  # posterior-side log ratios
    l2 = logq(proposal) - _mvn_logpdf(proposal, mean, chol)  # proposal-side
    if np.any(~np.isfinite(l1)):
        raise ValueError("non-finite posterior density on ensemble draws")

    lstar = float(np.median(l1))
    r = 1.0
    for iterations in range(1, BRIDGE_MAX_ITER + 1):
        # written to stay finite when the exponentials overflow either way
        with np.errstate(over="ignore"):
            num = 1.0 / (0.5 + 0.5 * r * np.exp(-(l2 - lstar)))
            den = 1.0 / (0.5 * np.exp(l1 - lstar) + 0.5 * r)
        r_new = (np.sum(num) / n) / (np.sum(den) / n)
        if not math.isfinite(r_new) or r_new <= 0.0:
            raise GateError("bridge iteration collapsed; proposal does not overlap the posterior")
        rel = abs(r_new - r) / r_new
        r = r_new
        if rel < BRIDGE_TOL:
            break
    else:
        log.warning(
            "bridge sampling for %s stopped at relative change %.3e after %d iterations",
            posterior.structure.id,
            rel,
            BRIDGE_MAX_ITER,
        )
    return EvidenceEstimate(posterior.structure, math.log(r) + lstar, iterations, rel)


# ---------------------------------------------------------------------------
# model weights
# ---------------------------------------------------------------------------


def bma_weights(evidences: list[EvidenceEstimate]) -> BmaWeights:
    """Posterior model probabilities under a uniform model prior, computed in
    log space."""
    if not evidences:
        raise ValueError("no evidence estimates supplied")
    ids = [e.structure.id for e in evidences]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate structures in evidence list")
    log_prior = math.log(1.0 / len(ids))
    logw = np.array([e.log_evidence + log_prior for e in evidences])
    shift = logw.max()  # every exp(logw - shift) is at most 1, so the sum cannot overflow
    weights = np.exp(logw - (shift + math.log(np.sum(np.exp(logw - shift)))))
    return BmaWeights(dict(zip(ids, weights)))


def aggregate_by_covariate(weights: BmaWeights) -> dict[str, float]:
    """Total weight per covariate (its NS1+NS2+NS3 structures) plus ST alone."""
    expected = {s.id for s in all_structures()}
    if set(weights.weights) != expected:
        raise ValueError("aggregation requires the full 13-structure weight set")
    out: dict[str, float] = {kind.value: 0.0 for kind in CovariateKind}
    out["ST"] = weights.weights["ST"]
    for s in all_structures():
        if s.level is not NonstatLevel.ST:
            out[s.covariate.value] += weights.weights[s.id]
    return out


def weights_by_level_within_covariate(
    evidences: list[EvidenceEstimate],
) -> dict[str, dict[str, float]]:
    """Per-covariate BMA over its own four candidates (ST, NS1, NS2, NS3).

    Each covariate's four structures are renormalized in isolation; this is
    the bar-chart layout with one panel per covariate.
    """
    by_id = {e.structure.id: e for e in evidences}
    out: dict[str, dict[str, float]] = {}
    for kind in CovariateKind:
        ids = {s.level.value: s.id for s in all_structures() if s.covariate in (None, kind)}
        w = bma_weights([by_id[sid] for sid in ids.values()]).weights
        out[kind.value] = {lvl: w[sid] for lvl, sid in ids.items()}
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _estimate_dict(e: EvidenceEstimate) -> dict:
    return {
        "log_evidence": e.log_evidence,
        "iterations_used": e.iterations_used,
        "relative_change_at_stop": e.relative_change_at_stop,
    }


def save_evidence(evidences: list[EvidenceEstimate], path, config_sha256: str) -> None:
    """The ``evidence`` stage's artifact: one estimate per structure id."""
    structures = {e.structure.id: _estimate_dict(e) for e in evidences}
    dump_json({"config_sha256": config_sha256, "structures": structures}, path)


def load_evidence(path) -> dict[str, EvidenceEstimate]:
    """Estimates saved by ``save_evidence``, keyed by structure id."""
    with parse_errors_named(path):
        stored = load_json(path)["structures"]
        return {sid: EvidenceEstimate(ModelStructure.parse(sid), **d) for sid, d in stored.items()}


def save_evidence_report(
    evidences: list[EvidenceEstimate], weights: BmaWeights, path
) -> None:
    payload = {
        e.structure.id: {**_estimate_dict(e), "weight": weights.weights[e.structure.id]}
        for e in evidences
    }
    dump_json(payload, path)


def write_weights_csv(weights: BmaWeights, path) -> None:
    """One row per structure, in the order the weights were computed."""
    write_csv(path, ["structure", "bma_weight"],
              ([sid, format_float(w)] for sid, w in weights.weights.items()))


def write_aggregated_weights_csv(aggregated: dict[str, float], path) -> None:
    """One row per covariate plus the stationary model, in report order."""
    order = [k.value for k in CovariateKind] + ["ST"]
    write_csv(path, ["covariate", "bma_weight"],
              ([key, format_float(aggregated[key])] for key in order))


def write_level_weights_csv(per_covariate: dict[str, dict[str, float]], path) -> None:
    """One row per covariate: the weights of its own four candidates, by level."""
    levels = [lvl.value for lvl in NonstatLevel]
    write_csv(path, ["covariate", *levels],
              ([kind.value] + [format_float(per_covariate[kind.value][lv]) for lv in levels]
               for kind in CovariateKind))
