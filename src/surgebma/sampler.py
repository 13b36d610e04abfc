"""Robust adaptive Metropolis MCMC with multi-chain convergence checks.

The proposal covariance factor adapts by a rank-one update that coerces the
acceptance rate toward a target (Vihola 2012, Stat. Comput. 22:997-1008).
Convergence across parallel chains is monitored with the potential scale
reduction factor of Gelman and Rubin (1992), after which the post-burn-in
iterates are pooled and thinned into the final posterior ensemble.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .models import ModelStructure
from .utils import dump_json, format_float, load_json


@dataclass(frozen=True)
class ChainConfig:
    n_iterations: int = 10_000
    n_chains: int = 4
    target_acceptance: float = 0.234
    adaptation_decay: float = 0.66  # gamma exponent of the step-size schedule
    seed: int = 0
    burn_in: int = 1_000
    thinned_size: int = 1_000
    psrf_gate: float = 1.1

    def __post_init__(self):
        if not 0 < self.target_acceptance < 1:
            raise ValueError("target_acceptance must lie in (0, 1)")
        if not 0.5 < self.adaptation_decay <= 1.0:
            raise ValueError("adaptation_decay must lie in (0.5, 1]")
        if not 0 <= self.burn_in < self.n_iterations:
            raise ValueError("burn_in must be smaller than n_iterations")
        if self.n_chains < 1 or self.thinned_size < 1:
            raise ValueError("n_chains and thinned_size must be positive")


@dataclass
class RawChains:
    """Output of ``run_chains``: per-chain iterate arrays plus bookkeeping."""

    structure: ModelStructure
    param_names: tuple[str, ...]
    chains: np.ndarray  # (n_chains, n_iterations, d)
    acceptance: np.ndarray  # per-chain empirical acceptance rate
    config: ChainConfig


@dataclass
class PosteriorEnsemble:
    """Thinned pooled posterior draws plus convergence diagnostics."""

    structure: ModelStructure
    param_names: tuple[str, ...]
    draws: np.ndarray  # (thinned_size, d)
    diagnostics: dict = field(default_factory=dict)

    def save(self, csv_path, diagnostics_path=None) -> None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.param_names)
            for row in self.draws:
                writer.writerow([format_float(v) for v in row])
        if diagnostics_path is not None:
            dump_json(
                {"structure": self.structure.id, "param_names": list(self.param_names),
                 **self.diagnostics},
                diagnostics_path,
            )

    @classmethod
    def load(cls, csv_path, structure: ModelStructure, diagnostics_path=None) -> "PosteriorEnsemble":
        with open(csv_path, newline="") as fh:
            reader = csv.reader(fh)
            names = tuple(next(reader))
            if names != structure.active_params:
                raise ValueError(f"{csv_path}: columns {names} are not those of {structure.id}")
            draws = np.array([[float(v) for v in row] for row in reader])
        diags = {}
        if diagnostics_path is not None:
            diags = load_json(diagnostics_path)
        return cls(structure, names, draws, diags)


# ---------------------------------------------------------------------------
# robust adaptive Metropolis
# ---------------------------------------------------------------------------


def ram_step(
    theta: np.ndarray,
    log_p: float,
    chol: np.ndarray,
    iteration: int,
    log_posterior: Callable[[np.ndarray], float],
    rng: np.random.Generator,
    target_acceptance: float = 0.234,
    adaptation_decay: float = 0.66,
    adapt: bool = True,
):
    """One Metropolis step with rank-one coercion of the proposal factor.

    Proposes theta + S u with u standard normal, accepts with probability
    alpha = min(1, exp(dlogp)), then rescales S along u so the long-run
    acceptance rate is pulled toward the target. Returns
    (theta', log_p', S', accepted, alpha). A non-finite proposal density
    counts as a rejection, not an error.
    """
    d = theta.size
    if np.any(np.diag(chol) <= 0) or np.any(np.triu(chol, 1) != 0.0):
        raise ValueError("proposal factor must be lower-triangular with positive diagonal")

    u = rng.standard_normal(d)
    proposal = theta + chol @ u
    log_p_prop = log_posterior(proposal)
    if math.isfinite(log_p_prop):
        alpha = min(1.0, math.exp(min(log_p_prop - log_p, 0.0)))
    else:
        alpha = 0.0

    accepted = alpha > 0.0 and rng.uniform() < alpha
    if accepted:
        theta, log_p = proposal, log_p_prop

    if adapt:
        norm2 = float(u @ u)
        if norm2 > 0.0:
            eta = min(1.0, d * iteration ** (-adaptation_decay))
            m = (eta * (alpha - target_acceptance) / norm2) * np.outer(u, u)
            m.flat[:: d + 1] += 1.0
            chol = np.linalg.cholesky(chol @ m @ chol.T)
    return theta, log_p, chol, accepted, alpha


def initial_proposal_factor(start: np.ndarray) -> np.ndarray:
    """Diagonal start for S, scaled to 10% of each component's magnitude."""
    return np.diag(np.maximum(np.abs(start), 0.1) * 0.1)


def run_chains(
    structure: ModelStructure,
    log_posterior: Callable[[np.ndarray], float],
    start: np.ndarray,
    config: ChainConfig,
) -> RawChains:
    """Run ``config.n_chains`` independent adaptive chains from ``start``.

    ``start`` and the rows passed to ``log_posterior`` are active-parameter
    rows. Chains are initialized at the maximum likelihood estimate and
    driven by independent RNG streams spawned from the configured seed, so
    results are deterministic given (seed, config, inputs).
    """
    names = structure.active_params
    x0 = np.array(start, dtype=float)
    if x0.shape != (len(names),):
        raise ValueError(f"expected {len(names)} start values for {structure.id}")

    lp0 = log_posterior(x0)
    if not math.isfinite(lp0):
        raise ValueError("chain start has non-finite log-posterior")

    d = x0.size
    streams = np.random.SeedSequence(config.seed).spawn(config.n_chains)
    chains = np.empty((config.n_chains, config.n_iterations, d))
    acceptance = np.empty(config.n_chains)
    for c in range(config.n_chains):
        rng = np.random.default_rng(streams[c])
        theta, log_p = x0.copy(), lp0
        chol = initial_proposal_factor(x0)
        n_accept = 0
        for n in range(1, config.n_iterations + 1):
            theta, log_p, chol, accepted, _ = ram_step(
                theta,
                log_p,
                chol,
                n,
                log_posterior,
                rng,
                config.target_acceptance,
                config.adaptation_decay,
            )
            chains[c, n - 1] = theta
            n_accept += accepted
        acceptance[c] = n_accept / config.n_iterations
    return RawChains(structure, names, chains, acceptance, config)


# ---------------------------------------------------------------------------
# diagnostics and pooling
# ---------------------------------------------------------------------------


def gelman_rubin(chains: np.ndarray, burn_in: int = 0) -> np.ndarray:
    """Potential scale reduction factor per parameter (Gelman & Rubin 1992).

    ``chains`` has shape (n_chains, n_iterations, d); the first ``burn_in``
    iterations of every chain are discarded before comparing the between-
    and within-chain variances.
    """
    chains = np.asarray(chains, dtype=float)
    if chains.ndim != 3 or chains.shape[0] < 2:
        raise ValueError("need at least 2 chains of shape (m, n, d)")
    seg = chains[:, burn_in:, :]
    n = seg.shape[1]
    if n < 10:
        raise ValueError("post-burn-in segments too short")
    means = seg.mean(axis=1)  # (m, d)
    within = seg.var(axis=1, ddof=1).mean(axis=0)  # W per parameter
    between = n * means.var(axis=0, ddof=1)  # B per parameter
    if np.any(within <= 0):
        raise ValueError("degenerate chains: zero within-chain variance")
    var_hat = (n - 1) / n * within + between / n
    return np.sqrt(var_hat / within)


def pool_and_thin(
    raw: RawChains,
    rng: np.random.Generator,
    burn_in: int | None = None,
    thinned_size: int | None = None,
    psrf_gate: float | None = None,
    force: bool = False,
) -> PosteriorEnsemble:
    """Pool post-burn-in iterates of all chains and draw a uniform subsample.

    Refuses to pool when any parameter's PSRF exceeds the gate, unless
    ``force`` is set (the offending parameters are then recorded in the
    diagnostics instead).
    """
    cfg = raw.config
    burn_in = cfg.burn_in if burn_in is None else burn_in
    thinned_size = cfg.thinned_size if thinned_size is None else thinned_size
    psrf_gate = cfg.psrf_gate if psrf_gate is None else psrf_gate

    psrf = gelman_rubin(raw.chains, burn_in)
    offenders = [name for name, r in zip(raw.param_names, psrf) if r >= psrf_gate]
    if offenders and not force:
        raise RuntimeError(
            f"PSRF gate {psrf_gate} violated for {raw.structure.id}: "
            + ", ".join(f"{n}={r:.4f}" for n, r in zip(raw.param_names, psrf) if n in offenders)
        )

    pooled = raw.chains[:, burn_in:, :].reshape(-1, raw.chains.shape[2])
    if thinned_size > pooled.shape[0]:
        raise ValueError("thinned_size exceeds the pooled sample")
    idx = rng.choice(pooled.shape[0], size=thinned_size, replace=False)
    diagnostics = {
        "psrf": {name: float(r) for name, r in zip(raw.param_names, psrf)},
        "acceptance": [float(a) for a in raw.acceptance],
        "seed": cfg.seed,
        "n_iterations": cfg.n_iterations,
        "n_chains": cfg.n_chains,
        "burn_in": burn_in,
        "thinned_size": thinned_size,
        "psrf_gate": psrf_gate,
        "forced": bool(offenders),
        "psrf_gate_failed": offenders,
    }
    return PosteriorEnsemble(raw.structure, raw.param_names, pooled[idx], diagnostics)
