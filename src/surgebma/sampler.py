"""Robust adaptive Metropolis MCMC with multi-chain convergence checks.

The proposal covariance factor adapts by a rank-one update that coerces the
acceptance rate toward 0.234 (Vihola 2012, Stat. Comput. 22:997-1008).
All chains of a structure advance in lockstep, with one call of a stacked
log-posterior per iteration and one random stream per chain.
Convergence across parallel chains is monitored with the potential scale
reduction factor of Gelman and Rubin (1992), after which the post-burn-in
iterates are pooled and thinned into the final posterior ensemble.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .models import ModelStructure
from .utils import GateError, dump_json, parse_errors_named, write_csv

MIN_CHAINS = 2  # the PSRF compares the spread between chains with that within them
MIN_SEGMENT = 10  # least post-burn-in iterations per chain for the PSRF
TARGET_ACCEPTANCE = 0.234  # the acceptance rate RAM coerces each chain toward
ADAPTATION_DECAY = 0.66  # gamma exponent of the step-size schedule n^-gamma


@dataclass(frozen=True)
class ChainConfig:
    n_iterations: int = 10_000
    n_chains: int = 4
    seed: int = 0
    burn_in: int = 1_000
    thinned_size: int = 1_000
    psrf_gate: float = 1.1

    def __post_init__(self):
        if not 0 <= self.burn_in < self.n_iterations:
            raise ValueError("burn_in must be smaller than n_iterations")
        if self.n_chains < 1 or self.thinned_size < 1:
            raise ValueError("n_chains and thinned_size must be positive")
        pooled = self.n_chains * (self.n_iterations - self.burn_in)
        if self.thinned_size > pooled:
            raise ValueError(
                f"thinned_size {self.thinned_size} exceeds the pooled sample of "
                f"n_chains x (n_iterations - burn_in) = {pooled}"
            )
        if not math.isfinite(self.psrf_gate):
            # a NaN or infinite gate passes any finite PSRF; --force is the way past it
            raise ValueError(f"psrf_gate must be finite, got {self.psrf_gate!r}")


@dataclass
class RawChains:
    """Output of ``run_chains``: per-chain iterate arrays plus bookkeeping."""

    structure: ModelStructure
    chains: np.ndarray  # (n_chains, n_iterations, d)
    acceptance: np.ndarray  # per-chain empirical acceptance rate
    config: ChainConfig


@dataclass
class PosteriorEnsemble:
    """Thinned pooled posterior draws plus convergence diagnostics."""

    structure: ModelStructure
    draws: np.ndarray  # (thinned_size, d), columns in structure.active_params order
    diagnostics: dict = field(default_factory=dict)

    def save(self, csv_path, diagnostics_path) -> None:
        names = self.structure.active_params
        # repr of the Python floats is format_float's text, without a numpy scalar per value
        write_csv(csv_path, names, (map(repr, row) for row in self.draws.tolist()))
        dump_json(
            {"structure": self.structure.id, "param_names": list(names), **self.diagnostics},
            diagnostics_path,
        )

    @classmethod
    def load(cls, csv_path, structure: ModelStructure) -> "PosteriorEnsemble":
        """Draws saved by ``save``; the diagnostics file is not read."""
        with open(csv_path, newline="") as fh, parse_errors_named(csv_path):
            reader = csv.reader(fh)
            names = tuple(next(reader))
            if names != structure.active_params:
                raise ValueError(f"{csv_path}: columns {names} are not those of {structure.id}")
            # numpy parses each string as float() does
            draws = np.array(list(reader), dtype=float)
        return cls(structure, draws)


# ---------------------------------------------------------------------------
# robust adaptive Metropolis
# ---------------------------------------------------------------------------


def ram_step(
    theta: np.ndarray,
    log_p: np.ndarray,
    chol: np.ndarray,
    iteration: int,
    log_posterior: Callable[[np.ndarray], np.ndarray],
    rngs: Sequence[np.random.Generator],
):
    """One Metropolis step of K chains in lockstep, with rank-one coercion.

    ``theta`` is (K, d), ``log_p`` (K,), ``chol`` (K, d, d) lower-triangular
    with positive diagonal (``run_chains`` starts it diagonal; the Cholesky
    update keeps it so), and ``log_posterior`` maps a (K, d) stack to (K,) values.
    Chain k proposes theta_k + S_k u_k with u_k drawn from ``rngs[k]``,
    accepts with probability alpha_k = min(1, exp(dlogp)), then rescales S_k
    along u_k so its long-run acceptance rate is pulled toward
    ``TARGET_ACCEPTANCE``, with step size min(1, d n^-``ADAPTATION_DECAY``).
    Each generator draws ``standard_normal(d)`` and then a uniform only when
    alpha_k > 0, the order of a chain stepped on its own. Returns
    (theta', log_p', S', accepted, alpha); a non-finite proposal density
    counts as a rejection, not an error.
    """
    k, d = theta.shape
    draws = [rng.standard_normal(d) for rng in rngs]
    u = np.array(draws)
    proposal = theta + np.matmul(chol, u[:, :, None])[:, :, 0]
    log_p_prop = log_posterior(proposal)

    alpha = [
        min(1.0, math.exp(min(new - old, 0.0))) if math.isfinite(new) else 0.0
        for new, old in zip(log_p_prop.tolist(), log_p.tolist())
    ]
    # random() is the value and the stream position of uniform(), without its bounds arithmetic
    accepted = np.array([a > 0.0 and rng.random() < a for a, rng in zip(alpha, rngs)])
    theta = np.where(accepted[:, None], proposal, theta)
    log_p = np.where(accepted, log_p_prop, log_p)

    eta = min(1.0, d * iteration ** (-ADAPTATION_DECAY))
    # one dot product per chain: a stacked sum of squares differs in the last bit
    norm2 = [v.dot(v) for v in draws]
    coef = [eta * (a - TARGET_ACCEPTANCE) / n if n > 0.0 else 0.0 for a, n in zip(alpha, norm2)]
    m = np.array(coef)[:, None, None] * (u[:, :, None] * u[:, None, :])
    m.reshape(k, -1)[:, :: d + 1] += 1.0
    chol = np.linalg.cholesky(chol @ m @ chol.transpose(0, 2, 1))
    return theta, log_p, chol, accepted, np.array(alpha)


def initial_proposal_factor(start: np.ndarray) -> np.ndarray:
    """Diagonal start for S, scaled to 10% of each component's magnitude."""
    return np.diag(np.maximum(np.abs(start), 0.1) * 0.1)


def run_chains(
    structure: ModelStructure,
    log_posterior: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    config: ChainConfig,
) -> RawChains:
    """Run ``config.n_chains`` adaptive chains from ``start`` in lockstep.

    ``start`` is an active-parameter row, and ``log_posterior`` is a stacked
    density (``models.make_logpost_rows``): it maps a (K, d) stack of rows to
    (K,) values, and is called once per iteration for all chains. Chains are
    initialized at the maximum likelihood estimate and driven by independent
    RNG streams spawned from the configured seed, so results are
    deterministic given (seed, config, inputs), and chain c is the chain
    that ``ram_step`` on chain c alone would draw.
    """
    names = structure.active_params
    x0 = np.array(start, dtype=float)
    if x0.shape != (len(names),):
        raise ValueError(f"expected {len(names)} start values for {structure.id}")
    if not np.all(np.isfinite(x0)):  # so the initial factor is a positive diagonal
        raise ValueError("chain start has non-finite values")

    lp0 = float(log_posterior(x0[None, :])[0])
    if not math.isfinite(lp0):
        raise ValueError("chain start has non-finite log-posterior")

    n_chains, d = config.n_chains, x0.size
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(n_chains)]
    theta = np.tile(x0, (n_chains, 1))
    log_p = np.full(n_chains, lp0)
    chol = np.tile(initial_proposal_factor(x0), (n_chains, 1, 1))
    chains = np.empty((n_chains, config.n_iterations, d))
    n_accept = np.zeros(n_chains, dtype=np.int64)
    for n in range(1, config.n_iterations + 1):
        theta, log_p, chol, accepted, _ = ram_step(theta, log_p, chol, n, log_posterior, rngs)
        chains[:, n - 1] = theta
        n_accept += accepted
    acceptance = n_accept / config.n_iterations
    return RawChains(structure, chains, acceptance, config)


# ---------------------------------------------------------------------------
# diagnostics and pooling
# ---------------------------------------------------------------------------


def gelman_rubin(chains: np.ndarray, burn_in: int) -> np.ndarray:
    """Potential scale reduction factor per parameter (Gelman & Rubin 1992).

    ``chains`` has shape (n_chains, n_iterations, d); the first ``burn_in``
    iterations of every chain are discarded before comparing the between-
    and within-chain variances.
    """
    chains = np.asarray(chains, dtype=float)
    if chains.ndim != 3 or chains.shape[0] < MIN_CHAINS:
        raise ValueError(f"need at least {MIN_CHAINS} chains of shape (m, n, d)")
    seg = chains[:, burn_in:, :]
    n = seg.shape[1]
    if n < MIN_SEGMENT:
        raise ValueError("post-burn-in segments too short")
    means = seg.mean(axis=1)  # (m, d)
    within = seg.var(axis=1, ddof=1).mean(axis=0)  # W per parameter
    between = n * means.var(axis=0, ddof=1)  # B per parameter
    if np.any(within <= 0):
        # chains that never moved: a failed computation, with no PSRF to force past
        raise GateError("degenerate chains: zero within-chain variance")
    var_hat = (n - 1) / n * within + between / n
    return np.sqrt(var_hat / within)


def pool_and_thin(raw: RawChains, rng: np.random.Generator, force: bool) -> PosteriorEnsemble:
    """Pool post-burn-in iterates of all chains and draw a uniform subsample.

    Burn-in, subsample size and PSRF gate are those of ``raw.config``, whose
    construction guarantees the pool holds ``thinned_size`` iterates.
    Refuses to pool, with a ``GateError``, when any parameter's PSRF exceeds
    the gate, unless ``force`` is set (the offending parameters are then
    recorded in the diagnostics instead).
    """
    cfg = raw.config
    names = raw.structure.active_params
    psrf = gelman_rubin(raw.chains, cfg.burn_in)
    offenders = [name for name, r in zip(names, psrf) if r >= cfg.psrf_gate]
    if offenders and not force:
        raise GateError(
            f"PSRF gate {cfg.psrf_gate} violated for {raw.structure.id}: "
            + ", ".join(f"{n}={r:.4f}" for n, r in zip(names, psrf) if n in offenders)
        )

    pooled = raw.chains[:, cfg.burn_in:, :].reshape(-1, raw.chains.shape[2])
    idx = rng.choice(pooled.shape[0], size=cfg.thinned_size, replace=False)
    diagnostics = {
        "psrf": {name: float(r) for name, r in zip(names, psrf)},
        "acceptance": [float(a) for a in raw.acceptance],
        "seed": cfg.seed,
        "n_iterations": cfg.n_iterations,
        "n_chains": cfg.n_chains,
        "burn_in": cfg.burn_in,
        "thinned_size": cfg.thinned_size,
        "psrf_gate": cfg.psrf_gate,
        "forced": bool(offenders),
        "psrf_gate_failed": offenders,
    }
    return PosteriorEnsemble(raw.structure, pooled[idx], diagnostics)
