"""Independent reference implementations used by several test modules.

These deliberately avoid the package's own code paths: the likelihood oracle
is a double loop in extended precision, the scalar GPD and Poisson densities
are written out term by term, the declustering oracle builds clusters by
transitive closure in O(n^2), and the sampler oracle steps one chain at a
time on a row density.
"""

import math

import mpmath
import numpy as np
from scipy.special import gammaln

from surgebma.models import NonstatLevel


def gpd_logpdf(x: float, mu: float, sig: float, xi: float) -> float:
    """Log density of the generalized Pareto distribution at ``x``.

    Uses the exponential limit for |xi| < 1e-8 to avoid cancellation, and
    returns -inf above the bounded upper endpoint when xi < 0.
    """
    if sig <= 0 or x < mu:
        raise ValueError("outside support")
    z = (x - mu) / sig
    if abs(xi) < 1e-8:
        return -math.log(sig) - z
    t = xi * z
    if 1.0 + t <= 0.0:
        return -math.inf
    return -math.log(sig) - (1.0 + 1.0 / xi) * math.log1p(t)


def poisson_logpmf(n: int, lam: float, dt: float) -> float:
    """Log pmf of a Poisson count with rate ``lam`` per day over ``dt`` days."""
    if lam <= 0 or dt <= 0:
        raise ValueError("lam and dt must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    mean = lam * dt
    return n * math.log(mean) - mean - float(gammaln(n + 1))


def naive_loglik(theta, structure, data, cov):
    """Double-loop likelihood evaluation in 40-digit arithmetic."""
    mpmath.mp.dps = 40
    total = mpmath.mpf(0)
    for block in data.years:
        phi = 0.0 if structure.level is NonstatLevel.ST else cov.value_for_year(block.year)
        lam = mpmath.mpf(theta.lam0) + mpmath.mpf(theta.lam1) * phi
        if structure.level in (NonstatLevel.ST, NonstatLevel.NS1):
            sig = mpmath.mpf(theta.sig0)
        else:
            sig = mpmath.e ** (mpmath.mpf(theta.sig0) + mpmath.mpf(theta.sig1) * phi)
        xi = mpmath.mpf(theta.xi0) + mpmath.mpf(theta.xi1) * phi
        if lam <= 0 or sig <= 0:
            return -math.inf
        mean = lam * block.duration_days
        total += block.count * mpmath.log(mean) - mean - mpmath.log(mpmath.factorial(block.count))
        for rec in block.records:
            z = (mpmath.mpf(rec.height) - mpmath.mpf(data.threshold)) / sig
            if abs(xi) < 1e-8:
                total += -mpmath.log(sig) - z
            else:
                arg = 1 + xi * z
                if arg <= 0:
                    return -math.inf
                total += -mpmath.log(sig) - (1 + 1 / xi) * mpmath.log(arg)
    return float(total)


def brute_force_decluster(days, heights, sep):
    """Transitive-closure clusters; the max (earliest tie) survives per cluster."""
    n = len(days)
    cluster = list(range(n))

    def find(i):
        while cluster[i] != i:
            i = cluster[i]
        return i

    for i in range(n):
        for j in range(n):
            if i != j and abs(days[i] - days[j]) < sep:
                ri, rj = find(i), find(j)
                if ri != rj:
                    cluster[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    kept = []
    for members in groups.values():
        best = members[0]
        for m in members[1:]:
            if heights[m] > heights[best] or (
                heights[m] == heights[best] and days[m] < days[best]
            ):
                best = m
        kept.append((days[best], heights[best]))
    return sorted(kept)


def ram_step_one_chain(theta, log_p, chol, iteration, log_posterior, rng,
                       target_acceptance=0.234, adaptation_decay=0.66):
    """One robust adaptive Metropolis step of a single chain on a row density."""
    d = theta.size
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
    norm2 = float(u @ u)
    if norm2 > 0.0:
        eta = min(1.0, d * iteration ** (-adaptation_decay))
        m = (eta * (alpha - target_acceptance) / norm2) * np.outer(u, u)
        m.flat[:: d + 1] += 1.0
        chol = np.linalg.cholesky(chol @ m @ chol.T)
    return theta, log_p, chol, accepted


def run_chains_one_by_one(log_posterior, start, config):
    """Each chain run to the end before the next starts, one row eval per step.

    Same seeding and initial factor as ``sampler.run_chains``; returns
    (chains of shape (n_chains, n_iterations, d), acceptance per chain).
    """
    x0 = np.array(start, dtype=float)
    lp0 = log_posterior(x0)
    streams = np.random.SeedSequence(config.seed).spawn(config.n_chains)
    chains = np.empty((config.n_chains, config.n_iterations, x0.size))
    acceptance = np.empty(config.n_chains)
    for c in range(config.n_chains):
        rng = np.random.default_rng(streams[c])
        theta, log_p = x0.copy(), lp0
        chol = np.diag(np.maximum(np.abs(x0), 0.1) * 0.1)
        n_accept = 0
        for n in range(1, config.n_iterations + 1):
            theta, log_p, chol, accepted = ram_step_one_chain(
                theta, log_p, chol, n, log_posterior, rng,
                config.target_acceptance, config.adaptation_decay,
            )
            chains[c, n - 1] = theta
            n_accept += accepted
        acceptance[c] = n_accept / config.n_iterations
    return chains, acceptance
