"""Independent reference implementations used by several test modules.

These deliberately avoid the package's own code paths: the likelihood oracle
is a double loop in extended precision, the scalar GPD and Poisson densities
are written out term by term, and the declustering oracle builds clusters by
transitive closure in O(n^2).
"""

import math

import mpmath
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
