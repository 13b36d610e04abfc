"""Independent reference implementations used by several test modules.

These deliberately avoid the package's own code paths: the likelihood oracle
is a double loop in extended precision, the scalar GPD and Poisson densities
are written out term by term, the declustering oracle builds clusters by
transitive closure in O(n^2), and the sampler oracle steps one chain at a
time on a row density. The row-kernel, hourly CSV reader and writer,
detrending and daily-maxima oracles are earlier versions kept as the
bit-for-bit references: numpy wrappers on numpy scalars, one row at a time,
and a fresh array for every intermediate. The Nelder-Mead oracle is scipy's own
``minimize``, which the MLE called before it drove its own port.
"""

import csv
import math

import mpmath
import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln

from surgebma.models import ACTIVE_PARAMS, DIRECT_SCALE, XI_EPS, NonstatLevel
from surgebma.preprocess import HOURS_PER_DAY, DailySeries, HourlySeries


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


def loglik_row_kernel(row, level, d):
    """The row log-likelihood on ``LikelihoodData`` ``d`` with numpy scalars
    and the ``np.sum``/``np.any`` wrappers."""
    p = dict(zip(ACTIVE_PARAMS[level], row))
    lam0, lam1, sig0 = p["lam0"], p.get("lam1", 0.0), p["sig0"]
    xi0, xi1 = p["xi0"], p.get("xi1", 0.0)

    lam = lam0 + lam1 * d.phi
    if np.any(lam <= 0):
        return -math.inf

    mean = lam * d.durations
    pois = float(np.sum(d.counts * np.log(mean) - mean)) - d.lgamma_counts

    if level in DIRECT_SCALE:
        if sig0 <= 0:
            return -math.inf
        z = d.excess / sig0
        log_sig_sum = d.excess.size * math.log(sig0)
    else:
        log_sig = sig0 + p["sig1"] * d.phi_event
        z = d.excess * np.exp(-log_sig)
        log_sig_sum = float(np.sum(log_sig))

    if xi1 == 0.0:
        xi = xi0
        if abs(xi) < XI_EPS:
            gpd_sum = -float(np.sum(z))
        else:
            t = xi * z
            if np.any(1.0 + t <= 0.0):
                return -math.inf
            gpd_sum = -(1.0 + 1.0 / xi) * float(np.sum(np.log1p(t)))
    else:
        xi_ev = xi0 + xi1 * d.phi_event
        t = xi_ev * z
        if np.any(1.0 + t <= 0.0):
            return -math.inf
        small = np.abs(xi_ev) < XI_EPS
        terms = np.where(
            small,
            -z,
            -(1.0 + 1.0 / np.where(small, 1.0, xi_ev)) * np.log1p(np.where(small, 0.0, t)),
        )
        gpd_sum = float(np.sum(terms))
    return pois + gpd_sum - log_sig_sum


def read_hourly_csv_rows(path):
    """Hourly CSV reader converting one row at a time.

    It does not refuse a timestamp that numpy reads as NaT (empty, ``NaT``):
    such a row fails later, in ``np.arange``, with no line number.
    """
    times, levels = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty input")
        if [c.strip().lower() for c in header[:2]] != ["timestamp", "level_m"]:
            raise ValueError(f"expected header 'timestamp,level_m', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                ts = np.datetime64(row[0].strip().replace("Z", ""), "h")
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: bad timestamp {row[0]!r}") from exc
            raw = row[1].strip() if len(row) > 1 else ""
            if raw == "":
                val = np.nan
            else:
                try:
                    val = float(raw)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad level {raw!r}") from exc
            times.append(ts)
            levels.append(val)
    if not times:
        raise ValueError("empty input")
    t = np.array(times, dtype="datetime64[h]")
    order = np.argsort(t)
    t, vals = t[order], np.array(levels, dtype=float)[order]
    if np.any(np.diff(t.astype(np.int64)) == 0):
        raise ValueError("duplicate timestamps in input")
    grid = np.arange(t[0], t[-1] + np.timedelta64(1, "h"), dtype="datetime64[h]")
    full = np.full(grid.size, np.nan)
    full[(t - grid[0]).astype(np.int64)] = vals
    return HourlySeries(grid, full)


def write_hourly_csv_rows(path, series):
    """Hourly CSV writer formatting one row at a time through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "level_m"])
        for t, v in zip(series.times, series.levels):
            writer.writerow([str(t), "" if not np.isfinite(v) else repr(float(v))])


def scipy_nelder_mead(f, x0, xatol, fatol, maxiter, maxfev):
    """``scipy.optimize.minimize(method="Nelder-Mead")`` with the port's
    options; returns the result and every point it evaluated, in order."""
    points = []

    def objective(x):
        points.append(x.copy())
        return f(x)

    options = {"xatol": xatol, "fatol": fatol, "maxiter": maxiter, "maxfev": maxfev}
    return minimize(objective, x0, method="Nelder-Mead", options=options), points


def detrend_moving_mean_temporaries(series, window_days=365.25, min_valid_fraction=0.5):
    """Centered moving-mean detrending with a new array for each intermediate."""
    levels = series.levels
    n = levels.size
    half = int(round(window_days * HOURS_PER_DAY / 2))
    valid = np.isfinite(levels)
    filled = np.where(valid, levels, 0.0)
    csum = np.concatenate([[0.0], np.cumsum(filled)])
    ccount = np.concatenate([[0], np.cumsum(valid.astype(np.int64))])
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1)
    n_valid = ccount[hi + 1] - ccount[lo]
    n_slots = hi - lo + 1
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = (csum[hi + 1] - csum[lo]) / n_valid
    out = levels - mean
    out[~valid] = np.nan
    out[n_valid < min_valid_fraction * n_slots] = np.nan
    return HourlySeries(series.times, out)


def daily_maxima_unique(series, min_valid_hours=12):
    """Per-day maxima with the day starts taken from ``np.unique``."""
    days = series.times.astype("datetime64[D]")
    uniq, start = np.unique(days, return_index=True)
    valid = np.isfinite(series.levels)
    counts = np.add.reduceat(valid.astype(np.int64), start)
    filled = np.where(valid, series.levels, -np.inf)
    maxima = np.maximum.reduceat(filled, start)
    ok = counts >= min_valid_hours
    out = np.where(ok, maxima, np.nan)
    out[~np.isfinite(out)] = np.nan
    ok &= np.isfinite(out)
    return DailySeries(uniq, out, ok)
