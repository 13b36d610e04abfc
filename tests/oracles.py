"""Independent reference implementations used by several test modules.

These deliberately avoid the package's own code paths: the likelihood oracle is
a double loop in extended precision, the scalar GPD and Poisson densities and
the closed-form return level are written out term by term, the Monte-Carlo
return level takes quantiles of simulated annual maxima, the declustering
oracle builds clusters by transitive closure in O(n^2), and the sampler oracle
steps one chain at a time on a row density. The row-kernel, hourly CSV reader
and writer, detrending and daily-maxima oracles are earlier versions kept as
the bit-for-bit references: numpy wrappers on numpy scalars, one row at a time,
a fresh array for every intermediate, and detrending and daily maxima over
the whole record at once. The Nelder-Mead oracle is scipy's own
``minimize``, which serves as the reference optimizer of the MLE tests.
"""

import csv
import math
import re

import mpmath
import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln

from surgebma.models import (
    ACTIVE_PARAMS, DAYS_PER_YEAR, DIRECT_SCALE, XI_EPS, NonstatLevel, effective_params,
)
from surgebma.preprocess import HOURS_PER_DAY, MIN_VALID_FRACTION, DailySeries, HourlySeries
from surgebma.simulate import gpd_sample
from surgebma.utils import empirical_quantile


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


def naive_loglik(row, structure, data, cov):
    """Double-loop likelihood evaluation in 40-digit arithmetic.

    ``row`` holds the active parameters of ``structure`` in ``ACTIVE_PARAMS``
    order; the parameters it lacks are 0. Each year's events are read by
    slicing the per-event arrays with the year's count.
    """
    mpmath.mp.dps = 40
    theta = dict.fromkeys(ACTIVE_PARAMS[NonstatLevel.NS3], 0.0)
    theta.update(zip(ACTIVE_PARAMS[structure.level], row))
    total = mpmath.mpf(0)
    first = 0
    phis = [0.0] * data.years.size if structure.level is NonstatLevel.ST else (
        cov.values_for_years(data.years).tolist())
    for days, count, phi in zip(data.durations.tolist(), data.counts.tolist(), phis):
        heights = data.heights[first:first + count].tolist()
        first += count
        lam = mpmath.mpf(theta["lam0"]) + mpmath.mpf(theta["lam1"]) * phi
        if structure.level in (NonstatLevel.ST, NonstatLevel.NS1):
            sig = mpmath.mpf(theta["sig0"])
        else:
            sig = mpmath.e ** (mpmath.mpf(theta["sig0"]) + mpmath.mpf(theta["sig1"]) * phi)
        xi = mpmath.mpf(theta["xi0"]) + mpmath.mpf(theta["xi1"]) * phi
        if lam <= 0 or sig <= 0:
            return -math.inf
        mean = lam * days
        total += count * mpmath.log(mean) - mean - mpmath.log(mpmath.factorial(count))
        for height in heights:
            z = (mpmath.mpf(height) - mpmath.mpf(data.threshold)) / sig
            if abs(xi) < 1e-8:
                total += -mpmath.log(sig) - z
            else:
                arg = 1 + xi * z
                if arg <= 0:
                    return -math.inf
                total += -mpmath.log(sig) - (1 + 1 / xi) * mpmath.log(arg)
    return float(total)


def closed_form_return_level(row, structure, phi, mu, period):
    """Level exceeded once per ``period`` years on average (Coles 2001, ch. 4).

    ``row`` holds the active parameters of ``structure``; the effective rate,
    scale and shape at covariate value ``phi`` are written out term by term,
    and the inversion uses a power where the package uses ``expm1``.
    """
    theta = dict.fromkeys(ACTIVE_PARAMS[NonstatLevel.NS3], 0.0)
    theta.update(zip(ACTIVE_PARAMS[structure.level], row))
    lam = theta["lam0"] + theta["lam1"] * phi
    if structure.level in (NonstatLevel.ST, NonstatLevel.NS1):
        sig = theta["sig0"]
    else:
        sig = math.exp(theta["sig0"] + theta["sig1"] * phi)
    xi = theta["xi0"] + theta["xi1"] * phi
    growth = period * lam * 365.25  # expected exceedances in ``period`` years
    if sig <= 0 or growth <= 1.0:
        raise ValueError("outside the threshold regime")
    if abs(xi) < 1e-8:
        return mu + sig * math.log(growth)
    return mu + sig / xi * (growth**xi - 1.0)


def empirical_return_level(row, structure, phi_year, mu, period, n_sim_years, rng):
    """Monte-Carlo return level: the (1 - 1/T) quantile of simulated annual maxima.

    ``row`` holds the active parameters of ``structure``. Years without
    exceedances contribute an annual maximum of -inf (below the threshold
    regime). Independent of the analytic inversion; the counts are Poisson
    and the heights come from ``simulate.gpd_sample``.
    """
    if n_sim_years < 100 * period:
        raise ValueError("need at least 100*T simulated years")
    lam, sig, xi = map(float, effective_params(row, structure.level, phi_year))
    counts = rng.poisson(lam * DAYS_PER_YEAR, size=n_sim_years)
    total = int(counts.sum())
    if total == 0:
        raise ValueError("no exceedances simulated")
    heights = mu + gpd_sample(sig, xi, total, rng)
    maxima = np.full(n_sim_years, -np.inf)
    nonzero = counts > 0
    ends = np.cumsum(counts)
    starts = ends - counts
    maxima[nonzero] = np.maximum.reduceat(heights, starts[nonzero])
    level = float(empirical_quantile(maxima, 1.0 - 1.0 / period))
    if not math.isfinite(level):
        raise ValueError("too few simulated exceedances for this return period")
    return level


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


def ram_step_one_chain(theta, log_p, chol, iteration, log_posterior, rng):
    """One robust adaptive Metropolis step of a single chain on a row density,
    coercing acceptance toward 0.234 with step size min(1, d n^-0.66)."""
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
        eta = min(1.0, d * iteration ** -0.66)
        m = (eta * (alpha - 0.234) / norm2) * np.outer(u, u)
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
                theta, log_p, chol, n, log_posterior, rng
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
    """Hourly CSV reader converting one row at a time; returns the hour grid
    from the earliest to the latest stamp and the levels on it, NaN where no
    row gives one.

    A stamp may end in one ``Z``; a ``Z`` anywhere else, a sign after the
    time's ``T`` or space (a UTC offset), a space before a dropped ``Z`` or a
    first character that is not a digit (``now``, ``today``, ``NaT``, an empty
    stamp, a signed year) is a bad timestamp.
    """
    times, levels = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty input")
        if [c.strip().lower() for c in header[:2]] != ["timestamp", "level_m"]:
            raise ValueError(f"{path}: expected header 'timestamp,level_m', got {header!r}")
        read = reader.line_num  # the lines before the row
        for row in reader:
            lineno, read = read + 1, reader.line_num  # the line the row starts on
            if not row or all(not c.strip() for c in row):
                continue
            stamp = row[0].strip()
            if stamp.endswith("Z"):  # one Z may mark the stamp as UTC
                stamp = stamp[:-1]
            # what follows the T or space that starts the time
            time = re.split("[T ]", stamp, maxsplit=1)[1:]
            try:
                if not "0" <= stamp[:1] <= "9":
                    raise ValueError(f"the timestamp {stamp!r} does not start with a digit")
                if "Z" in stamp:
                    raise ValueError(f"a Z inside the timestamp {stamp!r}")
                if stamp[-1:].isspace() or "+" in "".join(time) or "-" in "".join(time):
                    raise ValueError(f"a zone or an offset from UTC in {stamp!r}")
                ts = np.datetime64(stamp, "h")
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
        raise ValueError(f"{path}: empty input")
    t = np.array(times, dtype="datetime64[h]")
    order = np.argsort(t)
    t, vals = t[order], np.array(levels, dtype=float)[order]
    if np.any(np.diff(t.astype(np.int64)) == 0):
        raise ValueError(f"{path}: duplicate timestamps in input")
    grid = np.arange(t[0], t[-1] + np.timedelta64(1, "h"), dtype="datetime64[h]")
    full = np.full(grid.size, np.nan)
    full[(t - grid[0]).astype(np.int64)] = vals
    return grid, full


def write_hourly_csv_rows(path, series):
    """Hourly CSV writer formatting one row at a time through ``csv.writer``."""
    times = np.arange(series.start, series.start + series.levels.size, dtype="datetime64[h]")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "level_m"])
        for t, v in zip(times, series.levels):
            writer.writerow([str(t), "" if not np.isfinite(v) else repr(float(v))])


def scipy_nelder_mead(f, x0, xatol, fatol, maxfev):
    """``scipy.optimize.minimize(method="Nelder-Mead")`` with these tolerances
    and evaluation cap; the iteration cap equals ``maxfev``, which
    ``tests/test_neldermead.py`` checks never ends a search first."""
    options = {"xatol": xatol, "fatol": fatol, "maxiter": maxfev, "maxfev": maxfev}
    return minimize(f, x0, method="Nelder-Mead", options=options)


def detrend_moving_mean_temporaries(series, window_days, min_valid_fraction=0.5):
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
    return HourlySeries(series.start, out)


def daily_maxima_unique(series, min_valid_hours):
    """Per-day maxima with the day starts taken from ``np.unique``; returns the
    days and the maxima, NaN on a day short of ``min_valid_hours``."""
    times = np.arange(series.start, series.start + series.levels.size, dtype="datetime64[h]")
    days = times.astype("datetime64[D]")
    uniq, start = np.unique(days, return_index=True)
    valid = np.isfinite(series.levels)
    counts = np.add.reduceat(valid.astype(np.int64), start)
    filled = np.where(valid, series.levels, -np.inf)
    maxima = np.maximum.reduceat(filled, start)
    out = np.where(counts >= min_valid_hours, maxima, np.nan)
    out[~np.isfinite(out)] = np.nan
    return uniq, out


def detrend_moving_mean_whole(series, window_days):
    """Centered moving-mean detrending from running sums over the whole record,
    each window's sum and count taken by ``_window_sums_whole``."""
    levels = series.levels
    n = levels.size
    half = int(round(window_days * HOURS_PER_DAY / 2))

    # each window's valid count, length and sum of valid levels, from running
    # sums led by a 0, each freed once used; int32 holds any count of hours
    # below 2**31 (245,000 years)
    valid = np.isfinite(levels)
    count = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(valid, dtype=np.int32, out=count[1:])
    n_valid = _window_sums_whole(count, half)
    del count
    # the running count of all hours is the hour index
    length = _window_sums_whole(np.arange(n + 1, dtype=np.int32), half)
    # valid hours short of MIN_VALID_FRACTION of the window
    short = np.less(n_valid, np.multiply(length, MIN_VALID_FRACTION))
    del length

    total = np.zeros(n + 1)
    np.copyto(total[1:], levels, where=valid)
    np.cumsum(total[1:], out=total[1:])
    out = _window_sums_whole(total, half)
    del total

    with np.errstate(invalid="ignore", divide="ignore"):
        out /= n_valid  # the window mean
    np.subtract(levels, out, out=out)
    out[~valid] = np.nan
    out[short] = np.nan
    return HourlySeries(series.start, out)


def _window_sums_whole(running, half):
    """``running[hi] - running[lo]`` for each hour i of a record of
    ``running.size - 1`` hours, where ``lo = max(i - half, 0)`` and
    ``hi = min(i + half + 1, n)`` bound its window, taken by slices."""
    n = running.size - 1
    sums = np.empty(n, dtype=running.dtype)
    inside = max(n - half, 0)  # hours whose window ends before the record does
    sums[:inside] = running[half + 1:]
    sums[inside:] = running[n]
    clipped = min(half, n)  # hours whose window starts at the first hour
    sums[:clipped] -= running[0]
    sums[clipped:] -= running[:n - clipped]
    return sums


def daily_maxima_whole(series, min_valid_hours):
    """Per-day maxima by one ``reduceat`` over the whole record."""
    # each day's hours are one run: from the first hour, then from each
    # midnight after it, every 24 hours
    first_midnight = -series.start.astype(np.int64) % HOURS_PER_DAY or HOURS_PER_DAY
    start = np.r_[0, np.arange(first_midnight, series.levels.size, HOURS_PER_DAY)]

    valid = np.isfinite(series.levels)
    counts = np.add.reduceat(valid, start, dtype=np.int64)
    filled = np.where(valid, series.levels, -np.inf)
    maxima = np.maximum.reduceat(filled, start)

    out = np.where(counts >= min_valid_hours, maxima, np.nan)
    out[~np.isfinite(out)] = np.nan
    return DailySeries(series.start.astype("datetime64[D]"), out)
