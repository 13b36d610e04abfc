"""Nelder-Mead simplex search as a generator that asks for its evaluations.

A port of scipy 1.17.1's ``_minimize_neldermead`` (``scipy/optimize/
_optimize.py``) without bounds, callback or adaptive coefficients. The search
yields each point it needs evaluated, as a fresh float64 array, and receives
the objective's value through ``send``; the caller owns the loop that feeds
it, so it can evaluate points however it likes.

The simplex is held as Python floats, and every expression is written in
scipy's operation order: the centroid is a sum that starts at 0.0 and adds
the best N vertices in turn (``np.add.reduce`` along axis 0), the coefficient
products are formed first, and each reorder runs numpy's argsort on the
values, so ties and NaN order as in scipy on any CPU. For the same objective
the search therefore evaluates the same points, in the same order, and ends
at the same ``x`` and ``fun`` as ``scipy.optimize.minimize(method=
"Nelder-Mead")`` with the same tolerances and ``maxfev``, and a ``maxiter`` of
``maxfev`` or more, which never ends a search: the initial simplex costs
n + 1 evaluations and each counted iteration at least one more, so the port
counts no iterations. The evaluation cap stops the search where scipy's
does, in the middle of an iteration included: a step whose evaluation is
refused changes nothing, except that a shrink keeps the vertices it has
already moved, with their old values.
"""

from __future__ import annotations

from typing import Generator, NamedTuple

import numpy as np

RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5  # reflection, expansion, contraction, shrink
NONZDELT, ZDELT = 0.05, 0.00025  # initial simplex: relative step, step off a zero


class SimplexResult(NamedTuple):
    x: np.ndarray  # best vertex of the final simplex
    fun: float  # the smallest vertex value, NaN if any is NaN
    converged: bool  # the xatol/fatol test ended the search, not a cap


def _ordered(sim, fsim):
    ind = np.array(fsim).argsort().tolist()  # np.argsort's sort, without its wrapper
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def nelder_mead(
    x0, xatol: float, fatol: float, maxfev: int
) -> Generator[np.ndarray, float, SimplexResult]:
    """Minimize by simplex search; yields points, receives their values.

    Drive it with ``x = next(search)``, then ``x = search.send(f(x))`` until
    ``StopIteration``, whose ``value`` is the ``SimplexResult``. At most
    ``maxfev`` points are yielded.
    """
    x0 = np.asarray(x0, dtype=float).ravel().tolist()
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        if y[k] != 0:
            y[k] = (1 + NONZDELT) * y[k]
        else:
            y[k] = ZDELT
        sim.append(y)

    nfev = 0
    fsim = [np.inf] * (n + 1)
    for k in range(n + 1):
        if nfev >= maxfev:
            break
        nfev += 1
        fsim[k] = yield np.array(sim[k])
    # scipy sorts twice here, once in a ``finally`` and once after it
    sim, fsim = _ordered(*_ordered(sim, fsim))

    converged = False
    while nfev < maxfev:
        best = sim[0]
        fbest = fsim[0]
        # all(v <= tol) is np.max(...) <= tol: a NaN fails both
        if all(abs(v - b) <= xatol for vertex in sim[1:] for v, b in zip(vertex, best)) and all(
            abs(fbest - f) <= fatol for f in fsim[1:]
        ):
            converged = True
            break

        xbar = []
        for column in zip(*sim[:-1]):
            total = 0.0
            for v in column:
                total += v
            xbar.append(total / n)
        worst = sim[-1]

        # the loop condition leaves room for the reflection's evaluation
        xr = [(1 + RHO) * a - RHO * w for a, w in zip(xbar, worst)]
        nfev += 1
        fxr = yield np.array(xr)

        # past the cap, scipy's _MaxFuncCallError refuses the step's evaluation
        if fxr < fsim[0]:
            if nfev < maxfev:
                xe = [(1 + RHO * CHI) * a - RHO * CHI * w for a, w in zip(xbar, worst)]
                nfev += 1
                fxe = yield np.array(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif nfev < maxfev:
            doshrink = False
            if fxr < fsim[-1]:
                xc = [(1 + PSI * RHO) * a - PSI * RHO * w for a, w in zip(xbar, worst)]
                nfev += 1
                fxc = yield np.array(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:
                xcc = [(1 - PSI) * a + PSI * w for a, w in zip(xbar, worst)]
                nfev += 1
                fxcc = yield np.array(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:
                for j in range(1, n + 1):
                    sim[j] = [b + SIGMA * (v - b) for b, v in zip(best, sim[j])]
                    if nfev >= maxfev:
                        break
                    nfev += 1
                    fsim[j] = yield np.array(sim[j])
        sim, fsim = _ordered(sim, fsim)

    return SimplexResult(np.array(sim[0]), float(np.min(fsim)), converged)
