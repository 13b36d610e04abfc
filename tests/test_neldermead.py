"""The MLE tests' reference optimizer, ``oracles.scipy_nelder_mead``, passes
scipy ``maxiter = maxfev``; that iteration cap must never end a search that
the evaluation cap alone would have let go on."""

import numpy as np
import pytest
from scipy.optimize import minimize, rosen

from oracles import scipy_nelder_mead


def search(f, x0, maxfev, maxiter=None):
    """The oracle's search (or scipy's with an explicit iteration cap) and
    every point it evaluated, in order."""
    points = []

    def recorded(x):
        points.append(np.array(x, copy=True))
        return f(x)

    if maxiter is None:
        result = scipy_nelder_mead(recorded, x0, 1e-4, 1e-4, maxfev)
    else:
        options = {"xatol": 1e-4, "fatol": 1e-4, "maxiter": maxiter, "maxfev": maxfev}
        result = minimize(recorded, x0, method="Nelder-Mead", options=options)
    return result, points


def same_bits(a, b) -> bool:
    """Equal shapes and bits; a NaN equals a NaN of either sign."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    return np.array_equal(np.nan_to_num(a).view(np.int64), np.nan_to_num(b).view(np.int64))


@pytest.mark.parametrize(
    "x0", [[1.3, 0.7, 0.8], [0.0, 1.2, 0.0], [1.3, 0.7, 0.8, 1.9, 1.2, -0.5]],
    ids=["3d", "3d_zeros", "6d"],
)
def test_iteration_cap_never_ends_a_search_before_the_evaluation_cap(x0):
    x0 = np.array(x0)
    for maxfev in [*range(60), 200, 1000, 5000]:
        capped, capped_points = search(rosen, x0, maxfev)
        free, free_points = search(rosen, x0, maxfev, maxiter=10**9)
        assert len(capped_points) == len(free_points) == capped.nfev == free.nfev
        assert all(same_bits(p, q) for p, q in zip(capped_points, free_points))
        assert same_bits(capped.x, free.x) and same_bits(capped.fun, free.fun)
        assert capped.status == free.status
