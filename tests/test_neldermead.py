"""The Nelder-Mead port against scipy's ``minimize``, bit for bit: the same
points asked for in the same order, the same ``x``, ``fun`` and eval count."""

import linecache
import math
import re

import numpy as np
import pytest
from scipy.optimize import rosen

from oracles import scipy_nelder_mead
from surgebma.covariates import CovariateKind
from surgebma.models import ModelStructure, NonstatLevel, ParameterVector, make_loglik
from surgebma.neldermead import nelder_mead
from surgebma.priors import _moment_start
from surgebma.simulate import SimulationSpec, simulate_record, synthetic_covariates

YIELD = re.compile(r"yield np\.array\(([^)]*)\)")
STEPS = ("sim[k]", "xr", "xe", "xc", "xcc", "sim[j]")  # initial simplex ... shrink


def drive(f, x0, xatol=1e-4, fatol=1e-4, maxiter=20000, maxfev=20000):
    """Feed the port one point at a time; returns its result, every point it
    asked for, and the step that asked (the argument of its ``yield``)."""
    search = nelder_mead(x0, xatol, fatol, maxiter, maxfev)
    points, steps = [], []
    try:
        x = next(search)
        while True:
            line = linecache.getline(search.gi_code.co_filename, search.gi_frame.f_lineno)
            steps.append(YIELD.search(line).group(1))
            points.append(x.copy())
            x = search.send(f(x))
    except StopIteration as stop:
        return stop.value, points, steps


def same_bits(a, b) -> bool:
    """Equal shapes and bits; a NaN equals a NaN of either sign."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    return np.array_equal(np.nan_to_num(a).view(np.int64), np.nan_to_num(b).view(np.int64))


def assert_matches_scipy(f, x0, **options):
    options = {"xatol": 1e-4, "fatol": 1e-4, "maxiter": 20000, "maxfev": 20000, **options}
    got, points, steps = drive(f, x0, **options)
    want, want_points = scipy_nelder_mead(f, x0, **options)
    assert len(points) == len(want_points) == want.nfev
    assert all(same_bits(p, q) for p, q in zip(points, want_points))
    assert same_bits(got.x, want.x)
    assert same_bits(got.fun, want.fun)
    assert got.converged == (want.status == 0)
    return got, points, steps


# ---------------------------------------------------------------------------
# the MLE objectives
# ---------------------------------------------------------------------------

TRUTH = {
    NonstatLevel.ST: ParameterVector(lam0=0.02, sig0=0.15, xi0=0.1),
    NonstatLevel.NS1: ParameterVector(lam0=0.015, lam1=0.01, sig0=0.15, xi0=0.1),
    NonstatLevel.NS2: ParameterVector(lam0=0.015, lam1=0.01, sig0=-2.0, sig1=0.3, xi0=0.1),
    NonstatLevel.NS3: ParameterVector(
        lam0=0.015, lam1=0.01, sig0=-2.0, sig1=0.3, xi0=0.1, xi1=-0.05
    ),
}


@pytest.mark.parametrize("level", list(NonstatLevel), ids=lambda lv: lv.value)
def test_port_equals_scipy_on_the_mle_objective(level):
    cov = None
    if level is not NonstatLevel.ST:
        cov = synthetic_covariates(1944, 2013, (1944, 2013))[CovariateKind.SEALEVEL]
    structure = ModelStructure(level, None if cov is None else cov.kind)
    record = simulate_record(SimulationSpec(TRUTH[level], structure, cov, 1944, 2013, 1.0, seed=3))
    loglik = make_loglik(structure, record, cov)

    def objective(x):
        return -loglik(x)

    # the MLE's chained pair of searches, capped where it caps them
    first, _, _ = assert_matches_scipy(
        objective, _moment_start(structure, record), xatol=1e-7, fatol=1e-8
    )
    polish, _, _ = assert_matches_scipy(objective, first.x, xatol=1e-9, fatol=1e-10)
    assert first.converged and polish.converged and math.isfinite(polish.fun)


# ---------------------------------------------------------------------------
# awkward objectives
# ---------------------------------------------------------------------------


def half_inf(x):
    return math.inf if x[0] < 0.9 else rosen(x)


def nan_above(x):
    return math.nan if x[0] + x[1] > 2.05 else rosen(x)


def plateaus(x):
    return math.floor(4.0 * float(np.sum((x - 0.3) ** 2)))


def test_port_equals_scipy_where_the_objective_is_inf_on_half_the_space():
    got, points, _ = assert_matches_scipy(half_inf, np.array([1.3, 0.7, 0.8]))
    assert any(half_inf(p) == math.inf for p in points) and math.isfinite(got.fun)


def test_port_equals_scipy_where_the_objective_is_nan():
    _, points, _ = assert_matches_scipy(nan_above, np.array([1.3, 0.7]))
    assert any(math.isnan(nan_above(p)) for p in points)
    # stopped with a NaN vertex in the simplex, ``fun`` is NaN, as np.min makes it
    funs = [assert_matches_scipy(nan_above, np.array([1.3, 0.7]), maxfev=m)[0].fun
            for m in range(12)]
    assert any(math.isnan(f) for f in funs) and any(math.isfinite(f) for f in funs)


def test_port_equals_scipy_with_a_nan_coordinate():
    # the x tolerance never holds, as np.max(...) <= xatol fails on a NaN
    got, points, _ = assert_matches_scipy(lambda x: (x[0] - 0.3) ** 2, np.array([1.0, np.nan]),
                                          maxfev=400)
    assert not got.converged and len(points) == 400


def test_port_equals_scipy_on_a_flat_objective_from_minus_zero():
    # every step fails on a flat objective, so each iteration shrinks the other
    # vertex toward -0.0 until it underflows to +0.0; the centroid of [-0.0] is
    # then np.add.reduce's 0.0 + -0.0 = +0.0, and the reflection of +0.0 is +0.0
    got, points, steps = assert_matches_scipy(lambda x: 0.0, np.array([-0.0]),
                                              xatol=-1.0, maxfev=3400)
    plus_zero = np.array([0.0]).tobytes()
    assert any(s == "xr" and p.tobytes() == plus_zero for p, s in zip(points, steps))


@pytest.mark.parametrize("seed", range(40))
def test_port_equals_scipy_on_signed_zeros_and_ties(seed):
    """Starts made of 0.0 and -0.0 on objectives that ignore some coordinates
    and take few values, so zero coordinates, ties and shrinks abound."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    x0 = rng.choice([0.0, -0.0, 0.0, -0.0, 0.3, -1.2], size=n)
    weights = rng.choice([0.0, 1.0, 3.0], size=n)
    center = rng.choice([0.0, -0.0, 0.5], size=n)

    def f(x):
        return math.floor(8.0 * float(np.sum(weights * (x - center) ** 2)))

    assert_matches_scipy(f, x0, maxfev=int(rng.integers(1, 300)))


def test_port_equals_scipy_on_tied_values():
    _, points, steps = assert_matches_scipy(plateaus, np.array([1.1, -0.4, 0.9]))
    values = [plateaus(p) for p in points]
    assert len(set(values)) < len(values) / 4  # most values repeat
    assert "sim[j]" in steps


@pytest.mark.parametrize(
    "x0", [[0.0, 1.2, 0.0], [-0.0, 0.5, 0.0], [0.0]], ids=["zeros", "minus_zero", "all_zero"]
)
def test_port_equals_scipy_from_a_start_with_zero_entries(x0):
    assert_matches_scipy(rosen, np.array(x0))


def test_port_equals_scipy_when_the_search_never_converges():
    got, points, _ = assert_matches_scipy(lambda x: -float(np.sum(x)), np.array([1.0, 2.0]),
                                          maxfev=300)
    assert not got.converged and len(points) == 300


# ---------------------------------------------------------------------------
# caps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x0", [[2.1, -1.4, 1.9], [5.0, 4.0, -3.0]])
def test_port_equals_scipy_when_maxfev_stops_each_step(x0):
    x0 = np.array(x0)
    _, _, steps = drive(plateaus, x0)
    assert set(steps) == set(STEPS)
    # maxfev = i refuses the eval at index i, maxfev = i + 1 stops right after it;
    # every cap from 0 up hits each step kind, and the shrink at each vertex
    for maxfev in range(len(steps) + 2):
        got, points, _ = assert_matches_scipy(plateaus, x0, maxfev=maxfev)
        assert len(points) == min(maxfev, len(steps))
        assert got.converged == (maxfev > len(steps))


@pytest.mark.parametrize("maxiter", [0, 1, 2, 5, 37])
def test_port_equals_scipy_when_maxiter_stops_it(maxiter):
    got, _, _ = assert_matches_scipy(rosen, np.array([1.3, 0.7, 0.8]), maxiter=maxiter)
    assert not got.converged
