"""Shared fixtures: the expensive reference runs are session-scoped so the
acceptance criteria and the unit tests reuse the same evolutions."""

import numpy as np
import pytest

from ipme.core import GridSpec, Params, BoundaryData, density_from_pressure
from ipme import exact
from ipme.solver import (CauchyProblem, DirichletProblem, ball_mask,
                         solve_cauchy, solve_dirichlet)
from ipme.pme1d import RadialProblem, pme1d_solve
from ipme.asymptotics import track_support, fit_rate

# quartic compactly supported pressure bump used by the Cauchy reference
# runs; deliberately not of source-type shape (those are parabolic)
BUMP_HEIGHT = 0.3
BUMP_RADIUS = 0.25
CAUCHY_TIMES = tuple(np.geomspace(0.25, 2.0, 13))
CAUCHY_H = 8.0 / 384.0
# bump center sits half a cell off the origin so no node coincides with
# the critical point of u, where the centered gradient would vanish
# identically and the regularized quotient would return zero
CAUCHY_CENTER = CAUCHY_H / 2.0


def quartic_bump(center, height=BUMP_HEIGHT, radius=BUMP_RADIUS):
    def u0(X):
        r2 = np.zeros(len(X))
        for i, c in enumerate(center):
            r2 += (X[:, i] - c) ** 2
        return height * np.maximum(1.0 - (r2 / radius**2) ** 2, 0.0)
    return u0


def _cauchy_reference(m: float) -> dict:
    grid = GridSpec.box((-4.0, -4.0), (4.0, 4.0), (385, 385))
    c = CAUCHY_CENTER
    prob = CauchyProblem(grid=grid, params=Params(m=m, eps=1e-3, delta=1e-3),
                         u0=quartic_bump((c, c)), M=BUMP_HEIGHT, r=2.0,
                         t_end=2.0, snapshot_times=CAUCHY_TIMES)
    report = solve_cauchy(prob, n_list=(512,))
    trace = track_support(report.snapshots, threshold=2e-3, center=(c, c),
                          r_max=1.5, floor=report.ladder_floor)
    # the data's maximum: the bump's height, which is also the collar's M
    return {"m": m, "report": report, "trace": trace, "data_max": BUMP_HEIGHT,
            "fit": fit_rate(trace.times, trace.r_inner), "center": (c, c)}


@pytest.fixture(scope="session")
def cauchy_run_m2():
    return _cauchy_reference(2.0)


@pytest.fixture(scope="session")
def cauchy_run_m3():
    return _cauchy_reference(3.0)


@pytest.fixture(scope="session")
def pme1d_rate_runs():
    """1-d whole-line evolutions of the quartic bump for m in {2, 3}."""
    out = {}
    for m in (2.0, 3.0):
        grid = GridSpec.box((-2.0,), (2.0,), (1025,))
        x = grid.axes()[0]
        u0 = BUMP_HEIGHT * np.maximum(
            1.0 - (np.abs(x) / BUMP_RADIUS) ** 4, 0.0)
        res = pme1d_solve(
            RadialProblem(m=m, grid=grid,
                          initial=density_from_pressure(u0, m),
                          boundary="dirichlet", left=0.0, right=0.0),
            t_end=2.0, snapshot_times=CAUCHY_TIMES)
        trace = track_support(res.snapshots, threshold=2e-3,
                              center=(0.0,), r_max=1.9)
        out[m] = {"result": res, "trace": trace,
                  "fit": fit_rate(trace.times, trace.r_inner)}
    return out


FG_RADIUS = 0.5
FG_CENTER = 1.0 / 256.0
FG_TIMES = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0)


@pytest.fixture(scope="session")
def fg_run():
    """Dirichlet ball run at h = 1/128 with zero lateral data, started at
    four times the stationary-in-rescaled-time profile so the distance of
    t*u to the profile decays through the whole window."""
    m = 2.0
    c = FG_CENTER
    half = 0.5078125
    grid = GridSpec.box((-half, -half), (half, half), (131, 131))
    spec = exact.spec("separable-ball", m, R=FG_RADIUS, t0=0.0, x0=(c, c))
    mask = ball_mask(grid, FG_RADIUS, center=(c, c))
    boundary = BoundaryData.from_functions(
        u0=lambda X: exact.evaluate_u(spec, X, 0.25),
        g=lambda X, t: np.zeros(len(X)), time_dependent=False)
    params = Params(m=m, eps=1e-3, delta=1e-4)
    report = solve_dirichlet(
        DirichletProblem(grid, params, boundary, t_end=4.0,
                         snapshot_times=FG_TIMES, domain_mask=mask))
    return {"m": m, "params": params, "report": report, "grid": grid,
            "center": (c, c), "radius": FG_RADIUS, "spec": spec}
