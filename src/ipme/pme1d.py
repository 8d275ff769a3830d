"""Independent 1-d porous-medium oracle: rho_t = (rho^m)_rr.

Radial solutions of the pressure equation reduce exactly to a 1-d PME in
the radial variable r = |x| (no curvature term appears because the
infinity-Laplacian only differentiates along the gradient direction), so
this conservative density-form solver is the brute-force reference for the
d-dimensional pressure solver along rays, and for the Cauchy asymptotics.

It deliberately shares nothing with the main scheme: density instead of
pressure, conservative second difference of rho^m instead of the expanded
operator, so the two codes cannot share a bug.

There is one update, `_advance`: it steps a plain density array in place
on preallocated workspaces.  `pme1d_solve` runs it on one array for the
whole solve and builds `ScalarField`s only for the initial state and the
snapshots; `pme1d_step` runs it on a copy of its input field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (CflError, DomainError, GridSpec, InstabilityError,
                   ScalarField)

__all__ = ["RadialProblem", "Pme1dResult", "pme1d_step", "pme1d_solve",
           "cfl_dt_1d"]

BOUNDARY_KINDS = ("symmetry-at-0", "dirichlet")


@dataclass
class RadialProblem:
    """1-d PME problem on a radial (or line) grid.

    boundary "symmetry-at-0" imposes zero flux of rho^m at the left node
    by a mirror ghost; the right end is Dirichlet.  boundary "dirichlet"
    holds both ends.  `left`/`right` give the held values: None keeps the
    initial edge value, a float holds a constant, a callable t -> value
    supplies inflow data.
    """

    m: float
    grid: GridSpec
    initial: np.ndarray
    boundary: str = "symmetry-at-0"
    left: float | Callable | None = None
    right: float | Callable | None = None

    def __post_init__(self):
        if not (self.m > 1.0):
            raise DomainError(f"m must exceed 1, got {self.m}")
        if self.grid.dim != 1:
            raise DomainError("radial problems need a 1-d grid")
        if self.boundary not in BOUNDARY_KINDS:
            raise DomainError(f"unknown boundary kind {self.boundary!r}")
        self.initial = np.asarray(self.initial, dtype=float).ravel()
        if self.initial.size != self.grid.size:
            raise DomainError("initial profile size does not match the grid")
        if np.any(self.initial < 0.0):
            raise DomainError("initial density must be nonnegative")
        # a constant edge is checked here, a callable one on every step
        for which, value in (("left", self.left), ("right", self.right)):
            if value is not None and not callable(value) \
                    and not 0.0 <= float(value) < math.inf:
                raise DomainError(f"{which} edge value must be finite and "
                                  f"nonnegative, got {value}")

    def _edge(self, which: str, t: float) -> float:
        spec = self.left if which == "left" else self.right
        if spec is None:
            return float(self.initial[0 if which == "left" else -1])
        if callable(spec):
            return float(spec(t))
        return float(spec)


@dataclass
class Pme1dResult:
    snapshots: list
    times: np.ndarray
    mass_drift: float
    clipped_mass: float
    n_steps: int
    dt_min: float
    dt_max: float
    manifest: dict = field(default_factory=dict)


def _cfl_bound(rho_max: float, h: float, m: float, safety: float) -> float:
    diffusivity = m * rho_max ** (m - 1.0)
    if diffusivity <= 0.0:
        return np.inf
    return safety * h * h / (2.0 * diffusivity)


def cfl_dt_1d(rho: np.ndarray, h: float, m: float, safety: float = 0.4) -> float:
    """Stability bound safety * h^2 / (2 max(m rho^(m-1)))."""
    return _cfl_bound(float(np.max(rho)), h, m, safety)


def _advance(rho: np.ndarray, w: np.ndarray, lap: np.ndarray, t_new: float,
             dt: float, h: float, problem: RadialProblem, rho_max: float,
             clip_account: Optional[list]) -> float:
    """The explicit conservative update, in place: `rho` (whose maximum is
    `rho_max`) advances by dt to t_new, with `w` (size n) and `lap` (size
    n-2) as workspaces.  Returns the new maximum of rho.

    The edges are set before the checks, so one min and one max cover the
    finiteness test, the undershoot clip and the next stability bound.
    """
    bound = _cfl_bound(rho_max, h, problem.m, 1.0)
    if dt > bound * (1.0 + 1e-12):
        raise CflError(f"dt={dt} exceeds the 1-d stability bound {bound}")
    scale = dt / (h * h)
    np.power(rho, problem.m, out=w)
    # (w[2:] - 2 w[1:-1]) + w[:-2], in this order, scaled by dt/h^2
    np.multiply(w[1:-1], 2.0, out=lap)
    np.subtract(w[2:], lap, out=lap)
    np.add(lap, w[:-2], out=lap)
    np.multiply(lap, scale, out=lap)
    np.add(rho[1:-1], lap, out=rho[1:-1])
    if problem.boundary == "symmetry-at-0":
        rho[0] = rho[0] + scale * (2.0 * w[1] - 2.0 * w[0])
    else:
        rho[0] = problem._edge("left", t_new)
    rho[-1] = problem._edge("right", t_new)
    low, top = rho.min(), rho.max()
    if not (math.isfinite(low) and math.isfinite(top)):
        raise InstabilityError("non-finite density during 1-d stepping")
    if low < 0.0:
        negative = rho < 0.0
        clipped = -float(np.sum(rho[negative])) * h
        if clip_account is not None:
            clip_account.append(clipped)
        rho[negative] = 0.0
        top = max(top, 0.0)
    return float(top)


def pme1d_step(state: ScalarField, dt: float, problem: RadialProblem,
               clip_account: Optional[list] = None) -> ScalarField:
    """One explicit conservative step of rho_t = (rho^m)_rr.

    dt must respect the stability bound; tiny negative undershoots are
    clipped to zero with the clipped mass accumulated in `clip_account`
    (callers enforce the <= 1e-12 relative budget).  The update runs on a
    copy, so `state` is left unchanged.
    """
    rho = state.values.ravel().copy()
    _advance(rho, np.empty_like(rho), np.empty(rho.size - 2), state.t + dt,
             dt, state.grid.h[0], problem, float(np.max(rho)), clip_account)
    return ScalarField(grid=state.grid, values=rho, t=state.t + dt,
                       quantity="rho")


def _mass(vals: np.ndarray, h: float) -> float:
    # trapezoid weights make the conservative update telescope exactly
    v = vals.ravel()
    return float(0.5 * (v[0] + v[-1]) + np.sum(v[1:-1])) * h


def pme1d_solve(problem: RadialProblem, t_end: float,
                snapshot_times: Sequence[float] = (),
                t_start: float = 0.0, safety: float = 0.4) -> Pme1dResult:
    """Step from t_start to t_end with automatic dt, landing exactly on the
    requested snapshot times; returns profiles plus conservation accounting.

    The times must be finite with t_start < snapshot times <= t_end, and
    the safety factor must lie in (0, 1]; anything else is a DomainError
    before the first step.  The loop advances one density array in place
    (the update of `pme1d_step`, on workspaces made once per solve), so
    fields are built only for the initial state and the snapshots.
    """
    if not (math.isfinite(t_start) and math.isfinite(t_end)
            and t_end > t_start):
        raise DomainError(
            f"t_end must be finite and exceed t_start, got {t_end}")
    snaps = [float(t) for t in snapshot_times]
    if not all(t_start < t <= t_end for t in snaps):
        raise DomainError("snapshot times must lie in (t_start, t_end]")
    snaps = sorted(set(snaps) | {float(t_end)})
    if not (0.0 < safety <= 1.0):
        raise DomainError(f"safety must lie in (0, 1], got {safety}")
    # the field's entry checks vet the initial data (finite, nonnegative)
    rho = ScalarField(grid=problem.grid, values=problem.initial.copy(),
                      t=t_start, quantity="rho").values
    # impose the held edge values on the initial slice; otherwise a run
    # from zero data with positive inflow would see zero diffusivity and
    # cross to t_end in one unbounded step
    if problem.boundary == "dirichlet":
        rho[0] = problem._edge("left", t_start)
    rho[-1] = problem._edge("right", t_start)
    h = problem.grid.h[0]
    mass0 = _mass(rho, h)
    w, lap = np.empty_like(rho), np.empty(rho.size - 2)
    rho_max = float(np.max(rho))
    clip_account: list = []
    out, out_times = [], []
    t = t_start
    n_steps = 0
    dt_min, dt_max = np.inf, 0.0
    for target in snaps:
        while t < target - 1e-14 * max(1.0, target):
            dt = min(_cfl_bound(rho_max, h, problem.m, safety), target - t)
            if not math.isfinite(dt):
                dt = target - t
            rho_max = _advance(rho, w, lap, t + dt, dt, h, problem, rho_max,
                               clip_account)
            t += dt
            n_steps += 1
            dt_min = min(dt_min, dt)
            dt_max = max(dt_max, dt)
        t = target
        out.append(ScalarField(grid=problem.grid, values=rho.copy(), t=t,
                               quantity="rho"))
        out_times.append(target)
    mass1 = _mass(out[-1].values, h)
    clipped = float(np.sum(clip_account))
    # with no positive initial mass there is no budget: any clip fails
    if clipped > 1e-12 * max(mass0, 0.0):
        raise InstabilityError(
            f"clipped mass {clipped} exceeds 1e-12 of the total {mass0}")
    drift = abs(mass1 - mass0) / mass0 if mass0 > 0.0 else abs(mass1)
    return Pme1dResult(snapshots=out, times=np.asarray(out_times),
                       mass_drift=drift, clipped_mass=clipped,
                       n_steps=n_steps,
                       dt_min=float(dt_min) if n_steps else 0.0,
                       dt_max=float(dt_max),
                       manifest={"problem": "pme1d", "m": problem.m,
                                 "boundary": problem.boundary,
                                 "t_start": t_start, "t_end": t_end,
                                 "n_steps": n_steps})
