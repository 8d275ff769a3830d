"""Independent 1-d porous-medium oracle: rho_t = (rho^m)_rr.

Radial solutions of the pressure equation reduce exactly to a 1-d PME in
the radial variable r = |x| (no curvature term appears because the
infinity-Laplacian only differentiates along the gradient direction), so
this conservative density-form solver is the brute-force reference for the
d-dimensional pressure solver along rays, and for the Cauchy asymptotics.

It deliberately shares nothing with the main scheme: density instead of
pressure, conservative second difference of rho^m instead of the expanded
operator, so the two codes cannot share a bug.

There is one loop, `_march`: it steps a plain density array in place
and resolves once per call every array, ufunc, bound method and
constant its steps read, so a step makes a fixed sequence of numpy calls
and no Python call but to a callable edge.  `pme1d_solve` runs it over
the snapshot times and builds `ScalarField`s only for the initial state
and the snapshots; `pme1d_step` runs it for exactly one step of the
given dt, on a copy of its input field.
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
SAFETY = 0.4


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


def cfl_dt_1d(rho: np.ndarray, h: float, m: float,
              safety: float = SAFETY) -> float:
    """Stability bound safety * h^2 / (2 max(m rho^(m-1)))."""
    diffusivity = m * float(np.max(rho)) ** (m - 1.0)
    if diffusivity <= 0.0:
        return np.inf
    return safety * h * h / (2.0 * diffusivity)


def _march(problem: RadialProblem, rho: np.ndarray, t: float,
           targets: Sequence[float], clip_account: list,
           fixed_dt: Optional[float] = None) -> tuple:
    """The explicit conservative update of rho_t = (rho^m)_rr, looped in
    place on the density array `rho` from time t through each of the
    sorted `targets`.  Returns (a copy of rho at each target, the number
    of steps, the least and the largest dt).

    Each step takes SAFETY times the stability bound h^2/(2 D), with
    D = m max(rho)^(m-1), cut to land on the next target, until t is
    within 1e-14 max(1, target) of it.  With `fixed_dt` the loop takes
    exactly one step of that dt to the one target t + fixed_dt.  A dt
    above the bound is a CflError.  The edges are set after the interior
    update, a callable edge called at the step's new time, so the least
    and the largest value cover the finiteness test, the undershoot clip
    (its mass appended to `clip_account`) and the next step's D.

    Everything the steps read (arrays, ufuncs, bound methods, constants)
    is resolved before the first, so every step makes the same numpy
    calls in the same order and calls no Python function but a callable
    edge.  The symmetry edge is computed on Python floats, which take
    the same IEEE operations in the same order as numpy scalars would.
    """
    h = problem.grid.h[0]
    hh, safety_hh = h * h, SAFETY * h * h
    m, m_minus_1 = problem.m, problem.m - 1.0
    symmetric = problem.boundary == "symmetry-at-0"
    # a held edge as (float, None), a callable one as (None, callable)
    (left, left_fn), (right, right_fn) = (
        (None, spec) if callable(spec) else (problem._edge(which, 0.0), None)
        for which, spec in (("left", problem.left), ("right", problem.right)))
    # the workspaces w = rho^m and lap, their stencil views, and the
    # scalar operands as 0-d arrays (a Python float operand costs numpy a
    # conversion on every call; the arithmetic is the same)
    w, lap = np.empty_like(rho), np.empty(rho.size - 2)
    w_mid, w_up, w_dn, rho_mid = w[1:-1], w[2:], w[:-2], rho[1:-1]
    m_arr, two, scale_arr = np.array(m), np.array(2.0), np.array(0.0)
    power, multiply, subtract, add = np.power, np.multiply, np.subtract, \
        np.add
    # argmin/argmax take a NaN for the extreme, as min/max reductions do,
    # at a fourth of their cost on 513 nodes; of a tie of -0.0 and +0.0
    # they may pick the other zero, which takes the same branches of
    # `< 0.0` and of `twice > 0.0`
    argmin, argmax, item, w_item = rho.argmin, rho.argmax, rho.item, w.item
    isfinite, inf, fixed = math.isfinite, math.inf, fixed_dt is not None
    rho_max = float(np.max(rho))
    out, n_steps, dt_min, dt_max = [], 0, inf, 0.0
    for target in targets:
        stop = target - 1e-14 * max(1.0, target)
        while t < stop or fixed and not n_steps:
            twice = 2.0 * (m * rho_max ** m_minus_1)
            bound = cap = inf
            if twice > 0.0:
                bound, cap = hh / twice, safety_hh / twice
            rest = target - t
            dt = fixed_dt if fixed else (rest if rest < cap else cap)
            if dt > bound * (1.0 + 1e-12):
                raise CflError(
                    f"dt={dt} exceeds the 1-d stability bound {bound}")
            t_new, scale = t + dt, dt / hh
            # the output array is passed by position, which numpy parses
            # faster; lap = ((w[2:] - 2 w[1:-1]) + w[:-2]) dt/h^2
            power(rho, m_arr, w)
            multiply(w_mid, two, lap)
            subtract(w_up, lap, lap)
            add(lap, w_dn, lap)
            scale_arr[()] = scale
            multiply(lap, scale_arr, lap)
            add(rho_mid, lap, rho_mid)
            if symmetric:
                rho[0] = item(0) + scale * (2.0 * w_item(1) - 2.0 * w_item(0))
            else:
                rho[0] = left if left_fn is None else float(left_fn(t_new))
            rho[-1] = right if right_fn is None else float(right_fn(t_new))
            low, rho_max = item(argmin()), item(argmax())
            if not (isfinite(low) and isfinite(rho_max)):
                raise InstabilityError("non-finite density during 1-d "
                                       "stepping")
            if low < 0.0:
                negative = rho < 0.0
                clip_account.append(-float(np.sum(rho[negative])) * h)
                rho[negative] = 0.0
                rho_max = max(rho_max, 0.0)
            t = t_new
            n_steps += 1
            if dt < dt_min:
                dt_min = dt
            if dt > dt_max:
                dt_max = dt
        t = target
        out.append(rho.copy())
    return out, n_steps, dt_min, dt_max


def pme1d_step(state: ScalarField, dt: float, problem: RadialProblem,
               clip_account: Optional[list] = None) -> ScalarField:
    """One explicit conservative step of rho_t = (rho^m)_rr.

    dt must respect the stability bound; tiny negative undershoots are
    clipped to zero with the clipped mass accumulated in `clip_account`
    (callers enforce the <= 1e-12 relative budget).  The step is the
    solve's loop held to one step of dt, on a copy, so `state` is left
    unchanged.
    """
    t_new = state.t + dt
    values = _march(problem, state.values.ravel().copy(), state.t, (t_new,),
                    [] if clip_account is None else clip_account, dt)[0][0]
    return ScalarField(grid=state.grid, values=values, t=t_new,
                       quantity="rho")


def _mass(vals: np.ndarray, h: float) -> float:
    # trapezoid weights make the conservative update telescope exactly
    v = vals.ravel()
    return float(0.5 * (v[0] + v[-1]) + np.sum(v[1:-1])) * h


def pme1d_solve(problem: RadialProblem, t_end: float,
                snapshot_times: Sequence[float] = ()) -> Pme1dResult:
    """Step from t = 0 to t_end with automatic dt (SAFETY times the
    stability bound), landing exactly on the requested snapshot times;
    returns profiles plus conservation accounting.

    The times must be finite with 0 < snapshot times <= t_end; anything
    else is a DomainError before the first step.  The loop advances one
    density array in place (`_march`, which `pme1d_step` runs for one
    step), so fields are built only for the initial state and the
    snapshots.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise DomainError(f"t_end must be finite and positive, got {t_end}")
    snaps = [float(t) for t in snapshot_times]
    if not all(0.0 < t <= t_end for t in snaps):
        raise DomainError("snapshot times must lie in (0, t_end]")
    snaps = sorted(set(snaps) | {float(t_end)})
    # the field's entry checks vet the initial data (finite, nonnegative)
    rho = ScalarField(grid=problem.grid, values=problem.initial.copy(),
                      t=0.0, quantity="rho").values
    # impose the held edge values on the initial slice; otherwise a run
    # from zero data with positive inflow would see zero diffusivity and
    # cross to t_end in one unbounded step
    if problem.boundary == "dirichlet":
        rho[0] = problem._edge("left", 0.0)
    rho[-1] = problem._edge("right", 0.0)
    h = problem.grid.h[0]
    mass0 = _mass(rho, h)
    clip_account: list = []
    arrays, n_steps, dt_min, dt_max = _march(problem, rho, 0.0, snaps,
                                             clip_account)
    out = [ScalarField(grid=problem.grid, values=a, t=t, quantity="rho")
           for a, t in zip(arrays, snaps)]
    mass1 = _mass(out[-1].values, h)
    clipped = float(np.sum(clip_account))
    # with no positive initial mass there is no budget: any clip fails
    if clipped > 1e-12 * max(mass0, 0.0):
        raise InstabilityError(
            f"clipped mass {clipped} exceeds 1e-12 of the total {mass0}")
    drift = abs(mass1 - mass0) / mass0 if mass0 > 0.0 else abs(mass1)
    return Pme1dResult(snapshots=out, times=np.asarray(snaps),
                       mass_drift=drift, clipped_mass=clipped,
                       n_steps=n_steps,
                       dt_min=float(dt_min) if n_steps else 0.0,
                       dt_max=float(dt_max),
                       manifest={"problem": "pme1d", "m": problem.m,
                                 "boundary": problem.boundary,
                                 "t_start": 0.0, "t_end": t_end,
                                 "n_steps": n_steps})
