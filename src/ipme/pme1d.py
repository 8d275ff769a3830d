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
on a `_Work`, which holds the workspaces and stencil views of that array
and resolves once what every step reads (h^2, the safety-scaled h^2,
m - 1, the edge kind and the constant edge values; a callable edge is
still called on every step).  `pme1d_solve` runs it on one array for the
whole solve, computes the step's diffusivity once for both its dt and
the update's stability check, and builds `ScalarField`s only for the
initial state and the snapshots; `pme1d_step` runs it on a copy of its
input field, with a workspace of its own.
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


class _Work:
    """What the 1-d update of one density array `rho` on spacing h needs,
    resolved once: the workspaces w = rho^m (size n) and `lap` (size
    n-2), the stencil views w[1:-1], w[2:], w[:-2] and rho[1:-1], the
    scalar operands m, 2 and dt/h^2 as 0-d arrays (a Python float operand
    costs numpy a conversion on every call; the arithmetic is the same),
    and the per-step constants: h*h, SAFETY*h*h (in that order, as the
    bound was written), m - 1, whether the left edge is the symmetry
    edge, and each held edge as a float, or as the callable to call on
    every step."""

    def __init__(self, rho: np.ndarray, problem: RadialProblem, h: float):
        self.rho = rho
        self.w = np.empty_like(rho)
        self.lap = np.empty(rho.size - 2)
        self.w_mid, self.w_up, self.w_dn = self.w[1:-1], self.w[2:], \
            self.w[:-2]
        self.rho_mid = rho[1:-1]
        self.m, self.two, self.scale = np.array(problem.m), np.array(2.0), \
            np.array(0.0)
        self.h, self.hh, self.safety_hh = h, h * h, SAFETY * h * h
        self.m_scalar, self.m_minus_1 = problem.m, problem.m - 1.0
        self.symmetric = problem.boundary == "symmetry-at-0"
        self.left, self.right = (
            spec if callable(spec) else problem._edge(which, 0.0)
            for which, spec in (("left", problem.left),
                                ("right", problem.right)))

    def diffusivity(self, rho_max: float) -> float:
        """m rho_max^(m-1), the largest diffusivity of the step."""
        return self.m_scalar * rho_max ** self.m_minus_1


def _edge_at(spec, t: float) -> float:
    return float(spec(t)) if callable(spec) else spec


def _advance(work: _Work, t_new: float, dt: float, diffusivity: float,
             clip_account: Optional[list]) -> float:
    """The explicit conservative update, in place: `work.rho`, whose
    largest diffusivity is `diffusivity`, advances by dt to t_new.
    Returns the new maximum of rho.

    dt above the stability bound h^2/(2 diffusivity) is a CflError.  The
    edges are set before the checks, so the least and the largest value
    cover the finiteness test, the undershoot clip and the next stability
    bound.  The symmetry edge is computed on Python floats, which take the
    same IEEE operations in the same order as numpy scalars would.
    """
    bound = work.hh / (2.0 * diffusivity) if diffusivity > 0.0 else math.inf
    if dt > bound * (1.0 + 1e-12):
        raise CflError(f"dt={dt} exceeds the 1-d stability bound {bound}")
    scale = dt / work.hh
    rho, w, lap = work.rho, work.w, work.lap
    # the output array is passed by position, which numpy parses faster
    np.power(rho, work.m, w)
    # (w[2:] - 2 w[1:-1]) + w[:-2], in this order, scaled by dt/h^2
    np.multiply(work.w_mid, work.two, lap)
    np.subtract(work.w_up, lap, lap)
    np.add(lap, work.w_dn, lap)
    work.scale[()] = scale
    np.multiply(lap, work.scale, lap)
    np.add(work.rho_mid, lap, work.rho_mid)
    if work.symmetric:
        rho[0] = rho.item(0) + scale * (2.0 * w.item(1) - 2.0 * w.item(0))
    else:
        rho[0] = _edge_at(work.left, t_new)
    rho[-1] = _edge_at(work.right, t_new)
    # argmin/argmax take a NaN for the extreme, as min/max reductions do,
    # at a fourth of their cost on 513 nodes; of a tie of -0.0 and +0.0
    # they may pick the other zero, which takes the same branches of
    # `< 0.0` here and of `diffusivity > 0.0`
    low, top = rho.item(rho.argmin()), rho.item(rho.argmax())
    if not (math.isfinite(low) and math.isfinite(top)):
        raise InstabilityError("non-finite density during 1-d stepping")
    if low < 0.0:
        negative = rho < 0.0
        clipped = -float(np.sum(rho[negative])) * work.h
        if clip_account is not None:
            clip_account.append(clipped)
        rho[negative] = 0.0
        top = max(top, 0.0)
    return top


def pme1d_step(state: ScalarField, dt: float, problem: RadialProblem,
               clip_account: Optional[list] = None) -> ScalarField:
    """One explicit conservative step of rho_t = (rho^m)_rr.

    dt must respect the stability bound; tiny negative undershoots are
    clipped to zero with the clipped mass accumulated in `clip_account`
    (callers enforce the <= 1e-12 relative budget).  The update runs on a
    copy, so `state` is left unchanged.
    """
    rho = state.values.ravel().copy()
    work = _Work(rho, problem, state.grid.h[0])
    _advance(work, state.t + dt, dt, work.diffusivity(float(np.max(rho))),
             clip_account)
    return ScalarField(grid=state.grid, values=rho, t=state.t + dt,
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
    density array in place (the update of `pme1d_step`, on workspaces
    made once per solve), so fields are built only for the initial state
    and the snapshots.
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
    work = _Work(rho, problem, h)
    rho_max = float(np.max(rho))
    clip_account: list = []
    out, out_times = [], []
    t = 0.0
    n_steps = 0
    dt_min, dt_max = np.inf, 0.0
    for target in snaps:
        stop = target - 1e-14 * max(1.0, target)
        while t < stop:
            diffusivity = work.diffusivity(rho_max)
            dt = min(work.safety_hh / (2.0 * diffusivity), target - t) \
                if diffusivity > 0.0 else target - t
            rho_max = _advance(work, t + dt, dt, diffusivity, clip_account)
            t += dt
            n_steps += 1
            if dt < dt_min:
                dt_min = dt
            if dt > dt_max:
                dt_max = dt
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
                                 "t_start": 0.0, "t_end": t_end,
                                 "n_steps": n_steps})
