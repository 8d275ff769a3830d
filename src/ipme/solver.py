"""Explicit time integration of the regularized pressure equation.

Dirichlet problems run on a box grid, optionally with a ball mask whose
exterior nodes are held at the lateral data.  Cauchy problems live on a
box of radius 2r with the truncated data

    u_0^r = u_0 on |x| <= r,   M at |x| >= 2r,
    max{u_0(x), M + (2 - |x|/r)(u_0(r x/|x|) - M)} in between,

and lateral value M.  Continuation drives eps down first (at the largest
delta), then delta down at the smallest eps, re-solving from the same
data.  One maximal-solution ladder serves both the maximal and the Cauchy
problem: it checks that n_list increases from 1 up, solves with data
g + 1/n and positivity floor c = 1/(2n), checks the discrete ordering
between rungs, and records the ladder differences and the worst ordering
excess in the manifest.

The scheme is plain forward Euler.  The stage loop is the one code path
here that advances a field (the 1-d oracle in `pme1d` is kept apart as
an independent check): it updates its own array in place and reuses one
stencil workspace per stage.  The whole step runs on the workspace's
slabs, on the kernel's threads when the grid is split: after the kernel,
each slab scales its rhs run by dt, adds it into the field, stamps the
held nodes of its cover and returns the cover's max and min
(`_advance`).  The calling thread evaluates time-dependent lateral data
once per step, and the combined extrema refuse a pressure that is
non-finite or negative beyond rounding (`_police`).  At 385^2 on a
2-core Xeon (numpy 2.4; medians of steps alternated between versions)
the part of a two-slab step after the kernel took about 0.1 ms, against
0.28 ms when the update and the check ran on the calling thread alone.
The step runs under the two-part CFL bound

    dt <= safety * min( h^2/(2(eps d + k max beta_c(u))),
                        h/(2 max|Du| + tiny) ),   safety = 0.4,

with the diffusion part reading k*beta_c(u) as the effective diffusivity
and the advection part bounding the |Du|^2 transport of level sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (BoundaryData, DomainError, GridSpec, InstabilityError,
                   OrderingError, Params, RegularizationSchedule,
                   ScalarField, TruncationError, run_manifest)
from .operators import StencilWork, rhs_core

__all__ = [
    "DirichletProblem", "CauchyProblem", "SolveReport", "solve_dirichlet",
    "solve_maximal", "solve_cauchy", "barrier_check", "ball_mask",
    "cauchy_initial",
]

SAFETY = 0.4
NEG_TOL = 1e-12  # relative undershoot treated as instability


@dataclass
class DirichletProblem:
    """Initial-boundary value problem on a box, optionally ball-masked.

    `domain_mask` True marks evolving nodes; False nodes are held at the
    lateral data like the box boundary.  None means the full box interior
    evolves.
    """

    grid: GridSpec
    params: Params
    boundary: BoundaryData
    t_end: float
    snapshot_times: tuple = ()
    domain_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise DomainError(
                f"t_end must be positive and finite, got {self.t_end}")
        self.snapshot_times = tuple(sorted(float(t) for t in self.snapshot_times))
        if not all(0.0 < t <= self.t_end + 1e-12 for t in self.snapshot_times):
            raise DomainError("snapshot times must lie in (0, t_end]")
        if self.domain_mask is not None:
            self.domain_mask = np.asarray(self.domain_mask, dtype=bool)
            if self.domain_mask.shape != self.grid.shape:
                raise DomainError("domain mask shape must match the grid")


@dataclass
class CauchyProblem:
    """Truncated whole-space problem; the box must cover |x| <= 2r.

    u0 is a vectorized callable on (N, d) points, so the collar ramp can
    sample it on the sphere |x| = r; it must vanish outside |x| <= r, and
    the lateral value M must dominate it.
    """

    grid: GridSpec
    params: Params
    u0: Callable
    M: float
    r: float
    t_end: float = 1.0
    snapshot_times: tuple = ()

    def __post_init__(self):
        if not callable(self.u0):
            raise DomainError("u0 must be a callable on (N, d) points")
        if not (self.r > 0.0):
            raise DomainError(f"truncation radius must be positive, got {self.r}")
        if self.M < 0.0:
            raise DomainError(f"M must be nonnegative, got {self.M}")
        lo = self.grid.origin
        hi = tuple(o + (n - 1) * h for o, h, n in
                   zip(self.grid.origin, self.grid.h, self.grid.n))
        slack = 1e-9 * self.r
        if any(a > -2.0 * self.r + slack or b < 2.0 * self.r - slack
               for a, b in zip(lo, hi)):
            raise DomainError("Cauchy box must cover |x| <= 2r")
        self.snapshot_times = tuple(sorted(float(t) for t in self.snapshot_times))


@dataclass
class SolveReport:
    """Everything a run produced, for post-processing and regression.

    The run's facts (stage and ladder differences, the worst ordering
    excess, warnings) are kept once, in `manifest`."""

    final: ScalarField
    snapshots: list
    dt_history: np.ndarray
    max_trace: np.ndarray
    n_steps: int
    ladder_floor: float = 0.0
    manifest: dict = field(default_factory=dict)


def ball_mask(grid: GridSpec, radius: float,
              center: Sequence[float] | None = None) -> np.ndarray:
    """True on nodes strictly inside the ball; the mask's complement is
    held at lateral data, which is how non-box domains are embedded."""
    if radius <= 0.0:
        raise DomainError(f"ball radius must be positive, got {radius}")
    return grid.radii(center) < radius


def _cfl_from_bounds(grid: GridSpec, params: Params, bmax: float,
                     g2max: float) -> float:
    """Largest stable step for a field with these maxima of beta_c and
    |Du|^2 (inf for flat, unregularized fields; the loop caps it by the
    time remaining)."""
    h = min(grid.h)
    denom_diff = 2.0 * (params.eps * grid.dim + params.k * bmax)
    diff = h * h / denom_diff if denom_diff > 0.0 else np.inf
    adv = h / (2.0 * math.sqrt(g2max) + 1e-30)
    return SAFETY * min(diff, adv)


def _inactive_nodes(grid: GridSpec, domain_mask: Optional[np.ndarray]) -> np.ndarray:
    inactive = grid.boundary_mask()
    if domain_mask is not None:
        inactive |= ~domain_mask
    return inactive


def _advance(flat: np.ndarray, s, dt: float, g: np.ndarray,
             holds: dict) -> tuple:
    """One slab's share of the forward-Euler update of the flattened
    field `flat`, in place: its run advances by dt * rhs (the rhs last
    computed on the slab, scaled there in place), the held nodes of its
    cover take their lateral values from `g` through `holds[s]` (see
    `_holds`), and the (max, min) of the cover is returned.

    The cover starts where the slab's run starts (the first slab's at 0)
    and ends where the next one's starts, so each slab writes and reads
    only its own cover.  Every ignored run position is a box-boundary
    node, held and so overwritten by the stamp before the cover's
    extremes are taken.  The buffer positions past the run are never
    touched.
    """
    rhs = s.rhs
    rhs *= dt
    flat[s.c0] += rhs
    held, part = holds[s]
    flat[held] = g[part]
    cover = flat[s.cover]
    return cover.max(), cover.min()


def _holds(work: StencilWork, held: np.ndarray) -> dict:
    """{slab: (indices, part)} for each slab of `work`: the ascending flat
    indices `held` that fall in the slab's cover, and the slice of `held`
    (and of its lateral values) they are."""
    cuts = [0, *np.searchsorted(held, [s.cover.stop for s in work.slabs])]
    return {s: (held[a:b], slice(a, b))
            for s, a, b in zip(work.slabs, cuts, cuts[1:])}


def _police(vals: np.ndarray, extrema) -> None:
    """Refuse a pressure field `vals` with a non-finite value or an
    undershoot beyond NEG_TOL of its scale, from the (max, min) pairs of
    parts that tile it (a NaN anywhere makes its part's pair NaN);
    smaller undershoots are clipped to 0 in place, over the whole
    field."""
    tops, lows = zip(*extrema)
    if not all(map(math.isfinite, tops + lows)):
        raise InstabilityError("non-finite values during time stepping")
    top, low = float(max(tops)), float(min(lows))
    if low < -NEG_TOL * max(1.0, abs(top)):
        raise InstabilityError(
            f"negative value {low} beyond tolerance during stepping")
    if not low > 0.0:
        np.clip(vals, 0.0, None, out=vals)


def _run_stage(grid: GridSpec, params: Params, boundary: BoundaryData,
               t_end: float, snapshot_times: Sequence[float],
               domain_mask: Optional[np.ndarray],
               monitor: Callable | None = None) -> SolveReport:
    """Advance one (eps, delta) stage from t = 0, landing on snapshots.

    The loop carries a plain array, updated in place, and one stencil
    workspace (with its slab helper thread, if any) that lives for the
    stage.  Each step runs the kernel and then `_advance` on the
    workspace's slabs, evaluates time-dependent lateral data once, and
    polices the slabs' extrema here; the held nodes are split by slab
    cover once per stage.  Fields are built only for the monitor, the
    snapshots and the final state."""
    targets = sorted(set(float(t) for t in snapshot_times) | {float(t_end)})
    vals = np.asarray(boundary.initial(grid.points()),
                      dtype=float).reshape(grid.shape).copy()
    flat = vals.reshape(-1)
    held = np.flatnonzero(_inactive_nodes(grid, domain_mask))
    X_in = grid.points()[held]
    g = np.asarray(boundary.lateral(X_in, 0.0), dtype=float)
    flat[held] = g
    _police(vals, [(flat.max(), flat.min())])

    dts: list = []
    snaps: list = []
    t = 0.0
    with StencilWork(grid) as work:
        holds = _holds(work, held)
        for target in targets:
            while t < target - 1e-13 * max(1.0, target):
                _, bmax, g2max = rhs_core(vals, grid, params, work)
                dt = min(_cfl_from_bounds(grid, params, bmax, g2max),
                         target - t)
                if not np.isfinite(dt):
                    dt = target - t
                t += dt
                if boundary.time_dependent:
                    g = np.asarray(boundary.lateral(X_in, t), dtype=float)
                _police(vals, work.run(_advance, vals, dt, g, holds))
                dts.append(dt)
                if monitor is not None and len(dts) % 128 == 0:
                    monitor(ScalarField(grid=grid, values=vals.copy(), t=t,
                                        quantity="u"))
            t = target
            snaps.append(ScalarField(grid=grid, values=vals.copy(), t=t,
                                     quantity="u"))
            if monitor is not None:
                monitor(snaps[-1])
    return SolveReport(
        final=ScalarField(grid=grid, values=vals, t=t, quantity="u"),
        snapshots=snaps, dt_history=np.asarray(dts),
        max_trace=np.asarray([float(np.max(s.values)) for s in snaps]),
        n_steps=len(dts))


def solve_dirichlet(problem: DirichletProblem,
                    schedule: RegularizationSchedule | None = None,
                    monitor: Callable | None = None) -> SolveReport:
    """Continuation solve: eps descending at the largest delta, then delta
    descending at the smallest eps, each stage re-solved from the data.

    The last stage's fields are the output.  Successive stage differences
    are reported; if they fail to decrease, a continuation-failure warning
    is recorded (the run is still returned).
    """
    if schedule is None:
        pairs = [(problem.params.eps, problem.params.delta)]
    else:
        pairs = schedule.pairs()
    warnings: list = []
    finals: list = []
    stage = None
    for eps, delta in pairs:
        params_s = problem.params.with_(eps=eps, delta=delta)
        stage = _run_stage(problem.grid, params_s, problem.boundary,
                           problem.t_end, problem.snapshot_times,
                           problem.domain_mask, monitor)
        finals.append(stage.final.values)
    diffs = tuple(float(np.max(np.abs(b - a)))
                  for a, b in zip(finals, finals[1:]))
    for a, b in zip(diffs, diffs[1:]):
        if b >= a and b > 1e-14:
            warnings.append(
                f"continuation-failure: successive differences not "
                f"decreasing ({a:.3e} -> {b:.3e})")
            break
    stage.manifest = run_manifest(
        params_s, problem.grid, "dirichlet", schedule,
        t_end=problem.t_end,
        snapshot_times=list(problem.snapshot_times),
        boundary_kind=problem.boundary.kind,
        masked=problem.domain_mask is not None,
        stage_pairs=[list(p) for p in pairs],
        stage_diffs=list(diffs),
        warnings=warnings)
    return stage


MONO_TOL = 1e-8 + 1e-3  # exact-comparison slack + scheme-error allowance


def _shifted_boundary(boundary: BoundaryData, shift: float) -> BoundaryData:
    return BoundaryData(
        initial=lambda X: np.asarray(boundary.initial(X), dtype=float) + shift,
        lateral=lambda X, t: np.asarray(boundary.lateral(X, t), dtype=float) + shift,
        kind=boundary.kind,
        time_dependent=boundary.time_dependent)


def _ladder(problem: DirichletProblem, kind: str,
            n_list: Sequence[int] | None,
            schedule: RegularizationSchedule | None,
            rung_monitor: Callable, **manifest_extra) -> SolveReport:
    """Solve with data g + 1/n and floor c = 1/(2n) for n ascending.

    Later rungs must stay below earlier ones up to MONO_TOL at every
    snapshot (ordering violation raises); the last rung is returned with
    the ladder differences, floor and worst ordering excess recorded.
    `rung_monitor(floor)` gives each rung's monitor.
    """
    if n_list is None:
        n_list = schedule.n_list if schedule is not None and schedule.n_list \
            else (1, 2, 4, 8, 16)
    n_list = tuple(int(n) for n in n_list)
    if any(n < 1 for n in n_list) or \
            any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError("n_list must be increasing and >= 1")
    reports: list = []
    worst: dict = {}
    for n in n_list:
        prob_n = replace(problem, params=problem.params.with_(c=0.5 / n),
                         boundary=_shifted_boundary(problem.boundary, 1.0 / n))
        rep = solve_dirichlet(prob_n, schedule, rung_monitor(1.0 / n))
        rep.manifest["ladder_n"] = n
        for prev_n, prev in zip(n_list, reports):
            for a, b in zip(prev.snapshots, rep.snapshots):
                excess = float(np.max(b.values - a.values))
                key = f"u^{n} <= u^{prev_n}"
                worst[key] = max(worst.get(key, -np.inf), excess)
                if excess > MONO_TOL:
                    raise OrderingError(
                        f"ladder rung n={n} exceeds rung n={prev_n} by "
                        f"{excess} (> {MONO_TOL}) at t={b.t}")
        reports.append(rep)
    last = reports[-1]
    last.ladder_floor = 1.0 / n_list[-1]
    last.manifest.update(
        problem=kind, n_list=list(n_list), **manifest_extra,
        ladder_diffs=[float(np.max(np.abs(b.final.values - a.final.values)))
                      for a, b in zip(reports, reports[1:])],
        ladder_floor=last.ladder_floor,
        monotonicity={k: float(v) for k, v in worst.items()})
    return last


def solve_maximal(problem: DirichletProblem,
                  n_list: Sequence[int] | None = None,
                  schedule: RegularizationSchedule | None = None
                  ) -> SolveReport:
    """Maximal-solution ladder: data g + 1/n, floor c = 1/(2n), n ascending
    (see `_ladder`)."""
    return _ladder(problem, "maximal", n_list, schedule, lambda floor: None)


def cauchy_initial(problem: CauchyProblem) -> np.ndarray:
    """Sample the truncated data u_0^r on the grid."""
    grid = problem.grid
    X = grid.points()
    rr = np.sqrt(np.sum(X * X, axis=1))
    u0_vals = np.asarray(problem.u0(X), dtype=float)
    if np.any(u0_vals < 0.0):
        raise DomainError("u0 must be nonnegative")
    outside = rr > problem.r * (1.0 + 1e-12)
    if np.any(u0_vals[outside] > 0.0):
        raise DomainError("u0 must be supported in |x| <= r")
    if float(np.max(u0_vals)) > problem.M + 1e-12 and problem.M > 0.0:
        raise DomainError("M must dominate u0 (M >= max u0)")

    vals = np.where(rr <= problem.r, u0_vals, problem.M)
    ring = (rr > problem.r) & (rr < 2.0 * problem.r)
    if np.any(ring):
        lam = 2.0 - rr[ring] / problem.r
        proj = X[ring] * (problem.r / rr[ring])[:, None]
        u0_proj = np.asarray(problem.u0(proj), dtype=float)
        ramp = problem.M + lam * (u0_proj - problem.M)
        vals[ring] = np.maximum(u0_vals[ring], ramp)
    return vals.reshape(grid.shape)


def _bump_radius(vals: np.ndarray, radii: np.ndarray, shell_w: float,
                 wet_level: float, r_stop: float) -> float:
    """Outer radius of the connected wet region around the origin, found
    by scanning shell maxima outward until the first dry shell."""
    n_shells = int(np.ceil(r_stop / shell_w)) + 1
    idx = np.minimum((radii / shell_w).astype(int), n_shells - 1)
    shell_max = np.full(n_shells, -np.inf)
    np.maximum.at(shell_max, idx.ravel(), vals.ravel())
    for s in range(n_shells):
        if shell_max[s] <= wet_level:
            return s * shell_w
    return r_stop


def solve_cauchy(problem: CauchyProblem,
                 schedule: RegularizationSchedule | None = None,
                 n_list: Sequence[int] | None = None) -> SolveReport:
    """Truncated Cauchy solve: builds u_0^r, runs the maximal ladder with
    lateral value M, and errors out if the inner support reaches 1.5r."""
    grid = problem.grid
    u0_grid = cauchy_initial(problem)
    theta = 1e-3 * max(float(np.max(u0_grid)), problem.M, 1e-30)
    radii = grid.radii()
    shell_w = max(grid.h)

    def rung_monitor(floor: float) -> Callable:
        def monitor(u: ScalarField) -> None:
            r_bump = _bump_radius(u.values, radii, shell_w, floor + theta,
                                  1.6 * problem.r)
            if r_bump >= 1.5 * problem.r:
                raise TruncationError(
                    f"support reached 1.5 r = {1.5 * problem.r} at t={u.t}; "
                    f"enlarge r")
        return monitor

    boundary = BoundaryData(
        initial=lambda X: u0_grid.ravel().copy(),
        lateral=lambda X, t: np.full(len(X), float(problem.M)),
        kind="cauchy-truncated", time_dependent=False)
    dir_prob = DirichletProblem(
        grid=grid, params=problem.params, boundary=boundary,
        t_end=problem.t_end, snapshot_times=problem.snapshot_times)
    return _ladder(dir_prob, "cauchy", n_list, schedule, rung_monitor,
                   M=problem.M, truncation_radius=problem.r)


# ── Barriers ─────────────────────────────────────────────────────────────

BARRIER_KINDS = ("time-lipschitz", "hoelder", "cauchy-V")
BARRIER_SLACK = 1e-3  # allowance for scheme error above a barrier


def _data_norms(problem: DirichletProblem) -> dict:
    """Discrete sup-norms of the data used to size barrier constants."""
    grid = problem.grid
    X = grid.points()
    g0 = np.asarray(problem.boundary.initial(X), dtype=float).reshape(grid.shape)
    grads = np.gradient(g0, *grid.h)
    if grid.dim == 1:
        grads = [grads]
    dg = math.sqrt(max(float(np.max(g * g)) for g in grads))
    d2 = 0.0
    for g in grads:
        seconds = np.gradient(g, *grid.h)
        if grid.dim == 1:
            seconds = [seconds]
        d2 = max(d2, max(float(np.max(np.abs(s))) for s in seconds))
    gt = 0.0
    if problem.boundary.time_dependent:
        bmask = _inactive_nodes(grid, problem.domain_mask)
        Xb = X[bmask.ravel()]
        ts = np.linspace(0.0, problem.t_end, 33)
        prev = np.asarray(problem.boundary.lateral(Xb, ts[0]), dtype=float)
        for t in ts[1:]:
            cur = np.asarray(problem.boundary.lateral(Xb, t), dtype=float)
            gt = max(gt, float(np.max(np.abs(cur - prev))) / (ts[1] - ts[0]))
            prev = cur
    return {"g": float(np.max(np.abs(g0))), "Dg": dg, "D2g": d2, "gt": gt}


def barrier_check(report: SolveReport, barrier: str,
                  problem: DirichletProblem | CauchyProblem,
                  lambda_scale: float = 1.0) -> bool:
    """Check u stays below the named barrier on its sub-cylinder.

    `problem` is the one `report` solved: a DirichletProblem for
    "time-lipschitz" and "hoelder", the CauchyProblem for "cauchy-V".
    Constants are sized from the data norms (or M and k) per the
    corresponding comparison theorem; `lambda_scale` deliberately
    rescales the rate constant so tests can demonstrate that undersized
    barriers fail.
    """
    if barrier not in BARRIER_KINDS:
        raise DomainError(f"unknown barrier kind {barrier!r}")
    grid = report.final.grid
    X = grid.points()

    if barrier == "time-lipschitz":
        norms = _data_norms(problem)
        eps, k = problem.params.eps, problem.params.k
        T = report.final.t
        lam = max(math.sqrt(max(norms["gt"], 0.0)), 1e-6)
        for _ in range(8):
            bulk = norms["g"] + lam * (math.exp(min(lam * T, 50.0)) - 1.0)
            need = (eps + k * bulk) * norms["D2g"] + norms["Dg"] ** 2
            lam_new = max(math.sqrt(need), math.sqrt(max(norms["gt"], 0.0)))
            if lam_new <= lam * (1.0 + 1e-9):
                lam = max(lam, lam_new)
                break
            lam = lam_new
        lam *= lambda_scale
        g0 = np.asarray(problem.boundary.initial(X), dtype=float).reshape(grid.shape)
        for snap in report.snapshots:
            bar = g0 + lam * (math.exp(min(lam * snap.t, 50.0)) - 1.0)
            if float(np.max(snap.values - bar)) > BARRIER_SLACK:
                return False
        return True

    if barrier == "hoelder":
        if problem.params.c <= 0.0:
            raise DomainError("hoelder barrier needs a positive cutoff c")
        norms = _data_norms(problem)
        k, c = problem.params.k, problem.params.c
        gnorm = max(norms["g"], 1e-12)
        rho3 = 0.5 * min(gnorm / max(norms["Dg"], 1e-12), k * c / 16.0)
        alpha = min(0.5, k * c / (16.0 * gnorm) * math.sqrt(rho3))
        K_star = lambda_scale * gnorm / rho3
        lam = lambda_scale * max(norms["gt"], gnorm)
        bmask = _inactive_nodes(grid, problem.domain_mask)
        Xb = X[bmask.ravel()]
        stride = max(1, len(Xb) // 64)
        Xb = Xb[::stride]
        for snap_t0 in report.snapshots:
            t0 = snap_t0.t
            gb = np.asarray(problem.boundary.lateral(Xb, t0), dtype=float)
            for snap in report.snapshots:
                if not (0.0 <= t0 - snap.t <= rho3):
                    continue
                for x0, g0v in zip(Xb, gb):
                    dist = np.sqrt(np.sum((X - x0) ** 2, axis=1)).reshape(grid.shape)
                    near = dist <= rho3
                    if not np.any(near):
                        continue
                    bar = g0v + K_star * dist[near] ** alpha + lam * (t0 - snap.t)
                    if float(np.max(snap.values[near] - bar)) > BARRIER_SLACK:
                        return False
        return True

    # cauchy-V
    M, k = problem.M, problem.params.k
    T = report.final.t
    eps0 = 0.05 * max(M, 1.0)
    b = min(0.05, 0.25 / (k + 2.0))
    N = M + eps0
    lam = lambda_scale * 1.25 * 2.0 * k * N * b / (T * max(1.0 - 2.0 * k * b, 0.1))
    r2 = np.sum(X * X, axis=1).reshape(grid.shape)
    for snap in report.snapshots:
        V = N + b * r2 / (2.0 * T - snap.t) + lam * snap.t
        if float(np.max(snap.values - V)) > BARRIER_SLACK:
            return False
    return True

