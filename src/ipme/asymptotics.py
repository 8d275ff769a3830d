"""Large-time diagnostics for pressure runs.

Everything here post-processes snapshot lists from the solver (or the 1-d
radial oracle): free-boundary radii and their growth rate, the
u_t >= -u/t lower bound, stabilization of t*u toward the separable
profile on balls, and the rate-normalized distance to a matched
source-type density.

Truncated Cauchy runs carry a floor (the ladder's 1/n) and an outer moat
at the lateral value; pass `floor` and `r_max` so both are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import exact
from .core import (DomainError, FitError, Params, ScalarField,
                   density_from_pressure)

__all__ = [
    "FreeBoundaryTrace", "RateFit", "FriendlyGiantResult",
    "track_support", "fit_rate", "benilan_crandall_check",
    "friendly_giant", "barenblatt_convergence",
    "trace_rows",
]


@dataclass
class FreeBoundaryTrace:
    """Support radii at snapshot times, measured from the data's center.

    r_outer is the largest wet radius, r_inner the radius up to which the
    support has no holes; empty marks snapshots with no wet nodes at all.
    """

    times: np.ndarray
    r_inner: np.ndarray
    r_outer: np.ndarray
    threshold: float
    empty: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.r_inner = np.asarray(self.r_inner, dtype=float)
        self.r_outer = np.asarray(self.r_outer, dtype=float)
        self.empty = np.asarray(self.empty, dtype=bool)
        if not (len(self.times) == len(self.r_inner) == len(self.r_outer)
                == len(self.empty)):
            raise DomainError("trace arrays must share one length")
        if np.any(self.r_inner > self.r_outer + 1e-12):
            raise DomainError("r_inner must not exceed r_outer")

    @property
    def degenerate(self) -> bool:
        """True when no snapshot had any support."""
        return bool(np.all(self.empty))


def track_support(snapshots: Sequence[ScalarField],
                  threshold: Optional[float] = None,
                  center: Sequence[float] | None = None,
                  r_max: Optional[float] = None,
                  floor: float = 0.0) -> FreeBoundaryTrace:
    """Measure wet radii of each snapshot.

    A node is wet when value - floor > threshold; the default threshold is
    1e-6 of the largest floored value across all snapshots.  Nodes beyond
    r_max are ignored (use this to mask a Cauchy moat).
    """
    if not snapshots:
        raise DomainError("need at least one snapshot")
    grid = snapshots[0].grid
    radii = grid.radii(center)
    keep = np.ones(grid.shape, dtype=bool) if r_max is None else radii <= r_max
    if threshold is None:
        top = max(float(np.max(s.values - floor)) for s in snapshots)
        threshold = 1e-6 * max(top, 0.0)
    times, r_in, r_out, empty = [], [], [], []
    for s in snapshots:
        if s.grid is not grid and s.grid != grid:
            raise DomainError("snapshots must share one grid")
        wet = (s.values - floor > threshold) & keep
        times.append(s.t)
        if not np.any(wet):
            r_in.append(0.0)
            r_out.append(0.0)
            empty.append(True)
            continue
        ro = float(np.max(radii[wet]))
        dry = ~wet & keep
        ri = float(np.min(radii[dry])) if np.any(dry) else ro
        r_in.append(min(ri, ro))
        r_out.append(ro)
        empty.append(False)
    return FreeBoundaryTrace(times=np.array(times), r_inner=np.array(r_in),
                             r_outer=np.array(r_out),
                             threshold=float(threshold),
                             empty=np.array(empty))


@dataclass(frozen=True)
class RateFit:
    """Power-law fit r ~ amplitude * t^rate over the used window."""

    rate: float
    amplitude: float
    residual: float
    window: tuple
    n_used: int


def fit_rate(times: Sequence[float], radii: Sequence[float]) -> RateFit:
    """Least-squares slope of log r against log t.

    The earliest 20% of the samples are discarded as transient.  Fewer
    than 6 usable samples, a time span under a factor 4, or nonpositive
    entries raise FitError.
    """
    t = np.asarray(times, dtype=float)
    r = np.asarray(radii, dtype=float)
    if t.ndim != 1 or t.shape != r.shape:
        raise FitError("times and radii must be equal-length 1-d arrays")
    skip = int(math.ceil(0.2 * len(t)))
    t, r = t[skip:], r[skip:]
    if len(t) < 6:
        raise FitError(f"need at least 6 samples after the 20% cut, "
                       f"got {len(t)}")
    if np.any(t <= 0.0) or np.any(r <= 0.0):
        raise FitError("rate fits need positive times and radii")
    if np.any(np.diff(t) <= 0.0):
        raise FitError("times must increase strictly")
    if t[-1] < 4.0 * t[0]:
        raise FitError(f"time span must cover a factor >= 4, got "
                       f"{t[-1] / t[0]:.3g}")
    lt, lr = np.log(t), np.log(r)
    slope, intercept = np.polyfit(lt, lr, 1)
    resid = float(np.sqrt(np.mean((lr - (slope * lt + intercept)) ** 2)))
    return RateFit(rate=float(slope), amplitude=float(np.exp(intercept)),
                   residual=resid, window=(float(t[0]), float(t[-1])),
                   n_used=int(len(t)))


def benilan_crandall_check(snapshots: Sequence[ScalarField],
                           floor: float = 0.0) -> float:
    """Worst value of the discrete u_t + u/t over consecutive snapshots.

    Nonnegative (up to scheme error) certifies the lower bound
    u_t >= -u/t.  Snapshots must sit at strictly positive, increasing
    times; forward differences are used.
    """
    if len(snapshots) < 2:
        raise DomainError("need at least two snapshots")
    worst = np.inf
    for a, b in zip(snapshots, snapshots[1:]):
        if not (0.0 < a.t < b.t):
            raise DomainError("snapshot times must be positive and increasing")
        ut = (b.values - a.values) / (b.t - a.t)
        worst = min(worst, float(np.min(ut + (a.values - floor) / a.t)))
    return worst


@dataclass
class FriendlyGiantResult:
    """Distance of t*u(t) to its large-time limit.

    On a ball the limit is the separable profile and `errors` holds
    sup |t u - U|; otherwise only successive stabilization differences
    sup |t_{i+1} u_{i+1} - t_i u_i| are available and `errors` is None.
    """

    times: np.ndarray
    errors: Optional[np.ndarray]
    stabilization_diffs: np.ndarray
    is_ball: bool
    profile_max: float = 0.0


def friendly_giant(snapshots: Sequence[ScalarField], params: Params,
                   ball_radius: Optional[float] = None,
                   center: Sequence[float] | None = None,
                   floor: float = 0.0) -> FriendlyGiantResult:
    """Compare t*u against the separable ball profile (or just stabilize).

    With `ball_radius` given, the target is the zero-initial-data limit

        U(x) = m/(m-1)^2 * [G_p(k_s (R - |x|))]^((m-1)/m)  inside,
        0 outside,

    evaluated on the snapshot grid; errors are sup-norm distances of
    t*u - floor*t ... the floor is removed from u before scaling.
    """
    if not snapshots:
        raise DomainError("need at least one snapshot")
    grid = snapshots[0].grid
    scaled = [s.t * np.maximum(s.values - floor, 0.0) for s in snapshots]
    times = np.array([s.t for s in snapshots])
    diffs = np.array([float(np.max(np.abs(b - a)))
                      for a, b in zip(scaled, scaled[1:])])
    if ball_radius is None:
        return FriendlyGiantResult(times=times, errors=None,
                                   stabilization_diffs=diffs, is_ball=False)
    spec = exact.separable_ball(params.m, R=ball_radius, t0=0.0,
                                x0=center if center is not None else ())
    X = grid.points()
    U = exact.separable_ball_u(X, 1.0, spec).reshape(grid.shape)
    errors = np.array([float(np.max(np.abs(s - U))) for s in scaled])
    return FriendlyGiantResult(times=times, errors=errors,
                               stabilization_diffs=diffs, is_ball=True,
                               profile_max=float(np.max(U)))


def barenblatt_convergence(snapshots: Sequence[ScalarField], R_estimate: float,
                           params: Params, floor: float = 0.0,
                           center: Sequence[float] | None = None,
                           r_max: Optional[float] = None) -> tuple:
    """Rate-normalized sup distance of the density to a matched source field.

    e(t) = t^(1/(m+1)) * sup |rho(t) - beta_R(t)| with beta_R the
    source-type density of front scale R_estimate; returns (times, errors)
    for the caller to test monotonicity.  Pressure snapshots are floored
    and converted to density first.
    """
    if not snapshots:
        raise DomainError("need at least one snapshot")
    spec = exact.barenblatt(params.m, R=R_estimate,
                            x0=center if center is not None else ())
    grid = snapshots[0].grid
    X = grid.points()
    keep = np.ones(grid.shape, dtype=bool)
    if r_max is not None:
        keep = grid.radii(center) <= r_max
    times, errs = [], []
    b = 1.0 / (params.m + 1.0)
    for s in snapshots:
        if s.quantity == "u":
            rho = density_from_pressure(
                np.maximum(s.values - floor, 0.0), params.m)
        elif s.quantity == "rho":
            rho = np.maximum(s.values - floor, 0.0)
        else:
            raise DomainError(f"cannot interpret quantity {s.quantity!r}")
        beta = exact.evaluate_rho(spec, X, s.t).reshape(grid.shape)
        times.append(s.t)
        errs.append(s.t ** b * float(np.max(np.abs(rho - beta)[keep])))
    return np.asarray(times), np.asarray(errs)


def trace_rows(trace: FreeBoundaryTrace) -> tuple:
    """CSV header and rows for a support trace (io.write_trace_csv input)."""
    header = ["t", "r_inner", "r_outer", "empty"]
    rows = [[t, ri, ro, int(e)] for t, ri, ro, e in
            zip(trace.times, trace.r_inner, trace.r_outer, trace.empty)]
    return header, rows
