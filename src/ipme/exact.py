"""Exact solutions of the pressure equation and their radial profiles.

Families
--------
`FAMILIES` maps each config name (`exact.family`, the spec's kind) to one
row, a `Family`: the pressure evaluator, the closed-form density or None,
and the family's config keys with their defaults (REQUIRED where the
config must give the key).  `spec(family, m, **keys)` checks keys against
the row, fills in the defaults and builds the `ExactSolutionSpec`, whose
fields carry the same key names.  The families are:

* barenblatt: source solutions, density and pressure form.
* traveling-wave: planar traveling waves.
* separable-ball, separable-annulus, neg-lambda-pos, neg-lambda-zero,
  neg-lambda-neg: separable solutions rho = T(t) F(x) whose radial
  profiles reduce, after the substitution g = lambda^(-m/(m-1)) F^m with
  p = 1/m, to the ODEs g'' + g^p = 0 (lambda > 0, ball and annulus) and
  g'' - g^p = 0 (lambda < 0, one branch per sign of the constant a).

The ODE profiles are expressed through three elementary primitives

    H_p(z) = int_0^z ds / sqrt(a - s^(p+1)),   z in [0, a^(1/(p+1))],
    I_p(z) = int_0^z ds / sqrt(a + s^(p+1)),   z >= 0,
    K_p(z) = int_{z0}^z ds / sqrt(s^(p+1) - |a|),  z >= z0 = |a|^(1/(p+1)),

whose inverses G_p, J_p, L_p enter the solution formulas.  They are never
computed from a hypergeometric series: each primitive is tabulated by
composite Gauss-Legendre quadrature after the substitution
s = endpoint -/+ sigma^2 that removes the inverse-square-root endpoint
singularity (graded toward the one end where the integrand is only C^1).
Values between nodes come from a local Gauss rule from the nearest node
below; inverses start from linear interpolation of the table and take two
Newton steps against those local values.  Only numpy and the standard
library are used.
A `ProfileTable` exposes `forward` and `invert` plus two public fields,
`domain` (the z-interval) and `y_max` (the primitive's largest value);
tables are built to the quadrature budget TABLE_TOL = 1e-10.

The residual oracle `pde_residual` forms the spatial stencil with the
solver's own kernel (`operators.quad_form_field`), so a defect in that
kernel shows up as a residual that no longer converges.

Two displayed constants are corrected here so that every evaluator is an
actual solution of u_t = k u D_inf(u) + |Du|^2 (direct substitution check,
also enforced by the residual oracle below):

* the Barenblatt pressure prefactor is 1/(2(m+1)t), the value consistent
  with the density form under u = (m/(m-1)) rho^(m-1);
* the traveling wave in pressure form is u = c [a + c t - x1]_+ (front
  slope equals front speed), with density companion
  rho = [ ((m-1)/m) c (a + c t - x1)_+ ]^(1/(m-1)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (ConfigError, DomainError, GridSpec, NumericError, Params,
                   RangeError, ScalarField, density_from_pressure)
from .operators import quad_form_field

__all__ = [
    "ExactSolutionSpec", "ProfileTable", "FAMILIES", "spec",
    "build_H_profile", "build_I_profile", "build_K_profile",
    "evaluate_u", "evaluate_rho", "sample_field", "pde_residual",
    "ode_residual", "endpoint_A",
]


def k_slope(p: float) -> float:
    """First-integral slope sqrt(2/(p+1)); equals sqrt(2m/(m+1)) at p=1/m."""
    return math.sqrt(2.0 / (p + 1.0))


# ── Solution specification ───────────────────────────────────────────────

@dataclass(frozen=True)
class ExactSolutionSpec:
    """Parameters selecting one member of one exact family; `spec` builds it.

    `kind` is a key of `FAMILIES`.  The other fields carry the config names
    of the family keys, each field one meaning; a field that the kind's row
    does not list keeps its zero default.  The constructor checks each
    family's ranges.  The sign of the separation constant lambda is the
    kind's: positive for the separable kinds, negative for neg-lambda.
    """

    kind: str
    params: Params
    R: float = 0.0
    speed: float = 0.0
    offset: float = 0.0
    a: float = 0.0
    R1: float = 0.0
    C: float = 0.0
    t0: float = 0.0
    x0: tuple = ()

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise DomainError(f"unknown exact-solution kind {self.kind!r}")
        if self.kind == "barenblatt" and not (self.R > 0.0):
            raise DomainError("barenblatt needs R > 0")
        if self.kind == "traveling-wave" and not (self.speed > 0.0):
            raise DomainError("traveling-wave needs speed > 0")
        if self.kind in ("separable-ball", "separable-annulus") and \
                not (self.a > 0.0):
            raise DomainError("H_p branch needs a > 0")
        if self.kind == "separable-annulus" and not (self.R1 >= 0.0):
            raise DomainError("separable-annulus needs R1 >= 0")
        if self.kind == "neg-lambda-pos" and not (self.a > 0.0):
            raise DomainError("neg-lambda-pos needs a > 0")
        if self.kind == "neg-lambda-neg" and not (self.a < 0.0):
            raise DomainError("neg-lambda-neg needs a < 0")


def spec(family: str, m: float, **keys) -> ExactSolutionSpec:
    """The member of `family` that `keys` select, `m` its exponent.

    A key that the family's row does not list, or a required key left out,
    is a ConfigError; the row's defaults fill in the rest.  The ball takes
    its radius R, or else its constant a, not both, and derives the other
    from k_slope * R = A_p.
    """
    row = FAMILIES.get(family)
    if row is None:
        raise ConfigError(f"unknown exact family {family!r}; known: "
                          f"{', '.join(FAMILIES)}")
    vals = {**row.keys, **keys}
    for key, val in vals.items():
        if key not in row.keys:
            raise ConfigError(
                f"exact family {family!r} takes no key {key!r}; its keys: "
                f"{', '.join(k for k in row.keys if k != 'x0')}")
        if val is REQUIRED:
            raise ConfigError(f"exact family {family!r} needs the key {key!r}")
    fields = {key: tuple(val) if key == "x0" else float(val)
              for key, val in vals.items() if val is not None}
    params = Params(m=m)
    if family == "separable-ball":
        if "R" in keys and "a" in keys:
            raise ConfigError("exact family 'separable-ball' takes R or a, "
                              "not both")
        if "R" in keys:
            fields["a"] = ball_a_from_radius(fields["R"], params.p)
        else:
            fields["R"] = ball_radius_from_a(fields["a"], params.p)
    return ExactSolutionSpec(kind=family, params=params, **fields)


# ── Point handling ───────────────────────────────────────────────────────

def _as_points(x) -> tuple:
    X = np.asarray(x, dtype=float)
    scalar = X.ndim == 1
    X = np.atleast_2d(X)
    return X, scalar


def _radii(X: np.ndarray, x0: tuple) -> np.ndarray:
    if x0:
        if len(x0) != X.shape[1]:
            raise DomainError(f"center must have {X.shape[1]} coordinates, "
                              f"got {len(x0)}")
        X = X - np.asarray(x0, dtype=float)
    return np.sqrt(np.sum(X * X, axis=1))


def _ret(vals: np.ndarray, scalar: bool):
    return float(vals[0]) if scalar else vals


# ── Barenblatt family ────────────────────────────────────────────────────

def gamma_m(m: float) -> float:
    return ((m - 1.0) / (2.0 * m * (m + 1.0))) ** (1.0 / (m - 1.0))


def _barenblatt_core(x, t: float, spec: ExactSolutionSpec) -> tuple:
    """([(R t^(1/(m+1)))^2 - |x|^2]_+, scalar flag) for t > 0."""
    if t <= 0.0:
        raise DomainError(f"Barenblatt solutions need t > 0, got {t}")
    X, scalar = _as_points(x)
    r = _radii(X, spec.x0)
    front = spec.R * t ** (1.0 / (spec.params.m + 1.0))
    return np.maximum(front ** 2 - r * r, 0.0), scalar


def barenblatt_rho(x, t: float, spec: ExactSolutionSpec):
    """Source-type density gamma_m t^(-1/(m-1)) [(R t^(1/(m+1)))^2 - |x|^2]_+^(1/(m-1))."""
    core, scalar = _barenblatt_core(x, t, spec)
    m = spec.params.m
    vals = gamma_m(m) * t ** (-1.0 / (m - 1.0)) * core ** (1.0 / (m - 1.0))
    return _ret(vals, scalar)


def barenblatt_u(x, t: float, spec: ExactSolutionSpec):
    """Pressure form (1/(2(m+1)t)) [(R t^(1/(m+1)))^2 - |x|^2]_+.

    The prefactor is the one forced by the density form under the pressure
    transform and by direct substitution into the PDE.
    """
    core, scalar = _barenblatt_core(x, t, spec)
    return _ret(core / (2.0 * (spec.params.m + 1.0) * t), scalar)


# ── Traveling waves ──────────────────────────────────────────────────────

def traveling_wave_u(x, t: float, spec: ExactSolutionSpec):
    """Pressure wave u = c [a + c t - x1]_+ with front at x1 = a + c t
    (c the speed, a the offset)."""
    c = spec.speed
    X, scalar = _as_points(x)
    vals = c * np.maximum(spec.offset + c * t - X[:, 0], 0.0)
    return _ret(vals, scalar)


def traveling_wave_rho(x, t: float, spec: ExactSolutionSpec):
    """Density companion rho = [((m-1)/m) c (a + c t - x1)_+]^(1/(m-1))."""
    m = spec.params.m
    c = spec.speed
    X, scalar = _as_points(x)
    core = np.maximum(spec.offset + c * t - X[:, 0], 0.0)
    vals = ((m - 1.0) / m * c * core) ** (1.0 / (m - 1.0))
    return _ret(vals, scalar)


# ── Profile primitives ───────────────────────────────────────────────────

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_GL5_NODES, _GL5_WEIGHTS = np.polynomial.legendre.leggauss(5)


def endpoint_A(a: float, p: float) -> float:
    """A_p = a^(1/(p+1) - 1/2) sqrt(pi) Gamma(1 + 1/(p+1)) / Gamma(1/2 + 1/(p+1))."""
    if a <= 0.0:
        raise DomainError(f"endpoint formula needs a > 0, got {a}")
    q = 1.0 / (p + 1.0)
    return a ** (q - 0.5) * math.sqrt(math.pi) * math.gamma(1.0 + q) / math.gamma(0.5 + q)


def ball_radius_from_a(a: float, p: float) -> float:
    return endpoint_A(a, p) / k_slope(p)


def ball_a_from_radius(R: float, p: float) -> float:
    if R <= 0.0:
        raise DomainError(f"ball radius must be positive, got {R}")
    q = 1.0 / (p + 1.0)
    # invert A_p(a) = a^(q - 1/2) A_p(1) = k_slope * R
    return (k_slope(p) * R / endpoint_A(1.0, p)) ** (1.0 / (q - 0.5))


# quadrature budget of every profile table
TABLE_TOL = 1e-10
# halvings of the graded rule on the one C^1 interval of each table
_GRADE_LEVELS = 40


class ProfileTable:
    """Quadrature table for one primitive (H, I or K) and its inverse.

    The integration variable is reparameterized as

        H:  z = z_max - sigma^2      (z_max = a^(1/(p+1)))
        I:  z = sigma
        K:  z = z_0 + sigma^2        (z_0 = |a|^(1/(p+1)))

    which turns the inverse-square-root endpoint singularities of H and K
    into smooth positive integrands f(sigma) = dT/dsigma, tabulated
    cumulatively on a uniform sigma grid by 12-point Gauss-Legendre per
    interval.  The one interval where f is only C^1 (the z = 0 end of H
    and I) is split into pieces that halve toward that end (`_graded`).
    `forward` adds to the nearest node below a 5-point Gauss rule up to
    sigma (`_local_T`); `invert` starts from `np.interp` on the table and
    takes two Newton steps against the same local values, so the budget is
    set by the table construction (~1e-12), not by an interpolant.

    Public fields: `domain` (z-interval) and `y_max` (largest value of the
    primitive, the Gamma-formula endpoint A_p for H).
    """

    def __init__(self, kind: str, a: float, p: float, n: int = 4096,
                 z_max: float | None = None):
        if kind not in ("H", "I", "K"):
            raise DomainError(f"unknown profile kind {kind!r}")
        if not (0.0 < p < 1.0):
            raise DomainError(f"profile exponent p must lie in (0,1), got {p}")
        if kind in ("H", "I") and a <= 0.0:
            raise DomainError(f"{kind}-profile needs a > 0, got {a}")
        if kind == "K" and a >= 0.0:
            raise DomainError(f"K-profile needs a < 0, got {a}")
        if n < 2048:
            raise DomainError("profile tables need at least 2048 intervals")
        self.kind = kind
        self.a = float(a)
        self.p = float(p)

        if kind == "H":
            self.z_lo = 0.0
            self.z_hi = a ** (1.0 / (p + 1.0))
            sigma_end = math.sqrt(self.z_hi)
        elif kind == "I":
            if z_max is None or z_max <= 0.0:
                raise DomainError("I-profile needs z_max > 0")
            self.z_lo = 0.0
            self.z_hi = float(z_max)
            sigma_end = self.z_hi
        else:  # K
            self.z_lo = abs(a) ** (1.0 / (p + 1.0))
            if z_max is None or z_max <= self.z_lo:
                raise DomainError("K-profile needs z_max above |a|^(1/(p+1))")
            self.z_hi = float(z_max)
            sigma_end = math.sqrt(self.z_hi - self.z_lo)

        self.sigma = np.linspace(0.0, sigma_end, n + 1)
        self._tabulate()
        self.domain = (self.z_lo, self.z_hi)
        self.y_max = float(self.T[-1])
        if kind == "H":
            A_gamma = endpoint_A(self.a, self.p)
            if abs(self.T[-1] - A_gamma) > TABLE_TOL * max(1.0, A_gamma):
                raise NumericError(
                    f"H-profile endpoint {self.T[-1]!r} disagrees with the "
                    f"Gamma-formula value {A_gamma!r} beyond tol={TABLE_TOL}")

    # integrand dT/dsigma, vectorized, with the removable 0/0 at sigma=0
    # of the H and K kinds replaced by its limit
    def _f(self, sigma: np.ndarray) -> np.ndarray:
        a, p = self.a, self.p
        s_arr = np.asarray(sigma, dtype=float)
        if self.kind == "H":
            # a - (z_hi - s^2)^(p+1) without the cancellation near s = 0
            q = np.minimum(s_arr * s_arr / self.z_hi, 1.0)
            lim = 2.0 * math.sqrt(self.z_hi / (a * (p + 1.0)))
            with np.errstate(divide="ignore", invalid="ignore"):
                den2 = -a * np.expm1((p + 1.0) * np.log1p(-q))
                out = 2.0 * s_arr / np.sqrt(den2)
            small = s_arr < 1e-9 * max(1.0, math.sqrt(self.z_hi))
            return np.where(small, lim, out)
        if self.kind == "I":
            return 1.0 / np.sqrt(a + s_arr ** (p + 1.0))
        den2 = abs(a) * np.expm1((p + 1.0) * np.log1p(s_arr * s_arr / self.z_lo))
        lim = 2.0 / math.sqrt((p + 1.0) * abs(a) / self.z_lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 2.0 * s_arr / np.sqrt(den2)
        small = s_arr < 1e-9 * max(1.0, self.z_lo)
        return np.where(small, lim, out)

    def _graded(self, lo: float, hi: float, weak_hi: bool) -> float:
        """Integral of _f over [lo, hi] when _f is only C^1 at one end.

        Composite Gauss-Legendre on pieces that halve toward the weak end,
        _GRADE_LEVELS of them plus the remaining sliver, all evaluated in
        one call.  The sum with half as many levels must agree to
        100 * TABLE_TOL.
        """
        levels = _GRADE_LEVELS
        # distances from the weak end: piece k spans [d[k+1], d[k]]; the
        # last two rows are the slivers [0, d[levels // 2]] and [0, d[levels]]
        d = (hi - lo) * 0.5 ** np.arange(levels + 1)
        far = np.concatenate((d[:-1], d[[levels // 2, levels]]))
        near = np.concatenate((d[1:], [0.0, 0.0]))
        half = 0.5 * (far - near)
        dist = (0.5 * (far + near))[:, None] + half[:, None] * _GL_NODES[None, :]
        pts = hi - dist if weak_hi else lo + dist
        parts = (self._f(pts.ravel()).reshape(dist.shape) @ _GL_WEIGHTS) * half
        fine = float(np.sum(parts[:levels]) + parts[levels + 1])
        coarse = float(np.sum(parts[:levels // 2]) + parts[levels])
        if not math.isfinite(fine) or abs(fine - coarse) > 100.0 * TABLE_TOL:
            raise NumericError(
                f"graded quadrature failed on the weak end of the "
                f"{self.kind}-profile")
        return fine

    def _tabulate(self) -> None:
        s = self.sigma
        n = len(s) - 1
        mid = 0.5 * (s[:-1] + s[1:])
        half = 0.5 * (s[1:] - s[:-1])
        # composite Gauss-Legendre, all intervals at once
        pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        vals = self._f(pts.ravel()).reshape(n, len(_GL_NODES))
        incr = (vals @ _GL_WEIGHTS) * half
        # the interval touching the end where the integrand is only C^1
        # (the s -> 0 end of the original variable) gets graded quadrature
        if self.kind == "H":
            incr[n - 1] = self._graded(s[n - 1], s[n], weak_hi=True)
        elif self.kind == "I":
            incr[0] = self._graded(s[0], s[1], weak_hi=False)
        self.T = np.concatenate(([0.0], np.cumsum(incr)))

    # ── coordinate maps ──────────────────────────────────────────────
    def _sigma_of_z(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "H":
            return np.sqrt(np.maximum(self.z_hi - z, 0.0))
        if self.kind == "I":
            return z
        return np.sqrt(np.maximum(z - self.z_lo, 0.0))

    def _z_of_sigma(self, s: np.ndarray) -> np.ndarray:
        if self.kind == "H":
            return self.z_hi - s * s
        if self.kind == "I":
            return s
        return self.z_lo + s * s

    def _flip(self, v: np.ndarray) -> np.ndarray:
        """Cumulative table value <-> primitive value (an involution):
        H is tabulated from its singular end z_max, I and K from z_lo."""
        return self.T[-1] - v if self.kind == "H" else v

    # ── evaluation ───────────────────────────────────────────────────
    def forward(self, z):
        """The primitive itself: H_p(z), I_p(z) or K_p(z)."""
        z_arr = np.asarray(z, dtype=float)
        scalar = z_arr.ndim == 0
        z_arr = np.atleast_1d(z_arr)
        slack = 1e-12 * max(1.0, abs(self.z_hi))
        if np.any(z_arr < self.z_lo - slack) or np.any(z_arr > self.z_hi + slack):
            raise DomainError(
                f"{self.kind}-profile argument outside [{self.z_lo}, {self.z_hi}]")
        z_arr = np.clip(z_arr, self.z_lo, self.z_hi)
        y = self._flip(self._local_T(self._sigma_of_z(z_arr)))
        y = np.clip(y, 0.0, None)
        return float(y[0]) if scalar else y

    def _local_T(self, s: np.ndarray) -> np.ndarray:
        """Cumulative value at arbitrary sigma: nearest node + local Gauss."""
        s = np.clip(s, self.sigma[0], self.sigma[-1])
        j = np.clip(np.searchsorted(self.sigma, s) - 1, 0, len(self.sigma) - 2)
        s0 = self.sigma[j]
        mid = 0.5 * (s0 + s)
        half = 0.5 * (s - s0)
        pts = mid[:, None] + half[:, None] * _GL5_NODES[None, :]
        vals = self._f(pts.ravel()).reshape(len(s), len(_GL5_NODES))
        return self.T[j] + (vals @ _GL5_WEIGHTS) * half

    def invert(self, y):
        """Inverse of the primitive: G_p, J_p or L_p.

        Values must lie in the tabulated range; the polished result
        satisfies |primitive(z) - y| <= 1e-9 by construction.
        """
        y_arr = np.asarray(y, dtype=float)
        scalar = y_arr.ndim == 0
        y_arr = np.atleast_1d(y_arr).astype(float)
        slack = 1e-12 * max(1.0, self.y_max)
        if np.any(y_arr < -slack) or np.any(y_arr > self.y_max + slack):
            raise RangeError(
                f"inverse argument outside [0, {self.y_max}] for "
                f"{self.kind}-profile")
        y_arr = np.clip(y_arr, 0.0, self.y_max)
        T_target = self._flip(y_arr)
        s = np.interp(T_target, self.T, self.sigma)
        for _ in range(2):
            resid = self._local_T(s) - T_target
            fs = self._f(s)
            step = np.where(fs > 0.0, resid / np.where(fs > 0.0, fs, 1.0), 0.0)
            s = np.clip(s - step, self.sigma[0], self.sigma[-1])
        z = self._z_of_sigma(s)
        z = np.clip(z, self.z_lo, self.z_hi)
        return float(z[0]) if scalar else z


_TABLE_CACHE: dict = {}


def _cached_table(kind: str, a: float, p: float, z_max: float | None = None,
                  n: int = 4096) -> ProfileTable:
    key = (kind, float(a), float(p), None if z_max is None else float(z_max), n)
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        tab = ProfileTable(kind, a, p, n=n, z_max=z_max)
        _TABLE_CACHE[key] = tab
    return tab


def build_H_profile(a: float, p: float) -> ProfileTable:
    """Tabulated H_p on [0, a^(1/(p+1))]; endpoint checked against the
    Gamma-function formula to TABLE_TOL."""
    return _cached_table("H", a, p)


def build_I_profile(a: float, p: float, z_max: float) -> ProfileTable:
    return _cached_table("I", a, p, z_max=z_max)


def build_K_profile(a: float, p: float, z_max: float) -> ProfileTable:
    return _cached_table("K", a, p, z_max=z_max)


def _table_covering(kind: str, a: float, p: float,
                    y_need: float) -> ProfileTable:
    """I- or K-profile whose range covers [0, y_need] (J_p or L_p
    arguments); z_max starts at 2 z_lo + 1 and its distance above z_lo
    doubles until the range suffices."""
    z_lo = 0.0 if kind == "I" else abs(a) ** (1.0 / (p + 1.0))
    z_max = 2.0 * z_lo + 1.0
    while True:
        tab = _cached_table(kind, a, p, z_max=z_max)
        if tab.y_max >= y_need:
            return tab
        z_max = z_lo + 2.0 * (z_max - z_lo)
        if z_max > 1e12:
            raise NumericError(f"{kind}-profile range could not cover request")


# ── Separable solutions ──────────────────────────────────────────────────

def _ball_profile(x, t: float, spec: ExactSolutionSpec) -> tuple:
    """(G_p(k_slope (R-|x|)) inside the ball and 0 outside, scalar flag)
    for a valid ball spec at t > t0."""
    if t <= spec.t0:
        raise DomainError(f"ball solution needs t > t0={spec.t0}, got {t}")
    p = spec.params.p
    ks = k_slope(p)
    A = endpoint_A(spec.a, p)
    if abs(ks * spec.R - A) > 1e-8 * max(1.0, A):
        raise DomainError(
            f"ball radius {spec.R} inconsistent with a={spec.a}: "
            f"k_slope*R must equal the endpoint value {A}")
    tab = build_H_profile(spec.a, p)
    X, scalar = _as_points(x)
    r = _radii(X, spec.x0)
    y = ks * (spec.R - r)
    inside = y > 0.0
    g = np.zeros_like(r)
    if np.any(inside):
        g[inside] = tab.invert(np.minimum(y[inside], tab.y_max))
    return g, scalar


def separable_ball_u(x, t: float, spec: ExactSolutionSpec):
    """u = m/((m-1)^2 (t-t0)) [G_p(k_slope (R-|x|))]^((m-1)/m) inside the
    ball, 0 outside; k_slope R = A_p ties R to the constant a."""
    g, scalar = _ball_profile(x, t, spec)
    m = spec.params.m
    vals = m / ((m - 1.0) ** 2 * (t - spec.t0)) * g ** ((m - 1.0) / m)
    return _ret(vals, scalar)


def separable_ball_rho(x, t: float, spec: ExactSolutionSpec):
    """rho = [(m-1)(t-t0)]^(-1/(m-1)) [G_p(k_slope (R-|x|))]^(1/m)."""
    g, scalar = _ball_profile(x, t, spec)
    m = spec.params.m
    vals = ((m - 1.0) * (t - spec.t0)) ** (-1.0 / (m - 1.0)) * g ** (1.0 / m)
    return _ret(vals, scalar)


def separable_annulus_u(x, t: float, spec: ExactSolutionSpec):
    """u = m/((m-1)^2 (t-t0)) [G_p(k_slope (|x|-R1))]^((m-1)/m) on the
    annulus R1 <= |x| <= R2 = R1 + A_p/k_slope."""
    if t <= spec.t0:
        raise DomainError(f"annulus solution needs t > t0={spec.t0}, got {t}")
    m, p = spec.params.m, spec.params.p
    tab = build_H_profile(spec.a, p)
    ks = k_slope(p)
    R1 = spec.R1
    R2 = R1 + tab.y_max / ks
    X, scalar = _as_points(x)
    r = _radii(X, spec.x0)
    slack = 1e-12 * max(1.0, R2)
    if np.any(r < R1 - slack) or np.any(r > R2 + slack):
        raise DomainError(
            f"annulus evaluation outside [{R1}, {R2}]")
    y = np.clip(ks * (r - R1), 0.0, tab.y_max)
    g = tab.invert(y)
    vals = m / ((m - 1.0) ** 2 * (t - spec.t0)) * g ** ((m - 1.0) / m)
    return _ret(vals, scalar)


def neg_lambda_u(x, t: float, spec: ExactSolutionSpec):
    """Blow-up branches (lambda < 0), defined for t < t0.

    a > 0:  u = m/((m-1)^2 (t0-t)) [J_p(k_slope (|x|-R))]^((m-1)/m), |x| >= R.
    a = 0:  u = (|x|-R)^2 / (2(m+1)(t0-t)).
    a < 0:  u = m/((m-1)^2 (t0-t)) [L_p(k_slope |x| + C)]^((m-1)/m).
    """
    if t >= spec.t0:
        raise DomainError(
            f"negative-lambda solution needs t < t0={spec.t0}, got {t}")
    m, p = spec.params.m, spec.params.p
    X, scalar = _as_points(x)
    r = _radii(X, spec.x0)
    dt = spec.t0 - t
    if spec.kind == "neg-lambda-zero":
        vals = (r - spec.R) ** 2 / (2.0 * (m + 1.0) * dt)
        return _ret(vals, scalar)
    ks = k_slope(p)
    if spec.kind == "neg-lambda-pos":
        kind, y = "I", ks * (r - spec.R)
        if np.any(y < -1e-12):
            raise DomainError("a>0 blow-up branch is defined for |x| >= R")
    else:
        kind, y = "K", ks * r + spec.C
        if np.any(y < -1e-12):
            raise DomainError("a<0 blow-up branch needs k_slope*|x| + C >= 0")
    y = np.maximum(y, 0.0)
    tab = _table_covering(kind, spec.a, p,
                          float(np.max(y)) if y.size else 1.0)
    g = tab.invert(y)
    vals = m / ((m - 1.0) ** 2 * dt) * g ** ((m - 1.0) / m)
    return _ret(vals, scalar)


# ── Uniform evaluation interface ─────────────────────────────────────────

# the default of a family key that the config must give
REQUIRED = "required"


class Family(NamedTuple):
    """One row of `FAMILIES`: the pressure evaluator, the closed-form
    density or None (the density is then transformed from the pressure),
    and the config keys with their defaults.  A default is a number,
    REQUIRED, or None for the ball's R, which `spec` derives from a."""

    u: Callable
    rho: Callable | None
    keys: dict


# `x0`, the centre of the two radial families that take one, is a key of
# Python callers only: the config schema has no such leaf
FAMILIES = {
    "barenblatt": Family(barenblatt_u, barenblatt_rho, {"R": 1.0, "x0": ()}),
    "traveling-wave": Family(traveling_wave_u, traveling_wave_rho,
                             {"speed": 1.0, "offset": 0.0}),
    "separable-ball": Family(separable_ball_u, separable_ball_rho,
                             {"R": None, "a": 1.0, "t0": 0.0, "x0": ()}),
    "separable-annulus": Family(separable_annulus_u, None,
                                {"a": 1.0, "R1": REQUIRED, "t0": 0.0}),
    "neg-lambda-pos": Family(neg_lambda_u, None,
                             {"a": 1.0, "R": REQUIRED, "t0": REQUIRED}),
    "neg-lambda-zero": Family(neg_lambda_u, None,
                              {"R": REQUIRED, "t0": REQUIRED}),
    "neg-lambda-neg": Family(neg_lambda_u, None,
                             {"a": -1.0, "C": REQUIRED, "t0": REQUIRED}),
}


def evaluate_u(spec: ExactSolutionSpec, x, t: float):
    return FAMILIES[spec.kind].u(x, t, spec)


def evaluate_rho(spec: ExactSolutionSpec, x, t: float):
    rho = FAMILIES[spec.kind].rho
    if rho is None:
        return density_from_pressure(evaluate_u(spec, x, t), spec.params.m)
    return rho(x, t, spec)


def sample_field(spec: ExactSolutionSpec, grid: GridSpec, t: float,
                 quantity: str = "u") -> ScalarField:
    X = grid.points()
    if quantity == "u":
        vals = evaluate_u(spec, X, t)
    elif quantity == "rho":
        vals = evaluate_rho(spec, X, t)
    else:
        raise DomainError(f"cannot sample quantity {quantity!r} from an "
                          "exact solution")
    return ScalarField(grid=grid, values=np.asarray(vals), t=t,
                       quantity=quantity)


# ── Residual oracles ─────────────────────────────────────────────────────

def _wet_interior(u: np.ndarray) -> np.ndarray:
    """Interior nodes whose whole 3^d neighbourhood is positive (an AND of
    the 3^d shifted interior views; no interior stencil leaves the grid)."""
    pos = u > 0.0
    wet = np.ones(tuple(n - 2 for n in u.shape), dtype=bool)
    for off in itertools.product((0, 1, 2), repeat=u.ndim):
        wet &= pos[tuple(slice(o, n - 2 + o) for o, n in zip(off, u.shape))]
    return wet


def pde_residual(spec: ExactSolutionSpec, grid: GridSpec, t: float,
                 threshold_frac: float = 0.05) -> tuple:
    """Max-norm discrete pressure-equation residual of an exact solution.

    Samples u on the grid, forms the centered time difference over
    tau = 0.1 * min(h), evaluates the discrete spatial operator with
    beta(u) = |u| and no regularization, and returns (max residual, node
    count) over interior nodes that satisfy all of

    * u > threshold_frac * max u,
    * a nonvanishing discrete gradient (the unregularized ratio is
      undefined where the gradient is exactly zero),
    * the whole spatial stencil and both time-shifted values strictly
      positive, so no finite difference reaches across the free boundary,
      where the solution is only Lipschitz and the residual would measure
      the kink instead of the scheme.
    """
    params = spec.params
    X = grid.points()
    tau = 0.1 * min(grid.h)
    u0 = np.asarray(evaluate_u(spec, X, t)).reshape(grid.shape)
    up = np.asarray(evaluate_u(spec, X, t + tau)).reshape(grid.shape)
    um = np.asarray(evaluate_u(spec, X, t - tau)).reshape(grid.shape)
    ut = (up - um) / (2.0 * tau)

    inter = grid.interior()
    c0 = u0[inter]
    num, g2, lap = quad_form_field(u0, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(g2 > 0.0, num / np.where(g2 > 0.0, g2, 1.0), 0.0)
    rhs = params.eps * lap + params.k * np.abs(c0) * ratio + g2
    res = rhs - ut[inter]
    wet = _wet_interior(u0) & (up[inter] > 0.0) & (um[inter] > 0.0)
    mask = (c0 > threshold_frac * float(np.max(u0))) & (g2 > 0.0) & wet
    if not np.any(mask):
        raise DomainError("residual mask is empty on this grid")
    return float(np.max(np.abs(res[mask]))), int(np.sum(mask))


def ode_residual(table: ProfileTable, n_samples: int = 200) -> float:
    """Max |g'' +/- g^p| for the radial profile built from one primitive.

    g(r) is the profile entering the separable solutions: the inverse of
    the primitive evaluated at y = k_slope * r, so k_slope^2 * (inverse)''
    must equal -g^p (H) or +g^p (I, K).  Centered second differences on a
    uniform interior y-grid; the residual vanishes with table refinement.
    """
    ks2 = 2.0 / (table.p + 1.0)
    y_hi = table.y_max
    y = np.linspace(0.05 * y_hi, 0.95 * y_hi, n_samples)
    dy = y[1] - y[0]
    g = table.invert(y)
    d2 = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / (dy * dy)
    sign = 1.0 if table.kind == "H" else -1.0
    res = ks2 * d2 + sign * g[1:-1] ** table.p
    return float(np.max(np.abs(res)))
