"""Shared types and the pressure/density change of variables.

The model is the density equation rho_t = D_inf(rho^m) with the
1-homogeneous infinity-Laplacian, worked with throughout in pressure form

    u = (m/(m-1)) rho^(m-1),      u_t = k u D_inf(u) + |Du|^2,

with k = m - 1 and profile exponent p = 1/m.  Everything downstream
(operators, solvers, exact solutions) shares the parameter bundle, grid
description and field container defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "IpmeError", "DomainError", "RangeError", "SingularPointError",
    "NumericError", "CflError", "InstabilityError", "OrderingError",
    "TruncationError", "FitError", "SnapshotFormatError", "ConfigError",
    "Params", "GridSpec", "ScalarField", "BoundaryData",
    "RegularizationSchedule", "run_manifest",
    "pressure_from_density", "density_from_pressure",
    "QUANTITIES",
]

QUANTITIES = ("u", "rho", "v", "G")


# ── Errors ───────────────────────────────────────────────────────────────

class IpmeError(Exception):
    """Base class for all library errors.  `code` feeds CLI diagnostics."""
    code = 1


class DomainError(IpmeError, ValueError):
    """Input outside the mathematical domain of an operation."""
    code = 10


class RangeError(IpmeError, IndexError):
    """Node index outside the grid interior/extent."""
    code = 11


class SingularPointError(IpmeError, ArithmeticError):
    """Unregularized operator evaluated where the gradient vanishes."""
    code = 12


class NumericError(IpmeError, ArithmeticError):
    """Quadrature or iteration failed to reach its tolerance."""
    code = 13


class CflError(IpmeError, ValueError):
    """Requested time step exceeds the stability bound."""
    code = 20


class InstabilityError(IpmeError, RuntimeError):
    """NaN or negative values beyond tolerance during time stepping."""
    code = 21


class OrderingError(IpmeError, RuntimeError):
    """Discrete comparison/monotonicity violated beyond allowance."""
    code = 22


class TruncationError(IpmeError, RuntimeError):
    """Support reached the truncation collar of a Cauchy box."""
    code = 23


class FitError(IpmeError, ValueError):
    """Rate fit rejected (too few samples or span too short)."""
    code = 30


class SnapshotFormatError(IpmeError, ValueError):
    """Malformed snapshot or manifest text."""
    code = 40


class ConfigError(IpmeError, ValueError):
    """Bad run configuration (unknown key, missing section, bad value)."""
    code = 50


# ── Parameters ───────────────────────────────────────────────────────────

@dataclass(frozen=True)
class Params:
    """Model and regularization parameters.

    m is the diffusion exponent (> 1).  k = m - 1 and p = 1/m are derived
    and always kept consistent.  eps is the linear-diffusion regularization,
    delta the gradient regularization, c the cutoff scale of beta_c.
    """

    m: float
    eps: float = 0.0
    delta: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        if not (self.m > 1.0 and math.isfinite(self.m)):
            raise DomainError(f"m must exceed 1 and be finite, got {self.m}")
        for name in ("eps", "delta", "c"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise DomainError(f"{name} must be >= 0 and finite, got {value}")

    @property
    def k(self) -> float:
        return self.m - 1.0

    @property
    def p(self) -> float:
        return 1.0 / self.m

    def with_(self, **kw) -> "Params":
        d = {"m": self.m, "eps": self.eps, "delta": self.delta, "c": self.c}
        d.update(kw)
        return Params(**d)


# ── Grid ─────────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid on a box, nodes at cell corners incl. boundary.

    Node coordinates along axis i are origin[i] + h[i]*arange(n[i]).
    """

    n: tuple
    h: tuple
    origin: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "h", tuple(float(v) for v in self.h))
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        if not (1 <= len(self.n) <= 3):
            raise DomainError(f"dimension must be 1..3, got {len(self.n)}")
        if not (len(self.n) == len(self.h) == len(self.origin)):
            raise DomainError("n, h, origin must have equal length")
        if any(v < 3 for v in self.n):
            raise DomainError(f"need at least 3 nodes per axis, got {self.n}")
        if not all(v > 0.0 and math.isfinite(v) for v in self.h):
            raise DomainError(f"spacings must be positive and finite, "
                              f"got {self.h}")
        if not all(map(math.isfinite, self.origin)):
            raise DomainError(f"origin must be finite, got {self.origin}")

    @staticmethod
    def box(lo: Sequence[float], hi: Sequence[float], n: Sequence[int]) -> "GridSpec":
        lo = tuple(float(v) for v in lo)
        hi = tuple(float(v) for v in hi)
        n = tuple(int(v) for v in n)
        if not (len(lo) == len(hi) == len(n)):
            raise DomainError(f"box corners and node counts must have equal "
                              f"length, got {len(lo)}, {len(hi)}, {len(n)}")
        if not all(map(math.isfinite, lo + hi)):
            raise DomainError(f"box corners must be finite, got {lo}, {hi}")
        if any(b <= a for a, b in zip(lo, hi)):
            raise DomainError("box needs hi > lo on every axis")
        if any(v < 3 for v in n):
            raise DomainError(f"need at least 3 nodes per axis, got {n}")
        h = tuple((b - a) / (k - 1) for a, b, k in zip(lo, hi, n))
        return GridSpec(n=n, h=h, origin=lo)

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def shape(self) -> tuple:
        return self.n

    @property
    def size(self) -> int:
        return int(np.prod(self.n))

    def axes(self) -> list:
        return [self.origin[i] + self.h[i] * np.arange(self.n[i])
                for i in range(self.dim)]

    def points(self) -> np.ndarray:
        """All node coordinates, shape (size, dim), row-major node order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def radii(self, center: Sequence[float] | None = None) -> np.ndarray:
        """Distance of every node from `center` (default: coordinate origin)."""
        if center is None:
            center = (0.0,) * self.dim
        if len(center) != self.dim:
            raise DomainError(f"center must have {self.dim} coordinates, "
                              f"got {len(center)}")
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        r2 = np.zeros(self.shape)
        for i in range(self.dim):
            r2 += (mesh[i] - center[i]) ** 2
        return np.sqrt(r2)

    def boundary_mask(self) -> np.ndarray:
        """Boolean array, True on nodes lying on a box face."""
        mask = np.zeros(self.shape, dtype=bool)
        for i in range(self.dim):
            idx = [slice(None)] * self.dim
            idx[i] = 0
            mask[tuple(idx)] = True
            idx[i] = -1
            mask[tuple(idx)] = True
        return mask

    def interior(self) -> tuple:
        """Slice tuple selecting the strict interior."""
        return tuple(slice(1, -1) for _ in range(self.dim))

    def node_point(self, node: Sequence[int]) -> np.ndarray:
        node = tuple(int(v) for v in node)
        if len(node) != self.dim:
            raise RangeError(f"node index has wrong length: {node}")
        for i, j in enumerate(node):
            if not (0 <= j < self.n[i]):
                raise RangeError(f"node {node} outside grid extent {self.n}")
        return np.array([self.origin[i] + self.h[i] * node[i]
                         for i in range(self.dim)])


# ── Fields ───────────────────────────────────────────────────────────────

@dataclass
class ScalarField:
    """A scalar quantity sampled on every node of a grid at one time."""

    grid: GridSpec
    values: np.ndarray
    t: float
    quantity: str = "u"

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise DomainError(f"field time must be finite, got {self.t}")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size != self.grid.size:
            raise DomainError(
                f"value count {self.values.size} != grid size {self.grid.size}")
        self.values = self.values.reshape(self.grid.shape)
        if self.quantity not in QUANTITIES:
            raise DomainError(f"unknown quantity {self.quantity!r}")
        if self.quantity in ("u", "rho") and np.any(self.values < 0.0):
            raise DomainError(f"{self.quantity} field must be nonnegative")
        if np.any(~np.isfinite(self.values)):
            raise DomainError("field values must be finite")


# ── Boundary data ────────────────────────────────────────────────────────

@dataclass
class BoundaryData:
    """Dirichlet data: u0 on the initial slice, g on the lateral boundary.

    Both callables are vectorized: they receive an (N, d) array of points
    (g additionally receives the time) and must return an (N,) array.
    `time_dependent=False` lets solvers evaluate g once and cache it.
    """

    initial: Callable[[np.ndarray], np.ndarray]
    lateral: Callable[[np.ndarray, float], np.ndarray]
    kind: str = "dirichlet-function"
    time_dependent: bool = True

    @staticmethod
    def from_functions(u0: Callable, g: Callable,
                       time_dependent: bool = True) -> "BoundaryData":
        return BoundaryData(initial=u0, lateral=g,
                            time_dependent=time_dependent)

# ── Regularization schedule ──────────────────────────────────────────────

@dataclass(frozen=True)
class RegularizationSchedule:
    """Continuation lists: eps and delta strictly decreasing, n increasing."""

    eps_list: tuple
    delta_list: tuple
    n_list: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "eps_list", tuple(float(v) for v in self.eps_list))
        object.__setattr__(self, "delta_list", tuple(float(v) for v in self.delta_list))
        object.__setattr__(self, "n_list", tuple(int(v) for v in self.n_list))
        if not self.eps_list or not self.delta_list:
            raise DomainError("schedule needs at least one eps and one delta")
        if any(v <= 0 for v in self.eps_list + self.delta_list):
            raise DomainError("eps and delta entries must be positive")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise DomainError("eps_list must decrease strictly")
        if any(b >= a for a, b in zip(self.delta_list, self.delta_list[1:])):
            raise DomainError("delta_list must decrease strictly")
        if any(v < 1 for v in self.n_list):
            raise DomainError("n_list entries must be >= 1")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise DomainError("n_list must increase strictly")

    def pairs(self) -> list:
        """Continuation order: eps descending at the largest delta, then
        delta descending at the smallest eps."""
        out = [(e, self.delta_list[0]) for e in self.eps_list]
        out += [(self.eps_list[-1], d) for d in self.delta_list[1:]]
        return out


# ── Run manifest ─────────────────────────────────────────────────────────

def run_manifest(params: Params, grid: GridSpec, problem_kind: str,
                 schedule: RegularizationSchedule | None = None,
                 **extra) -> dict:
    """Everything needed to reproduce a run, as a nested plain dict."""
    d = {
        "format": "ipme-manifest v1",
        "problem": problem_kind,
        "params": {"m": params.m, "k": params.k, "p": params.p,
                   "eps": params.eps, "delta": params.delta, "c": params.c},
        "grid": {"dim": grid.dim, "n": list(grid.n), "h": list(grid.h),
                 "origin": list(grid.origin)},
    }
    if schedule is not None:
        d["schedule"] = {"eps_list": list(schedule.eps_list),
                         "delta_list": list(schedule.delta_list),
                         "n_list": list(schedule.n_list)}
    d.update(extra)
    return d


# ── Pressure <-> density ─────────────────────────────────────────────────

def pressure_from_density(rho, m: float):
    """u = (m/(m-1)) rho^(m-1), elementwise on arrays or scalars.

    Strictly increasing bijection of [0, inf) for every m > 1; inverse is
    `density_from_pressure`.
    """
    if not (m > 1.0):
        raise DomainError(f"m must exceed 1, got {m}")
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0.0):
        raise DomainError("density must be nonnegative")
    out = (m / (m - 1.0)) * rho_arr ** (m - 1.0)
    return float(out) if np.isscalar(rho) or out.ndim == 0 else out


def density_from_pressure(u, m: float):
    """rho = ((m-1)/m u)^(1/(m-1)), the inverse of `pressure_from_density`."""
    if not (m > 1.0):
        raise DomainError(f"m must exceed 1, got {m}")
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0):
        raise DomainError("pressure must be nonnegative")
    out = ((m - 1.0) / m * u_arr) ** (1.0 / (m - 1.0))
    return float(out) if np.isscalar(u) or out.ndim == 0 else out

