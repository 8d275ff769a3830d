"""Pressure-form porous-medium flow driven by the normalized
infinity-Laplacian: regularized solvers, exact solutions, verification
suites and asymptotic diagnostics.

The governing equation for the pressure u = (m/(m-1)) rho^(m-1) is

    u_t = k u D_inf(u) + |Du|^2,   k = m - 1,

where D_inf is the 1-homogeneous infinity-Laplacian
<D^2 u Du, Du>/|Du|^2.  Solvers work with the (eps, delta)-regularized
operator and drive the regularization to zero by continuation.
"""

from .core import (BoundaryData, CflError, ConfigError, DomainError,
                   FitError, GridSpec, InstabilityError, IpmeError,
                   NumericError, OrderingError, Params, RangeError,
                   RegularizationSchedule, ScalarField, SingularPointError,
                   SnapshotFormatError, TruncationError,
                   density_from_pressure, pressure_from_density, run_manifest)

__all__ = [
    "Params", "GridSpec", "ScalarField", "BoundaryData",
    "RegularizationSchedule", "run_manifest",
    "pressure_from_density", "density_from_pressure",
    "IpmeError", "DomainError", "RangeError", "SingularPointError",
    "NumericError", "CflError", "InstabilityError", "OrderingError",
    "TruncationError", "FitError", "SnapshotFormatError", "ConfigError",
]

__version__ = "0.1.0"
