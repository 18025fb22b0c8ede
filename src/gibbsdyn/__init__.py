"""Spectral Galerkin simulation of damped stochastic wave dynamics on the
torus, with a Monte-Carlo harness that verifies the Gibbs-type invariant
measure, ergodic averaging, and the supporting linear theory.

States are flat complex arrays (..., 2, n_modes): displacement and velocity
coefficients on the mode cube of a `GridSpec`."""

from gibbsdyn.spectral import (
    AliasError,
    GridSpec,
    cube_mask,
    dealiased_cube_coeffs,
    holder_norm,
    quartic_integral_coeffs,
    sobolev_pair_norm,
)

__version__ = "0.1.0"

__all__ = [
    "AliasError",
    "GridSpec",
    "cube_mask",
    "dealiased_cube_coeffs",
    "holder_norm",
    "quartic_integral_coeffs",
    "sobolev_pair_norm",
    "__version__",
]
